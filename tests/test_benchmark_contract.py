"""The benchmark harness still runs against this source tree.

``benchmark/tracing.py`` calls library members that no command-line path
calls (``QuboModel.dense_arrays`` and ``energies``, ``SampleSet.verify``,
``ValidationIssue.severity``, ``write_model``, ``write_sample_set``,
``VariableCatalogue.fixed``, ``build_model(catalogue=)``).  One short
traced corpus run exercises all of them.  It runs on a copy of ``src``
and ``benchmark`` so the checkout's ``.bench_out`` stays untouched.
The delivery workload's stored scenario must still be the demo's.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from tsvrp import serialize_instance
from tsvrp.demo import delivery_demo_instance

ROOT = Path(__file__).resolve().parent.parent


def test_traced_corpus_run_is_correct(tmp_path):
    for part in ("src", "benchmark"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "benchmark/run.py", "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "1"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, done.stderr
    assert last["attempted"] > 0


def test_reference_scenario_matches_the_demo():
    # The comparison `benchmark/regen_reference.py --check` makes.
    stored = (ROOT / "benchmark" / "reference" / "delivery.json").read_text(encoding="utf-8")
    assert stored == serialize_instance(delivery_demo_instance()) + "\n"
