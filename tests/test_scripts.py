"""The scripts run from a checkout as README lists them, with no PYTHONPATH."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize(
    "argv, expected",
    [
        (
            ["robustness_sweep.py", "--instances", "12"],
            ["match: 2", "boundary_tie: 0", "objective_divergence: 0", "infeasible_instance: 5", "skipped: 5"],
        ),
        (
            ["run_delivery_demo.py", "--restarts", "20", "--sweeps", "20"],
            ["free variables: 84", "parameters: lam=2.0 mu=10.0 rho=4.5", "oracle optimum: 24.5 (18 plans, s)",
             "annealing: 20 samples, feasible rate 0.500, best energy -6.5333, best feasible cost 25.1 (s)",
             "best feasible plan:"],
        ),
        (
            ["sweep_schedule.py", "--restarts", "10"],
            ["free variables: 84", "sweeps  beta_start  beta_end  feasible_rate  best_energy",
             "    50      0.0500     5.000          0.600  -6.6667",
             "   400      0.0100    25.000          0.800  -6.6667"],
        ),
    ],
    ids=["robustness_sweep", "run_delivery_demo", "sweep_schedule"],
)
def test_script_runs_without_pythonpath(tmp_path, argv, expected):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0]), *argv[1:]],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    # Wall-clock figures such as "(0.1s)" are left out of the comparison.
    lines = [re.sub(r"\d+\.\ds\)$", "s)", out) for out in done.stdout.splitlines()]
    for line in expected:
        assert line in lines, (line, done.stdout)
