"""Record the benchmark's figures for one change in a ``BENCH_<pr>.json`` file.

    python3 scripts/bench_record.py --pr <number> --baseline <git revision>

Runs ``python3 benchmark/run.py`` as a subprocess for every workload, for
``BENCHMARK.json``'s ``run_seconds`` each, in ten pairs: the seed is the
pair number, 1 to 10, and within a pair the parent (the ``--baseline``
revision, extracted with ``git archive`` into a temporary directory) and
this checkout both run, the parent first on odd pairs, so that a slow
spell of the host falls on both.  Then one ``--trace 1`` run per workload
and side at seed 1.  Without ``--baseline`` only this checkout runs.

The file holds the machine (CPUs, python and numpy versions), each side's
commit, the median and quartiles of every end-to-end metric, the number
of pairs in which the change was better and worse by the metric's
direction in ``BENCHMARK.json`` (ties count for neither), the per-layer
metrics of the traced runs, and the time to solution of every workload
that anneals: ``TTS99 = t_restart * ln(0.01) / ln(1 - p)``, where
``t_restart`` is ``solve_s`` per restart and ``p`` is ``optimal_samples``
per restart (``t_restart`` itself when ``p = 1``, ``null`` when ``p = 0``).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
SECONDS = float(SPEC["run_seconds"])
PAIRS = 10
TRACED_SEED = 1


def run_benchmark(checkout: Path, workload: str, seed: int, trace: int) -> dict:
    """One ``benchmark/run.py`` run; its last output line, parsed."""
    argv = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"error: {' '.join(argv[1:])} in {checkout} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def annealed_restarts(checkout: Path, workload: str, seed: int) -> int:
    """Restarts summed over the workload's annealed jobs (0 if none anneals)."""
    sys.path.insert(0, str(checkout / "benchmark"))
    try:
        from workloads import make_jobs

        with tempfile.TemporaryDirectory() as scratch:
            jobs = make_jobs(workload, seed, Path(scratch))
    finally:
        sys.path.pop(0)
        sys.modules.pop("workloads", None)
    return sum(
        int(job.sa_args[job.sa_args.index("--restarts") + 1]) for job in jobs if job.sampler == "sa"
    )


def tts99(solve_s: float, optimal: float, restarts: int) -> float | None:
    t_restart = solve_s / restarts
    p = optimal / restarts
    if p <= 0:
        return None
    if p >= 1:
        return t_restart
    return t_restart * math.log(0.01) / math.log(1.0 - p)


def summary(values: list) -> dict:
    """Median and quartiles (inclusive method); ``None`` values are left out."""
    present = sorted(v for v in values if v is not None)
    if not present:
        return {"median": None, "q1": None, "q3": None, "values": values}
    q1, _, q3 = statistics.quantiles(present, n=4, method="inclusive") if len(present) > 1 else present * 3
    return {"median": statistics.median(present), "q1": q1, "q3": q3, "values": values}


def pairs_won(parent: list, change: list, better: str) -> dict:
    """Pairs in which the change was better or worse; equal values count for neither."""
    sign = 1 if better == "lower" else -1
    diffs = [sign * (p - c) for p, c in zip(parent, change)]
    return {"better": sum(d > 0 for d in diffs), "worse": sum(d < 0 for d in diffs), "pairs": len(diffs)}


def git(*args: str, cwd: Path = ROOT) -> str | None:
    done = subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def extract(revision: str, into: Path) -> str:
    """Write the files of ``revision`` under ``into``; returns its commit."""
    commit = git("rev-parse", "--verify", f"{revision}^{{commit}}")
    if commit is None:
        raise SystemExit(f"error: {revision!r} names no commit of {ROOT}")
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(into, filter="data")
    return commit


def machine() -> dict:
    try:
        available = len(os.sched_getaffinity(0))
    except AttributeError:
        available = os.cpu_count()
    return {
        "nproc": available,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "system": platform.system(),
        "machine": platform.machine(),
    }


def side_report(checkout: Path, runs: dict[str, list], traced: dict[str, dict]) -> dict:
    """Each workload's runs in pair order, summarised, with its traced run."""
    workloads = {}
    for workload, results in runs.items():
        units = {name: m["unit"] for name, m in results[0]["metrics"].items()}
        entry = {
            "failed": [r["failed"] for r in results],
            "attempted": [r["attempted"] for r in results],
            "end_to_end": {
                name: {"unit": unit, **summary([r["metrics"][name]["value"] for r in results])}
                for name, unit in units.items()
            },
            "tts99_s": None,
        }
        restarts = annealed_restarts(checkout, workload, TRACED_SEED)
        if restarts:
            entry["restarts"] = restarts
            entry["tts99_s"] = summary([
                tts99(r["metrics"]["solve_s"]["value"], r["metrics"]["optimal_samples"]["value"], restarts)
                for r in results
            ])
        trace = traced[workload]
        entry["per_layer"] = {
            "failed": trace["failed"],
            **{k: {"value": v["value"], "unit": v["unit"]} for k, v in trace["metrics"].items()},
        }
        workloads[workload] = entry
    return workloads


def record(checkouts: dict[str, Path]) -> dict:
    """Run the pairs and the traced runs of every workload; the sides' reports."""
    runs = {label: {w: [] for w in WORKLOADS} for label in checkouts}
    traced: dict[str, dict[str, dict]] = {label: {} for label in checkouts}
    for workload in WORKLOADS:
        for seed in range(1, PAIRS + 1):
            labels = list(checkouts) if seed % 2 else list(reversed(checkouts))
            for label in labels:
                result = run_benchmark(checkouts[label], workload, seed, 0)
                runs[label][workload].append(result)
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                print(f"{workload} pair {seed} {label}: failed {result['failed']} {metrics}", flush=True)
        for label, checkout in checkouts.items():
            traced[label][workload] = run_benchmark(checkout, workload, TRACED_SEED, 1)
            print(f"{workload} traced {label}: failed {traced[label][workload]['failed']}", flush=True)
    reports = {label: {"workloads": side_report(checkouts[label], runs[label], traced[label])} for label in checkouts}
    if "parent" in checkouts:
        for workload in WORKLOADS:
            reports["change"]["workloads"][workload]["pairs_against_parent"] = {
                m["name"]: pairs_won(
                    *([r["metrics"][m["name"]]["value"] for r in runs[label][workload]] for label in ("parent", "change")),
                    m["better"],
                )
                for m in SPEC["end_to_end"]
            }
    return reports


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, help="number in the output name, BENCH_<pr>.json")
    parser.add_argument("--baseline", help="a git revision of this repository to run alternately, labelled parent")
    args = parser.parse_args(argv)

    change = {"commit": git("rev-parse", "HEAD"),
              "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    if args.baseline is None:
        reports = record({"change": ROOT})
        reports["change"] = {**change, **reports["change"]}
    else:
        with tempfile.TemporaryDirectory(prefix="bench-parent-") as scratch:
            parent = {"revision": args.baseline, "commit": extract(args.baseline, Path(scratch))}
            reports = record({"parent": Path(scratch), "change": ROOT})
        reports = {"parent": {**parent, **reports["parent"]}, "change": {**change, **reports["change"]}}

    report = {
        "pr": args.pr,
        "machine": machine(),
        "settings": {
            "command": "python3 benchmark/run.py",
            "seconds": SECONDS,
            "seeds": list(range(1, PAIRS + 1)),
            "traced_seed": TRACED_SEED,
            "order": "alternating pairs, the parent first on odd pairs" if args.baseline else "one checkout",
        },
        "checkouts": reports,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"written {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
