"""Record the benchmark's figures for one change in a ``BENCH_<pr>.json`` file.

    python3 scripts/bench_record.py --pr <number> --baseline <parent checkout>

Runs ``python3 benchmark/run.py`` as a subprocess for every workload at
seeds 1, 2 and 3, 40 s each, then one ``--trace 1`` run per workload at
seed 1, in this checkout and, with ``--baseline``, in a second checkout
too.  The seeds and the run length are fixed so that the files of
different changes compare.  With a baseline the two checkouts alternate within each
pair of runs, starting with the baseline on even pairs and with this
checkout on odd ones, so that a slow spell of the host falls on both.

The file holds the machine (CPUs, python and numpy versions), the
median and quartiles of every end-to-end metric, the per-layer metrics
of the traced runs, and the time to solution of every workload that
anneals: ``TTS99 = t_restart * ln(0.01) / ln(1 - p)``, where
``t_restart`` is ``solve_s`` per restart and ``p`` is
``optimal_samples`` per restart (``t_restart`` itself when ``p = 1``,
``null`` when ``p = 0``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("delivery", "corpus", "fleet")
SEEDS = (1, 2, 3)
SECONDS = 40.0


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


def describe(checkout: Path) -> dict:
    def git(*args: str) -> str | None:
        done = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else None

    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", required=True, help="number in the output name, BENCH_<pr>.json")
    parser.add_argument("--baseline", type=Path, help="a second checkout to run alternately, labelled parent")
    args = parser.parse_args(argv)

    checkouts = {"change": ROOT}
    if args.baseline is not None:
        checkouts = {"parent": args.baseline.resolve(), "change": ROOT}
    runs: dict[str, dict[str, list]] = {label: {w: [] for w in WORKLOADS} for label in checkouts}
    traced: dict[str, dict[str, dict]] = {label: {} for label in checkouts}

    for workload in WORKLOADS:
        for pair, seed in enumerate(SEEDS):
            labels = list(checkouts) if pair % 2 == 0 else list(reversed(checkouts))
            for label in labels:
                result = run_benchmark(checkouts[label], workload, seed, 0)
                runs[label][workload].append((seed, result))
                metrics = {k: v["value"] for k, v in result["metrics"].items()}
                print(f"{workload} seed {seed} {label}: failed {result['failed']} {metrics}", flush=True)
        for label, checkout in checkouts.items():
            traced[label][workload] = run_benchmark(checkout, workload, SEEDS[0], 1)
            print(f"{workload} traced {label}: failed {traced[label][workload]['failed']}", flush=True)

    report = {
        "pr": args.pr,
        "machine": machine(),
        "settings": {
            "command": "python3 benchmark/run.py",
            "seconds": SECONDS,
            "seeds": list(SEEDS),
            "traced_seed": SEEDS[0],
            "order": "alternating pairs" if len(checkouts) > 1 else "one checkout",
        },
        "checkouts": {},
    }
    for label, checkout in checkouts.items():
        workloads = {}
        for workload, results in runs[label].items():
            names = list(results[0][1]["metrics"])
            end_to_end = {
                name: {"unit": results[0][1]["metrics"][name]["unit"],
                       **summary([r["metrics"][name]["value"] for _, r in results])}
                for name in names
            }
            entry = {
                "seeds": [seed for seed, _ in results],
                "failed": [r["failed"] for _, r in results],
                "attempted": [r["attempted"] for _, r in results],
                "end_to_end": end_to_end,
            }
            restarts = annealed_restarts(checkout, workload, SEEDS[0])
            if restarts:
                entry["restarts"] = restarts
                entry["tts99_s"] = summary([
                    tts99(r["metrics"]["solve_s"]["value"], r["metrics"]["optimal_samples"]["value"], restarts)
                    for _, r in results
                ])
            else:
                entry["tts99_s"] = None
            trace = traced[label][workload]
            entry["per_layer"] = {
                "failed": trace["failed"],
                **{k: {"value": v["value"], "unit": v["unit"]} for k, v in trace["metrics"].items()},
            }
            workloads[workload] = entry
        report["checkouts"][label] = {**describe(checkout), "workloads": workloads}

    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"written {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
