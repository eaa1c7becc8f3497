#!/usr/bin/env python3
"""Feasible-rate sweep over annealing schedules on the delivery scenario.

Prints one line per (sweeps, beta ratio) combination so schedule choices
can be compared at a glance.  Restart counts are kept moderate; the
point is the trend, not the final figure.
"""

import argparse
import sys
from pathlib import Path

# This checkout's sources, before any installed copy.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tsvrp import AnnealSchedule, build_model, simulated_anneal, standard_parameters, stats  # noqa: E402
from tsvrp.demo import DEMO_LAMBDA, delivery_demo_instance  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--restarts", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    inst = delivery_demo_instance()
    params = standard_parameters(inst.costs, DEMO_LAMBDA)
    model = build_model(inst, params)
    print(f"free variables: {model.n_vars}")
    print("sweeps  beta_start  beta_end  feasible_rate  best_energy")
    for sweeps in (50, 100, 200, 400):
        for b0, b1 in ((0.1 / params.lam, 10.0 / params.lam), (0.02 / params.lam, 50.0 / params.lam)):
            schedule = AnnealSchedule(
                sweeps=sweeps,
                beta_start=b0,
                beta_end=b1,
                restarts=args.restarts,
                seed=args.seed,
            )
            sample_set = simulated_anneal(model, schedule)
            report = stats(sample_set, model.catalogue, inst)
            print(
                f"{sweeps:6d}  {b0:10.4f}  {b1:8.3f}  {report.feasible_rate:13.3f}  "
                f"{report.best_energy:.4f}"
            )


if __name__ == "__main__":
    main()
