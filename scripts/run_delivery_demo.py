#!/usr/bin/env python3
"""End-to-end run of the reference delivery scenario.

Builds the six-customer/three-vehicle model, solves it with seeded
simulated annealing, grades every sample against the instance, and
compares the best feasible plan with the classical optimum.
"""

import argparse
import sys
import time
from pathlib import Path

# This checkout's sources, before any installed copy.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tsvrp import (  # noqa: E402
    AnnealSchedule,
    build_model,
    enumerate_optimal_routes,
    simulated_anneal,
    standard_parameters,
    stats,
)
from tsvrp.decoder import evaluate_bits  # noqa: E402
from tsvrp.demo import DEMO_LAMBDA, delivery_demo_instance  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sweeps", type=int, default=200)
    parser.add_argument("--restarts", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=20240817)
    args = parser.parse_args()

    inst = delivery_demo_instance()
    params = standard_parameters(inst.costs, DEMO_LAMBDA)
    model = build_model(inst, params)
    print(f"free variables: {model.n_vars}")
    print(f"parameters: lam={params.lam} mu={params.mu} rho={params.rho}")

    t0 = time.time()
    best_cost, plans = enumerate_optimal_routes(inst)
    print(f"oracle optimum: {best_cost} ({len(plans)} plans, {time.time() - t0:.1f}s)")

    t0 = time.time()
    schedule = AnnealSchedule(sweeps=args.sweeps, restarts=args.restarts, seed=args.seed)
    sample_set = simulated_anneal(model, schedule)
    report = stats(sample_set, model.catalogue, inst)
    print(
        f"annealing: {report.total_samples} samples, feasible rate "
        f"{report.feasible_rate:.3f}, best energy {report.best_energy:.4f}, "
        f"best feasible cost {report.best_feasible_cost} ({time.time() - t0:.1f}s)"
    )

    for record in sample_set.records:
        plan, rec_report = evaluate_bits(record.bits, model.catalogue, inst)
        if rec_report.feasible:
            print("best feasible plan:")
            for vehicle, events in plan.events.items():
                pretty = " -> ".join(f"{e.city}@{e.tau}" for e in events)
                print(f"  vehicle {vehicle}: {pretty}")
            break


if __name__ == "__main__":
    main()
