#!/usr/bin/env python3
"""Randomized agreement sweep between the QUBO minima and the route oracle.

Generates small untuned instances, enumerates each QUBO exhaustively and
classifies the outcome:

- ``match``: every minimum-energy bitstring decodes to an oracle-optimal
  plan and vice versa;
- ``boundary tie``: an infeasible assignment shares the minimum energy
  (cheapest-leg rewards cancel a penalty exactly — the documented edge
  of the shifted-cost pricing);
- ``objective divergence``: minima and optima are both feasible but
  differ.  This happens on instances where travel is optional (for
  example every city is some vehicle's depot): the energy *rewards*
  each on-time leg while the route bill *charges* it, so the two
  objectives only align when serving every customer pins the leg count.

The point of the sweep is that disagreements fall into those two
explainable classes; anything else would indicate an encoding bug.
"""

import argparse
import sys
from pathlib import Path

# This checkout's sources first, then its tests' instance generator.
CHECKOUT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(CHECKOUT / "src"), str(CHECKOUT / "tests")]

from strategies import random_instance  # noqa: E402

from tsvrp import (  # noqa: E402
    BuildError,
    SearchCapExceeded,
    build_model,
    enumerate_optimal_routes,
    exhaustive_solve,
    standard_parameters,
)
from tsvrp.decoder import evaluate_bits  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=300)
    parser.add_argument("--max-vars", type=int, default=18)
    args = parser.parse_args()

    tallies = {"match": 0, "boundary_tie": 0, "objective_divergence": 0,
               "infeasible_instance": 0, "skipped": 0}
    divergent = []
    for seed in range(args.instances):
        inst = random_instance(seed, max_cities=4, max_intervals=4, max_vehicles=2)
        params = standard_parameters(inst.costs, 1.0 + (seed % 3))
        try:
            model = build_model(inst, params)
        except BuildError:
            tallies["skipped"] += 1
            continue
        if model.n_vars > args.max_vars:
            tallies["skipped"] += 1
            continue
        minima_plans, any_infeasible = set(), False
        for record in exhaustive_solve(model).records:
            plan, report = evaluate_bits(record.bits, model.catalogue, inst)
            if report.feasible:
                minima_plans.add(plan)
            else:
                any_infeasible = True
        try:
            best, oracle_plans = enumerate_optimal_routes(inst, max_nodes=300_000)
        except SearchCapExceeded:
            tallies["skipped"] += 1
            continue
        if best is None:
            tallies["infeasible_instance"] += 1
        elif any_infeasible:
            tallies["boundary_tie"] += 1
        elif minima_plans == set(oracle_plans):
            tallies["match"] += 1
        else:
            tallies["objective_divergence"] += 1
            if len(divergent) < 8:
                divergent.append((seed, inst.model_kind, sorted(inst.depot_cities),
                                  len(inst.customer_cities)))
    for key, value in tallies.items():
        print(f"{key}: {value}")
    if divergent:
        print("divergent (seed, kind, depots, customers):")
        for row in divergent:
            print(f"  {row}")


if __name__ == "__main__":
    main()
