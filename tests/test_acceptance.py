"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line with the measured figures once its
assertions hold, so `pytest -v -s tests/test_acceptance.py` doubles as
the acceptance report.
"""

import time

import numpy as np
import pytest

from tsvrp import (
    AnnealSchedule,
    build_model,
    enumerate_optimal_routes,
    exhaustive_solve,
    route_cost,
    simulated_anneal,
    standard_parameters,
    stats,
)
from tsvrp.cli import main
from tsvrp.decoder import evaluate_bits
from tsvrp.demo import DEMO_LAMBDA, delivery_demo_instance
from tsvrp.hamiltonians import PENALTY_FAMILIES
from tsvrp.instance import serialize_instance

from cases import CAPACITATED_CASES, TWO_STATE_CASES, load_cases
from strategies import random_instance


def _ground_truth(case):
    """Exhaustive minima, their decoded plans, and the oracle optimum."""
    params = standard_parameters(case.instance.costs, case.lam)
    model = build_model(case.instance, params)
    assert model.n_vars <= 22, f"{case.name} exceeds the enumeration budget"
    sample_set = exhaustive_solve(model)
    decoded = []
    for record in sample_set.records:
        plan, report = evaluate_bits(record.bits, model.catalogue, case.instance)
        decoded.append((record, plan, report))
    best_cost, oracle_plans = enumerate_optimal_routes(case.instance)
    return params, model, sample_set, decoded, best_cost, oracle_plans


@pytest.fixture(scope="module")
def exhaustive_results():
    return {case.name: (case, _ground_truth(case)) for case in load_cases()}


def test_criterion_1_parameter_policy_range():
    """Cost coefficients span [-lam, 0]; penalties equal +lam exactly."""
    started = time.time()
    checked_cost = checked_penalty = 0
    for seed in range(100):
        inst = random_instance(seed, max_cities=6, max_intervals=6, max_vehicles=2)
        lam = 0.5 + (seed % 7) * 0.5
        params = standard_parameters(inst.costs, lam)
        model = build_model(inst, params)
        for record in model.records:
            if record.family == "travel_cost":
                assert -lam - 1e-12 <= record.coefficient <= 1e-12
                checked_cost += 1
            elif record.family == "stay_cost":
                # Stays are priced by the same shift rule at zero cost.
                assert record.coefficient == pytest.approx(
                    params.cost_coefficient(0.0), abs=1e-12
                )
                checked_cost += 1
            elif record.family in PENALTY_FAMILIES:
                assert record.coefficient == pytest.approx(lam, abs=1e-12)
                checked_penalty += 1
    elapsed = time.time() - started
    assert elapsed < 10.0, f"criterion 1 overran its budget: {elapsed:.1f}s"
    print(
        f"\n[acceptance] criterion 1 PASS: 100 instances, {checked_cost} cost terms in "
        f"[-lam, 0], {checked_penalty} penalties == +lam ({elapsed:.1f}s)"
    )


def test_criterion_2_exhaustive_oracle_equivalence(exhaustive_results):
    """Minimum-energy bitstrings decode exactly to the oracle's optima."""
    started = time.time()
    checked = 0
    for name, (case, truth) in exhaustive_results.items():
        params, model, sample_set, decoded, best_cost, oracle_plans = truth
        assert best_cost is not None, name
        decoded_plans = set()
        for record, plan, report in decoded:
            assert report.feasible, (name, report.violations)
            decoded_plans.add(plan)
            expected = sum(
                params.cost_coefficient(case.instance.cost(dt, tc, fc))
                for (_, dt, fc, at, tc) in plan.travel_legs()
                if at - dt == case.instance.duration(dt, tc, fc)
            )
            expected += params.cost_coefficient(0.0) * len(plan.stay_spans())
            assert record.energy == pytest.approx(expected, abs=1e-9), name
        assert decoded_plans == set(oracle_plans), name
        checked += 1
    elapsed = time.time() - started
    assert checked >= 20
    assert elapsed < 120.0, f"criterion 2 overran its budget: {elapsed:.1f}s"
    print(
        f"\n[acceptance] criterion 2 PASS: {checked} instances, minima == oracle optima, "
        f"energies match the shifted cost sum within 1e-9 ({elapsed:.1f}s)"
    )


def test_criterion_3_ground_state_separation(exhaustive_results):
    """Everything the checker rejects sits strictly above the minimum."""
    for name, (case, truth) in exhaustive_results.items():
        params, model, sample_set, decoded, _, _ = truth
        minimum = sample_set.records[0].energy
        # exhaustive_solve returns the full 1e-9 tie band around the
        # minimum; every member must decode to a clean plan.
        for record, plan, report in decoded:
            assert record.energy <= minimum + 1e-9
            assert plan is not None and report.feasible, (
                name,
                record.energy,
                None if plan is None else [v.kind for v in report.violations],
            )
    print(
        f"\n[acceptance] criterion 3 PASS: on {len(exhaustive_results)} instances every "
        "bitstring in the minimum band decodes feasibly (infeasible states are strictly above)"
    )


def test_criterion_4_reference_delivery_run():
    """SA on the six-customer delivery scenario reaches the oracle optimum."""
    started = time.time()
    inst = delivery_demo_instance()
    params = standard_parameters(inst.costs, DEMO_LAMBDA)
    model = build_model(inst, params)
    free_vars = model.n_vars
    schedule = AnnealSchedule(sweeps=200, restarts=10_000, seed=20240817)
    sample_set = simulated_anneal(model, schedule)
    report = stats(sample_set, model.catalogue, inst)
    best_cost, _ = enumerate_optimal_routes(inst)

    assert report.feasible_rate > 0.25
    assert report.best_feasible_cost == pytest.approx(best_cost)
    # the cheapest feasible sample must exhibit the window-forced detour
    best_plan = None
    for record in sample_set.records:
        plan, rec_report = evaluate_bits(record.bits, model.catalogue, inst)
        if rec_report.feasible and route_cost(plan, inst, check=False) == pytest.approx(best_cost):
            best_plan = plan
            break
    assert best_plan is not None
    detours = [
        (dt, fc, at, tc)
        for (_, dt, fc, at, tc) in best_plan.travel_legs()
        if at - dt > inst.duration(dt, tc, fc)
    ]
    assert detours, "expected at least one window-forced overtime leg"
    for dt, fc, at, tc in detours:
        nominal_slot = dt + inst.duration(dt, tc, fc)
        assert any(inst.windows.forbids(i, nominal_slot, tc) for i in (1, 2, 3))
    elapsed = time.time() - started
    assert elapsed < 300.0, f"criterion 4 overran its budget: {elapsed:.1f}s"
    print(
        f"\n[acceptance] criterion 4 PASS: {free_vars} free variables, feasible rate "
        f"{report.feasible_rate:.3f} > 0.25, best feasible cost {report.best_feasible_cost} "
        f"== oracle {best_cost}, detour legs {detours} ({elapsed:.1f}s)"
    )


def test_criterion_5_capacity_trajectories(exhaustive_results):
    """Capacitated ground states respect bounds and exact variations."""
    names = {factory().name for factory in CAPACITATED_CASES}
    checked_events = checked_legs = 0
    for name in names:
        case, truth = exhaustive_results[name]
        inst = case.instance
        _, _, _, decoded, _, _ = truth
        for record, plan, report in decoded:
            for vehicle_id, events in plan.events.items():
                vehicle = inst.vehicle(vehicle_id)
                for event in events:
                    assert all(
                        q <= c <= qq
                        for c, q, qq in zip(
                            event.capacity, vehicle.capacity_lower, vehicle.capacity_upper
                        )
                    ), name
                    checked_events += 1
            for (i, dt, fc, at, tc) in plan.travel_legs():
                before = next(e.capacity for e in plan.events[i] if e.tau == dt)
                after = next(e.capacity for e in plan.events[i] if e.tau == at)
                delta = inst.variation(dt, tc, fc)
                assert after == tuple(c + d for c, d in zip(before, delta)), name
                assert all(
                    q <= c <= qq
                    for c, q, qq in zip(
                        after,
                        inst.vehicle(i).capacity_lower,
                        inst.vehicle(i).capacity_upper,
                    )
                ), name
                checked_legs += 1
    print(
        f"\n[acceptance] criterion 5 PASS: {checked_events} events within bounds, "
        f"{checked_legs} transitions equal to the variation vector exactly"
    )


def test_criterion_6_two_state_transitions(exhaustive_results):
    """Two-state ground states alternate states and keep exact stays."""
    names = {factory().name for factory in TWO_STATE_CASES}
    checked_stays = 0
    for name in names:
        case, truth = exhaustive_results[name]
        inst = case.instance
        _, _, _, decoded, _, _ = truth
        for record, plan, report in decoded:
            for vehicle_id, events in plan.events.items():
                for prev, nxt in zip(events, events[1:]):
                    assert prev.state != nxt.state, name
            for (i, city, arrive_tau, depart_tau) in plan.stay_spans():
                assert depart_tau - arrive_tau == inst.stay(arrive_tau, city), name
                checked_stays += 1
    assert checked_stays > 0
    print(
        f"\n[acceptance] criterion 6 PASS: alternation holds and {checked_stays} stays "
        "span exactly their nominal service time"
    )


def test_criterion_7_energy_evaluation_consistency():
    """Fast evaluator == naive double loop; spin form preserves energy."""
    from test_qubo import naive_energy, synthetic_catalogue
    from tsvrp.qubo import QuboModel, ising_energy
    import itertools

    rng = np.random.default_rng(7)
    pairs_checked = 0
    models = []
    for _ in range(40):
        n = int(rng.integers(2, 16))
        cat = synthetic_catalogue(n)
        model = QuboModel(cat)
        model.add_constant(float(rng.normal()))
        for _ in range(int(rng.integers(1, 3 * n))):
            i, j = rng.integers(0, n, 2)
            model.add_quadratic(cat.free_keys[int(i)], cat.free_keys[int(j)], float(rng.normal()))
        for _ in range(int(rng.integers(0, n))):
            model.add_linear(cat.free_keys[int(rng.integers(0, n))], float(rng.normal()))
        model.finalize()
        models.append(model)
    while pairs_checked < 1000:
        model = models[pairs_checked % len(models)]
        bits = rng.integers(0, 2, model.n_vars)
        assert model.energy(bits) == pytest.approx(naive_energy(model, bits), abs=1e-12)
        pairs_checked += 1

    spin_models = 0
    for seed in range(10):
        rng2 = np.random.default_rng(100 + seed)
        n = int(rng2.integers(1, 11))
        cat = synthetic_catalogue(n)
        model = QuboModel(cat)
        model.add_constant(float(rng2.normal()))
        for _ in range(int(rng2.integers(1, 20))):
            i, j = rng2.integers(0, n, 2)
            model.add_quadratic(cat.free_keys[int(i)], cat.free_keys[int(j)], float(rng2.normal()))
        model.finalize()
        h, j, offset = model.to_ising()
        for assignment in itertools.product((0, 1), repeat=n):
            spins = [2 * b - 1 for b in assignment]
            assert ising_energy(h, j, offset, spins) == pytest.approx(
                model.energy(assignment), abs=1e-12
            )
        spin_models += 1
    print(
        f"\n[acceptance] criterion 7 PASS: {pairs_checked} (model, bits) pairs match the "
        f"naive evaluator within 1e-12; {spin_models} spin forms preserve energy exactly"
    )


def test_criterion_8_solver_determinism(tmp_path):
    """Identical seeded runs write byte-identical artifacts."""
    inst = delivery_demo_instance()
    path = tmp_path / "demo.json"
    path.write_text(serialize_instance(inst))
    args = [
        "solve",
        "--instance", str(path),
        "--lambda", str(DEMO_LAMBDA),
        "--sampler", "sa",
        "--sweeps", "40",
        "--restarts", "64",
        "--seed", "11",
        "--out", str(tmp_path / "run"),
    ]
    assert main(args) in (0, 1)
    first = {
        suffix: (tmp_path / f"run{suffix}").read_bytes()
        for suffix in (".samples.json", ".stats.json", ".stats.csv")
    }
    assert main(args) in (0, 1)
    second = {
        suffix: (tmp_path / f"run{suffix}").read_bytes()
        for suffix in (".samples.json", ".stats.json", ".stats.csv")
    }
    assert first == second
    print("\n[acceptance] criterion 8 PASS: two identical runs produced byte-identical files")
