import itertools

import numpy as np
import pytest

from tsvrp import (
    CostSeries,
    DecodeError,
    DurationSeries,
    Instance,
    RoutePlan,
    SampleRecord,
    SampleSet,
    TimeGrid,
    Vehicle,
    WindowSet,
    build_catalogue,
    build_model,
    check_feasibility,
    decode,
    encode_plan,
    enumerate_optimal_routes,
    exhaustive_solve,
    route_cost,
    standard_parameters,
    stats,
)
from tsvrp.decoder import (
    MODE_STRICT,
    MODE_WINDOW_TOLERANT,
    STATES,
    Event,
    InfeasiblePlanError,
    Violation,
    _fleet_checks,
    evaluate_bits,
)
from tsvrp.demo import delivery_demo_instance
from tsvrp.hamiltonians import COST_FAMILIES
from tsvrp.instance import capacity_box
from tsvrp.oracle import SearchCapExceeded
from tsvrp.qubo import ARRIVAL, DEPARTURE, FIXED_ZERO, PLAIN, VariableKey

from cases import (
    load_cases,
    mc_pickup_chain,
    svrp_three_city,
    three_city_dense,
    two_city_plain,
)
from strategies import random_instance


def bits_for(catalogue, keys):
    bits = np.zeros(catalogue.n_free, dtype=int)
    for key in keys:
        bits[catalogue.index_of(key)] = 1
    return bits


# -- decode --------------------------------------------------------------------


def test_decode_fixed_start_plus_set_bit():
    case = two_city_plain()
    cat = build_catalogue(case.instance)
    plan = decode(bits_for(cat, [VariableKey(1, 2, 2, (), PLAIN)]), cat)
    assert plan.events[1] == (
        Event(1, 1, PLAIN, ()),
        Event(2, 2, PLAIN, ()),
    )


def test_decode_all_zero_bits_gives_start_only():
    case = two_city_plain()
    cat = build_catalogue(case.instance)
    plan = decode(np.zeros(cat.n_free, dtype=int), cat)
    assert plan.events[1] == (Event(1, 1, PLAIN, ()),)


def test_decode_conflicting_cells_fails():
    case = three_city_dense()
    cat = build_catalogue(case.instance)
    bits = bits_for(cat, [VariableKey(1, 2, 2, (), PLAIN), VariableKey(1, 2, 3, (), PLAIN)])
    with pytest.raises(DecodeError) as err:
        decode(bits, cat)
    assert err.value.violations[0].kind == "MULTI_CITY_SAME_TIME"


def test_encode_decode_round_trip_on_case_suite():
    for case in load_cases():
        params = standard_parameters(case.instance.costs, case.lam)
        model = build_model(case.instance, params)
        best = exhaustive_solve(model).records[0]
        plan = decode(best.bits, model.catalogue)
        again = decode(tuple(encode_plan(plan, model.catalogue)), model.catalogue)
        assert again == plan, case.name


def test_encode_rejects_plans_on_forbidden_slots():
    case = two_city_plain()
    cat = build_catalogue(case.instance)
    plan = RoutePlan(events={1: (Event(1, 2, PLAIN, ()),)})  # start is fixed at city 1
    with pytest.raises(ValueError, match="fixed to zero"):
        encode_plan(plan, cat)


# -- feasibility ----------------------------------------------------------------


def test_optimal_plan_is_feasible():
    case = three_city_dense()
    best, plans = enumerate_optimal_routes(case.instance)
    report = check_feasibility(plans[0], case.instance)
    assert report.feasible


def test_revisit_detection():
    inst = three_city_dense().instance
    report = check_feasibility(
        RoutePlan(events={1: (Event(1, 1, PLAIN, ()), Event(2, 2, PLAIN, ()), Event(3, 2, PLAIN, ()))}),
        inst,
    )
    assert any(v.kind == "REVISIT" for v in report.violations)


def test_early_arrival_detection():
    case = three_city_dense()
    inst = case.instance
    durations = np.ones((2, 3, 3), dtype=int)
    durations[:, 2 - 1, 1 - 1] = 2
    slow = Instance(
        grid=inst.grid,
        city_labels=inst.city_labels,
        vehicles=inst.vehicles,
        costs=inst.costs,
        durations=DurationSeries(durations),
        variations=None,
        windows=inst.windows,
        model_kind=inst.model_kind,
        capacity_dims=0,
    )
    plan = RoutePlan(events={1: (Event(1, 1, PLAIN, ()), Event(2, 2, PLAIN, ()))})
    report = check_feasibility(plan, slow)
    assert any(v.kind == "EARLY_ARRIVAL" for v in report.violations)


def test_strict_vs_window_tolerant_modes():
    # A window kills the on-time slot, so the late leg passes only in
    # window-tolerant mode.
    inst = Instance(
        grid=TimeGrid(3, 10.0),
        city_labels=("a", "b"),
        vehicles=(Vehicle(id=1, start_city=1),),
        costs=CostSeries(np.where(np.eye(2), 0.0, 4.0)[None].repeat(2, axis=0)),
        durations=DurationSeries(np.ones((2, 2, 2), dtype=int)),
        variations=None,
        windows=WindowSet(frozenset({(1, 2, 2)})),
        model_kind="TS_VRP",
        capacity_dims=0,
    )
    plan = RoutePlan(events={1: (Event(1, 1, PLAIN, ()), Event(3, 2, PLAIN, ()))})
    tolerant = check_feasibility(plan, inst, mode=MODE_WINDOW_TOLERANT)
    strict = check_feasibility(plan, inst, mode=MODE_STRICT)
    assert tolerant.feasible
    assert not strict.feasible
    assert any(v.kind == "LATE_ARRIVAL" for v in strict.violations)


def test_unforced_late_arrival_is_flagged_even_in_tolerant_mode():
    inst = two_city_plain().instance
    bigger = Instance(
        grid=TimeGrid(3, 10.0),
        city_labels=inst.city_labels,
        vehicles=inst.vehicles,
        costs=CostSeries(np.where(np.eye(2), 0.0, 4.0)[None].repeat(2, axis=0)),
        durations=DurationSeries(np.ones((2, 2, 2), dtype=int)),
        variations=None,
        windows=WindowSet(),
        model_kind="TS_VRP",
        capacity_dims=0,
    )
    plan = RoutePlan(events={1: (Event(1, 1, PLAIN, ()), Event(3, 2, PLAIN, ()))})
    report = check_feasibility(plan, bigger)
    assert any(v.kind == "LATE_ARRIVAL" and not v.hard for v in report.violations)


def test_capacity_transition_and_bounds_checks():
    case = mc_pickup_chain()
    inst = case.instance
    wrong_transition = RoutePlan(
        events={
            1: (
                Event(1, 1, PLAIN, (0,)),
                Event(2, 2, PLAIN, (0,)),  # pickup not applied
            )
        }
    )
    report = check_feasibility(wrong_transition, inst)
    assert any(v.kind == "CAPACITY_TRANSITION" for v in report.violations)

    out_of_bounds = RoutePlan(
        events={
            1: (
                Event(1, 1, PLAIN, (0,)),
                Event(2, 2, PLAIN, (7,)),
            )
        }
    )
    report = check_feasibility(out_of_bounds, inst)
    assert any(v.kind == "CAPACITY_BOUNDS" for v in report.violations)


def test_capacity_vector_of_wrong_length_is_a_bounds_violation():
    inst = mc_pickup_chain().instance
    _, plans = enumerate_optimal_routes(inst)
    events = plans[0].events[1]
    assert events[-1].capacity == (0,) and check_feasibility(plans[0], inst).feasible
    longer = RoutePlan(events={1: events[:-1] + (events[-1]._replace(capacity=(0, 99)),)})
    report = check_feasibility(longer, inst)
    assert any(v.kind == "CAPACITY_BOUNDS" and v.hard for v in report.violations)


def test_stateful_alternation_and_stay_checks():
    case = svrp_three_city()
    inst = case.instance
    double_arrival = RoutePlan(
        events={
            1: (
                Event(1, 1, DEPARTURE, ()),
                Event(2, 2, ARRIVAL, ()),
                Event(3, 3, ARRIVAL, ()),
            )
        }
    )
    report = check_feasibility(double_arrival, inst)
    assert any(v.kind == "STATE_TRANSITION" for v in report.violations)

    early_leave = RoutePlan(
        events={
            1: (
                Event(1, 1, DEPARTURE, ()),
                Event(2, 2, ARRIVAL, ()),
                Event(2, 2, DEPARTURE, ()),
            )
        }
    )
    report = check_feasibility(early_leave, inst)
    assert any(v.kind in {"STAY_DURATION", "MULTI_CITY_SAME_TIME"} for v in report.violations)


def test_unvisited_customer_is_soft():
    case = three_city_dense()
    plan = RoutePlan(events={1: (Event(1, 1, PLAIN, ()), Event(2, 2, PLAIN, ()))})
    report = check_feasibility(plan, case.instance)
    unvisited = [v for v in report.violations if v.kind == "UNVISITED_CITY"]
    assert unvisited and all(not v.hard for v in unvisited)


# -- costs -----------------------------------------------------------------------


def test_route_cost_two_legs():
    case = three_city_dense()
    best, plans = enumerate_optimal_routes(case.instance)
    plan = plans[0]
    legs = plan.travel_legs()
    manual = sum(case.instance.cost(dt, tc, fc) for (_, dt, fc, _, tc) in legs)
    assert route_cost(plan, case.instance) == pytest.approx(manual)
    assert best == pytest.approx(manual)


def test_route_cost_of_start_only_plan():
    inst = Instance(
        grid=TimeGrid(2, 10.0),
        city_labels=("a", "b"),
        vehicles=(Vehicle(id=1, start_city=1), Vehicle(id=2, start_city=2)),
        costs=CostSeries(np.where(np.eye(2), 0.0, 4.0)[None]),
        durations=DurationSeries(np.ones((1, 2, 2), dtype=int)),
        variations=None,
        windows=WindowSet(),
        model_kind="TS_VRP",
        capacity_dims=0,
    )
    plan = RoutePlan(events={1: (Event(1, 1, PLAIN, ()),), 2: (Event(1, 2, PLAIN, ()),)})
    assert route_cost(plan, inst) == pytest.approx(0.0)


def test_route_cost_rejects_infeasible_plans():
    case = three_city_dense()
    plan = RoutePlan(
        events={1: (Event(1, 1, PLAIN, ()), Event(2, 2, PLAIN, ()), Event(3, 2, PLAIN, ()))}
    )
    with pytest.raises(InfeasiblePlanError):
        route_cost(plan, case.instance)


def test_encoded_plan_energy_matches_cost_terms():
    for case in (three_city_dense(), svrp_three_city()):
        params = standard_parameters(case.instance.costs, case.lam)
        model = build_model(case.instance, params)
        best, plans = enumerate_optimal_routes(case.instance)
        for plan in plans:
            bits = encode_plan(plan, model.catalogue)
            expected = sum(
                params.cost_coefficient(case.instance.cost(dt, tc, fc))
                for (_, dt, fc, at, tc) in plan.travel_legs()
                if at - dt == case.instance.duration(dt, tc, fc)
            )
            expected += params.cost_coefficient(0.0) * len(plan.stay_spans())
            assert model.energy(bits) == pytest.approx(expected, abs=1e-9), case.name


# -- oracle ----------------------------------------------------------------------


def test_two_dimension_capacity_equivalence():
    # Weight and volume tracked together: city 2 loads (1, 1), city 3
    # unloads only the first dimension.
    from tsvrp import VariationSeries

    t, n = 3, 3
    variations = np.zeros((t - 1, n, n, 2), dtype=int)
    variations[:, 1, :, 0] = 1
    variations[:, 1, :, 1] = 1
    variations[:, 2, :, 0] = -1
    costs = np.where(np.eye(n), 0.0, 3.0)[None].repeat(t - 1, 0)
    costs[:, 1, 0] = 2.5
    costs[:, 2, 1] = 2.0
    inst = Instance(
        grid=TimeGrid(t, 10.0),
        city_labels=("d", "p", "q"),
        vehicles=(
            Vehicle(id=1, start_city=1, capacity_lower=(0, 0), capacity_upper=(1, 1)),
        ),
        costs=CostSeries(costs),
        durations=DurationSeries(np.ones((t - 1, n, n), dtype=int)),
        variations=VariationSeries(variations),
        # The delivery stop cannot come first (nothing loaded yet), so
        # closing its first slot only trims the enumeration space.
        windows=WindowSet(frozenset({(1, 2, 3)})),
        model_kind="TS_MCVRP",
        capacity_dims=2,
    )
    params = standard_parameters(inst.costs, 2.0)
    model = build_model(inst, params)
    minima = {
        decode(r.bits, model.catalogue) for r in exhaustive_solve(model).records
    }
    best, plans = enumerate_optimal_routes(inst)
    assert minima == set(plans)
    ((plan),) = minima
    trajectory = [e.capacity for e in plan.events[1]]
    assert trajectory == [(0, 0), (1, 1), (0, 1)]


def test_fingerprints_survive_serialization():
    for case in load_cases():
        params = standard_parameters(case.instance.costs, case.lam)
        direct = build_model(case.instance, params)
        from tsvrp import parse_instance, serialize_instance

        again = parse_instance(serialize_instance(case.instance))
        rebuilt = build_model(again, standard_parameters(again.costs, case.lam))
        assert direct.fingerprint() == rebuilt.fingerprint(), case.name


def test_oracle_single_leg():
    case = two_city_plain()
    best, plans = enumerate_optimal_routes(case.instance)
    assert best == pytest.approx(5.0)
    assert len(plans) == 1


def test_oracle_window_detour():
    # Three cities; the only on-time arrival slot at city 3 is closed, so
    # the oracle must pick the longer timing for the cheapest leg.
    windows = frozenset({(1, 3, 3)})
    costs = np.where(np.eye(3), 0.0, 4.0)[None].repeat(3, axis=0)
    costs[:, 3 - 1, 2 - 1] = 2.0  # the leg that must go overtime stays cheapest
    inst = Instance(
        grid=TimeGrid(4, 10.0),
        city_labels=("a", "b", "c"),
        vehicles=(Vehicle(id=1, start_city=1),),
        costs=CostSeries(costs),
        durations=DurationSeries(np.ones((3, 3, 3), dtype=int)),
        variations=None,
        windows=WindowSet(windows),
        model_kind="TS_VRP",
        capacity_dims=0,
    )
    best, plans = enumerate_optimal_routes(inst)
    assert best == pytest.approx(6.0)  # 1->2 (4.0) then the delayed 2->3 (2.0)
    detours = [
        (dt, fc, at, tc)
        for plan in plans
        for (_, dt, fc, at, tc) in plan.travel_legs()
        if at - dt > inst.duration(dt, tc, fc)
    ]
    assert detours
    for dt, fc, at, tc in detours:
        assert inst.windows.forbids(1, dt + inst.duration(dt, tc, fc), tc)


def test_oracle_infeasible_instance():
    inst = Instance(
        grid=TimeGrid(2, 10.0),
        city_labels=("a", "b"),
        vehicles=(Vehicle(id=1, start_city=1),),
        costs=CostSeries(np.where(np.eye(2), 0.0, 4.0)[None]),
        durations=DurationSeries(np.ones((1, 2, 2), dtype=int)),
        variations=None,
        windows=WindowSet(frozenset({(1, 2, 2), (1, 1, 2)})),
        model_kind="TS_VRP",
        capacity_dims=0,
    )
    best, plans = enumerate_optimal_routes(inst)
    assert best is None and plans == ()


def test_oracle_cap():
    case = three_city_dense()
    with pytest.raises(SearchCapExceeded):
        enumerate_optimal_routes(case.instance, max_nodes=2)


def test_oracle_strict_mode_drops_window_detours():
    inst = Instance(
        grid=TimeGrid(3, 10.0),
        city_labels=("a", "b"),
        vehicles=(Vehicle(id=1, start_city=1),),
        costs=CostSeries(np.where(np.eye(2), 0.0, 4.0)[None].repeat(2, axis=0)),
        durations=DurationSeries(np.ones((2, 2, 2), dtype=int)),
        variations=None,
        windows=WindowSet(frozenset({(1, 2, 2)})),
        model_kind="TS_VRP",
        capacity_dims=0,
    )
    best, plans = enumerate_optimal_routes(inst, mode=MODE_STRICT)
    assert best is None and plans == ()


# -- stats -----------------------------------------------------------------------


def make_sample_set(records):
    return SampleSet(records=tuple(records))


def test_stats_single_feasible_record():
    case = two_city_plain()
    params = standard_parameters(case.instance.costs, case.lam)
    model = build_model(case.instance, params)
    result = exhaustive_solve(model)
    report = stats(result, model.catalogue, case.instance)
    assert report.feasible_rate == pytest.approx(1.0)
    assert report.best_feasible_cost == pytest.approx(5.0)


def test_stats_decode_failure_counts_as_infeasible():
    case = three_city_dense()
    params = standard_parameters(case.instance.costs, case.lam)
    model = build_model(case.instance, params)
    cat = model.catalogue
    bits = np.zeros(cat.n_free, dtype=int)
    bits[cat.index_of(VariableKey(1, 2, 2, (), PLAIN))] = 1
    bits[cat.index_of(VariableKey(1, 2, 3, (), PLAIN))] = 1
    record = SampleRecord(tuple(bits), model.energy(bits), 1)
    report = stats(make_sample_set([record]), cat, case.instance)
    assert report.feasible_rate == pytest.approx(0.0)
    assert report.best_feasible_cost is None


def test_stats_mixed_multiplicities():
    case = two_city_plain()
    params = standard_parameters(case.instance.costs, case.lam)
    model = build_model(case.instance, params)
    cat = model.catalogue
    good_bits = np.zeros(cat.n_free, dtype=int)
    good_bits[cat.index_of(VariableKey(1, 2, 2, (), PLAIN))] = 1
    bad_bits = np.zeros(cat.n_free, dtype=int)  # start only: customer unvisited
    good = SampleRecord(tuple(good_bits), model.energy(good_bits), 3)
    bad = SampleRecord(tuple(bad_bits), model.energy(bad_bits), 1)
    report = stats(make_sample_set([good, bad]), cat, case.instance)
    assert report.total_samples == 4
    assert report.feasible_rate == pytest.approx(0.75)
    reordered = stats(make_sample_set([bad, good]), cat, case.instance)
    assert reordered.feasible_rate == pytest.approx(report.feasible_rate)


def test_stats_csv_shape():
    case = two_city_plain()
    params = standard_parameters(case.instance.costs, case.lam)
    model = build_model(case.instance, params)
    report = stats(exhaustive_solve(model), model.catalogue, case.instance)
    lines = report.to_csv().strip().splitlines()
    assert lines[0] == "energy,feasible,cost,multiplicity"
    assert len(lines) == 1 + len(report.rows)


# -- feasibility/penalty equivalence ----------------------------------------------


@pytest.mark.parametrize("factory", [three_city_dense, mc_pickup_chain, svrp_three_city])
def test_hard_violations_match_penalty_contributions(factory):
    # Over the full assignment space: a decode is free of hard violations
    # exactly when its energy equals the pure sum of its cost rewards.
    case = factory()
    inst = case.instance
    params = standard_parameters(inst.costs, case.lam)
    model = build_model(inst, params)
    reward = {}
    for r in model.records:
        if r.family in COST_FAMILIES:
            if FIXED_ZERO in (model.catalogue.slot(r.key_a), model.catalogue.slot(r.key_b)):
                continue
            reward[(r.key_a, r.key_b)] = r.coefficient
    n = model.n_vars
    for value in range(1 << n):
        bits = [(value >> i) & 1 for i in range(n)]
        plan, report = evaluate_bits(bits, model.catalogue, inst)
        chosen = {
            key
            for key, fixed_value in model.catalogue.fixed.items()
            if fixed_value == 1
        } | {model.catalogue.free_keys[i] for i in range(n) if bits[i]}
        pure = sum(
            c for (ka, kb), c in reward.items() if ka in chosen and kb in chosen
        )
        penalty_free = abs(model.energy(bits) - pure) <= 1e-9
        hard_free = plan is not None and not report.hard
        assert penalty_free == hard_free, (case.name, bits)


# -- one timing-check path against the per-state checkers it replaced ----------
#
# ``_reference_vehicle_checks`` is the earlier per-vehicle checker: it ran
# ``_reference_plain_checks`` on single-state models and
# ``_reference_stateful_checks`` on two-state ones, and counted revisits
# per city or per arrival/departure bucket.  The merged checker must give
# every plan the same verdict and the same (kind, hard) sequence, except
# that a single-state plan with two events in one interval no longer gets
# a gap-0 EARLY_ARRIVAL on top of its MULTI_CITY_SAME_TIME.


def _reference_vehicle_checks(events, vehicle, inst: Instance, mode: str) -> list[Violation]:
    issues: list[Violation] = []
    i = vehicle.id
    t = inst.horizon
    start_state = DEPARTURE if inst.stateful else PLAIN

    for e in events:
        if inst.windows.forbids(i, e.tau, e.city):
            issues.append(
                Violation("WINDOW", f"vehicle {i} occupies forbidden slot ({e.tau}, {e.city})", True)
            )
        if not all(
            l <= x <= h for x, l, h in zip(e.capacity, vehicle.capacity_lower, vehicle.capacity_upper)
        ):
            issues.append(
                Violation("CAPACITY_BOUNDS", f"vehicle {i} carries {e.capacity} at interval {e.tau}", True)
            )
        if not 1 <= e.tau <= t:
            issues.append(Violation("WINDOW", f"vehicle {i} event at interval {e.tau} is off the grid", True))

    expected_start = Event(1, vehicle.start_city, start_state, tuple(vehicle.start_capacity))
    if not events or events[0] != expected_start:
        issues.append(
            Violation(
                "START",
                f"vehicle {i} must open with {expected_start}, found "
                f"{events[0] if events else 'no events'}",
                True,
            )
        )
        return issues  # later checks assume an anchored timeline

    seen: dict[int, int] = {}
    for idx, e in enumerate(events):
        if idx > 0 and e.tau == events[idx - 1].tau:
            issues.append(
                Violation("MULTI_CITY_SAME_TIME", f"vehicle {i}: two events in interval {e.tau}", True)
            )
    if inst.stateful:
        issues.extend(_reference_stateful_checks(events, vehicle, inst, mode))
    else:
        issues.extend(_reference_plain_checks(events, vehicle, inst, mode))

    # Revisits: one visit per city, where a visit is an event (plain
    # models) or an arrival (two-state models, whose stays legitimately
    # touch a city twice).  A two-state tour may close by arriving back
    # at its own start as the final event.
    if inst.stateful:
        closing_ok = vehicle.end_city in (None, vehicle.start_city)
        arrivals: dict[int, int] = {}
        departures: dict[int, int] = {}
        for idx, e in enumerate(events):
            bucket = arrivals if e.state == ARRIVAL else departures
            bucket[e.city] = bucket.get(e.city, 0) + 1
            if (
                e.state == ARRIVAL
                and e.city == vehicle.start_city
                and not (closing_ok and idx == len(events) - 1)
            ):
                # No penalty pair prices this shape (the start slot holds a
                # departure, and unlike-state pairs at one city belong to
                # the stay machinery), so it is discouraged, not priced.
                issues.append(
                    Violation("REVISIT", f"vehicle {i} returns to its start city {e.city} mid-route", False)
                )
        for bucket in (arrivals, departures):
            for city, count in bucket.items():
                if count > 1:
                    issues.append(Violation("REVISIT", f"vehicle {i} visits city {city} {count} times", True))
    else:
        for e in events:
            seen[e.city] = seen.get(e.city, 0) + 1
        for city, count in seen.items():
            if count > 1:
                issues.append(Violation("REVISIT", f"vehicle {i} visits city {city} {count} times", True))

    if vehicle.end_city is not None:
        end = vehicle.end_city
        last = events[-1]
        ends_ok = last.city == end and (
            not inst.stateful or last.state == ARRIVAL or len(events) == 1 and end == vehicle.start_city
        )
        if not ends_ok:
            issues.append(
                Violation("END", f"vehicle {i} ends at {last.city}/{last.state}, wants {end}", False)
            )
        # Activity after reaching the destination: in plain models every
        # later slot is explicitly locked out (hard); in two-state models
        # the departure slot itself is pinned to zero and anything beyond
        # an arrival is merely unreachable under tight horizons (soft).
        for idx, e in enumerate(events):
            if e.city != end:
                continue
            if inst.stateful and e.state == DEPARTURE:
                if e.tau >= 2:
                    issues.append(
                        Violation("END", f"vehicle {i} departs its destination {end} at {e.tau}", True)
                    )
                continue
            for later in events[idx + 1 :]:
                issues.append(
                    Violation(
                        "END",
                        f"vehicle {i} is active at ({later.tau}, {later.city}) after "
                        f"reaching its destination {end}",
                        not inst.stateful,
                    )
                )
            break
    return issues


def _reference_window_blocks(inst: Instance, vehicle_id: int, tau: int, city: int) -> bool:
    return tau > inst.horizon or inst.windows.forbids(vehicle_id, tau, city)


def _reference_plain_checks(events, vehicle, inst: Instance, mode: str) -> list[Violation]:
    issues: list[Violation] = []
    i = vehicle.id
    # The hard rules are pairwise, mirroring the penalty structure: being
    # at b in interval tau forbids being anywhere else before the nominal
    # travel time has elapsed, and at exactly the nominal gap the
    # capacity status must follow the leg's variation vector.
    for x in range(len(events)):
        for y in range(x + 1, len(events)):
            ev_b, ev_a = events[x], events[y]
            if ev_a.city == ev_b.city:
                continue
            if ev_b.tau > inst.horizon - 1:
                continue
            nominal = inst.duration(ev_b.tau, ev_a.city, ev_b.city)
            gap = ev_a.tau - ev_b.tau
            if gap < nominal:
                issues.append(
                    Violation(
                        "EARLY_ARRIVAL",
                        f"vehicle {i} reaches {ev_a.city} at {ev_a.tau} only {gap} after leaving "
                        f"{ev_b.city} at {ev_b.tau} (needs {nominal})",
                        True,
                    )
                )
            elif gap == nominal:
                expected = tuple(
                    c + d
                    for c, d in zip(
                        ev_b.capacity, inst.variation(ev_b.tau, ev_a.city, ev_b.city)
                    )
                )
                if ev_a.capacity != expected:
                    issues.append(
                        Violation(
                            "CAPACITY_TRANSITION",
                            f"vehicle {i} leg {ev_b.city}->{ev_a.city} at {ev_b.tau}: capacity "
                            f"{ev_b.capacity}->{ev_a.capacity}, expected {expected}",
                            True,
                        )
                    )
    # Consecutive legs longer than nominal carry no penalty pair; they are
    # acceptable only under window pressure, and their capacity handover,
    # while physically required, is not energy-priced.
    for prev, nxt in zip(events, events[1:]):
        if prev.city == nxt.city:
            continue  # flagged as REVISIT elsewhere
        if prev.tau > inst.horizon - 1:
            continue
        nominal = inst.duration(prev.tau, nxt.city, prev.city)
        gap = nxt.tau - prev.tau
        if gap > nominal:
            forced = _reference_window_blocks(inst, i, prev.tau + nominal, nxt.city)
            if mode == MODE_STRICT or not forced:
                issues.append(
                    Violation(
                        "LATE_ARRIVAL",
                        f"vehicle {i} takes {gap} intervals from {prev.city} to {nxt.city} "
                        f"(nominal {nominal}, departing {prev.tau})",
                        False,
                    )
                )
            expected = tuple(
                c + d
                for c, d in zip(prev.capacity, inst.variation(prev.tau, nxt.city, prev.city))
            )
            if nxt.capacity != expected:
                issues.append(
                    Violation(
                        "CAPACITY_TRANSITION",
                        f"vehicle {i} overtime leg {prev.city}->{nxt.city}: capacity "
                        f"{prev.capacity}->{nxt.capacity}, expected {expected}",
                        False,
                    )
                )
    return issues


def _reference_stateful_checks(events, vehicle, inst: Instance, mode: str) -> list[Violation]:
    issues: list[Violation] = []
    i = vehicle.id
    horizon = inst.horizon

    # Hard layer: pairwise rules mirroring the penalty families.  Travel
    # pins every later event; stays pin departures from the same city;
    # fresh arrivals block further arrivals for their service span.
    deps = [e for e in events if e.state == DEPARTURE]
    arrs = [e for e in events if e.state == ARRIVAL]
    for d in deps:
        if d.tau > horizon - 1:
            continue
        for a in arrs:
            if a.city == d.city or a.tau <= d.tau:
                continue
            nominal = inst.duration(d.tau, a.city, d.city)
            gap = a.tau - d.tau
            if gap < nominal:
                issues.append(
                    Violation(
                        "EARLY_ARRIVAL",
                        f"vehicle {i} reaches {a.city} at {a.tau} only {gap} after "
                        f"departing {d.city} at {d.tau} (needs {nominal})",
                        True,
                    )
                )
            elif gap == nominal:
                expected = tuple(
                    c + dd
                    for c, dd in zip(d.capacity, inst.variation(d.tau, a.city, d.city))
                )
                if a.capacity != expected:
                    issues.append(
                        Violation(
                            "CAPACITY_TRANSITION",
                            f"vehicle {i} leg {d.city}->{a.city} at {d.tau}: capacity "
                            f"{d.capacity}->{a.capacity}, expected {expected}",
                            True,
                        )
                    )
        for d2 in deps:
            if d2.city == d.city or d2.tau <= d.tau:
                continue
            if d2.tau - d.tau <= inst.duration(d.tau, d2.city, d.city):
                issues.append(
                    Violation(
                        "STATE_TRANSITION",
                        f"vehicle {i} departs {d2.city} at {d2.tau} while still in "
                        f"transit out of {d.city} (departed {d.tau})",
                        True,
                    )
                )
    for a in arrs:
        if a.tau > horizon - 1:
            continue
        hold = inst.stay(a.tau, a.city)
        for a2 in arrs:
            if a2.city == a.city or a2.tau <= a.tau:
                continue
            if a2.tau - a.tau <= hold:
                issues.append(
                    Violation(
                        "STATE_TRANSITION",
                        f"vehicle {i} arrives at {a2.city} at {a2.tau} while still being "
                        f"served at {a.city} (arrived {a.tau})",
                        True,
                    )
                )
        for d in deps:
            if d.city != a.city or d.tau <= a.tau:
                continue
            gap = d.tau - a.tau
            if gap < hold:
                issues.append(
                    Violation(
                        "STAY_DURATION",
                        f"vehicle {i} leaves {a.city} after {gap} intervals (needs {hold})",
                        True,
                    )
                )
            elif gap == hold and d.capacity != a.capacity:
                issues.append(
                    Violation(
                        "CAPACITY_TRANSITION",
                        f"vehicle {i} stay at {a.city} changes capacity "
                        f"{a.capacity}->{d.capacity}",
                        True,
                    )
                )

    # Soft layer: timeline shapes the energy merely discourages.
    for prev, nxt in zip(events, events[1:]):
        if prev.state == nxt.state:
            if prev.city != nxt.city:
                hard_pair = False  # the in-window cases were flagged above
                issues.append(
                    Violation(
                        "STATE_TRANSITION",
                        f"vehicle {i}: consecutive {prev.state} events at intervals "
                        f"{prev.tau}, {nxt.tau}",
                        hard_pair,
                    )
                )
            continue
        if prev.state == DEPARTURE:
            if prev.city == nxt.city:
                issues.append(
                    Violation(
                        "STATE_TRANSITION",
                        f"vehicle {i} departs and re-arrives at city {prev.city} without traveling",
                        False,
                    )
                )
                continue
            if prev.tau > horizon - 1:
                continue
            nominal = inst.duration(prev.tau, nxt.city, prev.city)
            gap = nxt.tau - prev.tau
            if gap > nominal:
                forced = _reference_window_blocks(inst, i, prev.tau + nominal, nxt.city)
                if mode == MODE_STRICT or not forced:
                    issues.append(
                        Violation(
                            "LATE_ARRIVAL",
                            f"vehicle {i} travels {prev.city}->{nxt.city} in {gap} intervals "
                            f"(nominal {nominal}, departing {prev.tau})",
                            False,
                        )
                    )
                if nxt.capacity != tuple(
                    c + dd
                    for c, dd in zip(prev.capacity, inst.variation(prev.tau, nxt.city, prev.city))
                ):
                    issues.append(
                        Violation(
                            "CAPACITY_TRANSITION",
                            f"vehicle {i} overtime leg {prev.city}->{nxt.city} changes "
                            f"capacity inconsistently",
                            False,
                        )
                    )
        else:
            if prev.city != nxt.city:
                issues.append(
                    Violation(
                        "STATE_TRANSITION",
                        f"vehicle {i} arrives at {prev.city} but departs from {nxt.city}",
                        False,
                    )
                )
                continue
            if prev.tau > horizon - 1:
                continue
            hold = inst.stay(prev.tau, prev.city)
            gap = nxt.tau - prev.tau
            if gap > hold:
                forced = _reference_window_blocks(inst, i, prev.tau + hold, prev.city)
                if mode == MODE_STRICT or not forced:
                    issues.append(
                        Violation(
                            "LATE_DEPARTURE",
                            f"vehicle {i} overstays at {prev.city}: {gap} intervals (nominal {hold})",
                            False,
                        )
                    )
                if nxt.capacity != prev.capacity:
                    issues.append(
                        Violation(
                            "CAPACITY_TRANSITION",
                            f"vehicle {i} overtime stay at {prev.city} changes capacity",
                            False,
                        )
                    )
    return issues


def _reference_report(plan, inst, mode):
    issues = []
    for vehicle in inst.vehicles:
        issues.extend(_reference_vehicle_checks(plan.events.get(vehicle.id, ()), vehicle, inst, mode))
    return issues + _fleet_checks(plan, inst)


def _is_gap_zero_early_arrival(v):
    return v.kind == "EARLY_ARRIVAL" and " only 0 after " in v.detail


def _assert_same_verdicts(plans, inst):
    """Compare every plan in both modes; return how many hit the exception."""
    exceptions = 0
    for plan in plans:
        for mode in (MODE_STRICT, MODE_WINDOW_TOLERANT):
            merged = check_feasibility(plan, inst, mode=mode).violations
            old = _reference_report(plan, inst, mode)
            assert (not merged) == (not old), (plan, mode)
            kept = [v for v in old if not _is_gap_zero_early_arrival(v)]
            if len(kept) < len(old):
                exceptions += 1
                assert not inst.stateful
                assert any(v.kind == "MULTI_CITY_SAME_TIME" for v in merged)
            assert [(v.kind, v.hard) for v in merged] == [(v.kind, v.hard) for v in kept], (plan, mode)
    return exceptions


def _cells(catalogue):
    cells = {}
    for idx, key in enumerate(catalogue.free_keys):
        cells.setdefault((key.vehicle, key.tau), []).append(idx)
    return list(cells.values())


def _plan_of(catalogue, chosen):
    bits = np.zeros(catalogue.n_free, dtype=int)
    bits[[idx for idx in chosen if idx is not None]] = 1
    return decode(bits, catalogue)


def _every_decodable_plan(catalogue):
    """At most one set key per (vehicle, interval) cell: every string that decodes."""
    for chosen in itertools.product(*([None, *cell] for cell in _cells(catalogue))):
        yield _plan_of(catalogue, chosen)


def _random_decodable_plans(catalogue, rng, count):
    cells = _cells(catalogue)
    for _ in range(count):
        chosen = [cell[rng.integers(len(cell))] if rng.random() < 0.5 else None for cell in cells]
        yield _plan_of(catalogue, chosen)


def _hand_written_plans(inst, rng, count):
    """Random walks with off-grid, repeated-interval, wrong-state and out-of-box events."""
    own = (ARRIVAL, DEPARTURE) if inst.stateful else (PLAIN,)
    for _ in range(count):
        events = {}
        for v in inst.vehicles:
            box = capacity_box(v.capacity_lower, v.capacity_upper)
            start = Event(1, v.start_city, DEPARTURE if inst.stateful else PLAIN, tuple(v.start_capacity))
            evts = [start] if rng.random() < 0.95 else []
            tau, city = 1, v.start_city
            for k in range(int(rng.integers(0, inst.horizon + 2))):
                tau += int(rng.choice([0, 1, 1, 1, 2]))  # 0 repeats an interval; the walk may leave the grid
                state = own[k % len(own)] if rng.random() < 0.8 else STATES[rng.integers(len(STATES))]
                if state != DEPARTURE or rng.random() < 0.3:
                    city = int(rng.integers(1, inst.n_cities + 1))
                capacity = box[rng.integers(len(box))]
                if capacity and rng.random() < 0.2:
                    capacity = tuple(c + int(rng.choice([-2, 2])) for c in capacity)
                evts.append(Event(tau, city, state, capacity))
            events[v.id] = tuple(evts)
        yield RoutePlan(events=events)


def test_single_state_same_interval_pair_keeps_only_the_clash():
    inst = three_city_dense().instance
    plan = RoutePlan(events={1: (Event(1, 1, PLAIN, ()), Event(2, 2, PLAIN, ()), Event(2, 3, PLAIN, ()))})
    old = [(v.kind, v.hard) for v in _reference_report(plan, inst, MODE_WINDOW_TOLERANT)]
    merged = [(v.kind, v.hard) for v in check_feasibility(plan, inst).violations]
    assert ("EARLY_ARRIVAL", True) in old
    assert ("EARLY_ARRIVAL", True) not in merged
    assert ("MULTI_CITY_SAME_TIME", True) in merged
    assert _assert_same_verdicts([plan], inst) == 2


def test_merged_checks_on_every_decodable_case_plan():
    rng = np.random.default_rng(5)
    exceptions = 0
    for case in load_cases():
        cat = build_catalogue(case.instance)
        exceptions += _assert_same_verdicts(_every_decodable_plan(cat), case.instance)
        exceptions += _assert_same_verdicts(_hand_written_plans(case.instance, rng, 40), case.instance)
    assert exceptions  # the hand-written plans reach the pinned exception


def test_merged_checks_on_the_random_corpus():
    rng = np.random.default_rng(7)
    for seed in range(100):
        inst = random_instance(seed, max_cities=6, max_intervals=6, max_vehicles=2)
        _, plans = enumerate_optimal_routes(inst)
        _assert_same_verdicts(plans, inst)
        _assert_same_verdicts(_random_decodable_plans(build_catalogue(inst), rng, 10), inst)
        _assert_same_verdicts(_hand_written_plans(inst, rng, 20), inst)


def test_merged_checks_on_the_demo_optima():
    inst = delivery_demo_instance()
    _, plans = enumerate_optimal_routes(inst)
    assert plans
    assert _assert_same_verdicts(plans, inst) == 0
