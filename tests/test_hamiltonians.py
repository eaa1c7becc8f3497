import numpy as np
import pytest

from tsvrp import (
    ARRIVAL,
    DEPARTURE,
    PLAIN,
    BuildError,
    CostSeries,
    DurationSeries,
    Instance,
    TimeGrid,
    VariationSeries,
    Vehicle,
    WindowSet,
    build_catalogue,
    build_model,
    parse_instance,
    serialize_instance,
    standard_parameters,
)
from tsvrp.hamiltonians import COST_FAMILIES, PENALTY_FAMILIES
from tsvrp.qubo import VariableKey

from cases import load_cases, mcsvrp_two_city, three_city_dense, two_city_plain


def plain_instance(t, n, costs, durations=None, vehicles=None, windows=()):
    return Instance(
        grid=TimeGrid(t, 10.0),
        city_labels=tuple(f"c{i}" for i in range(1, n + 1)),
        vehicles=tuple(vehicles or [Vehicle(id=1, start_city=1)]),
        costs=CostSeries(costs),
        durations=DurationSeries(durations if durations is not None else np.ones((t - 1, n, n), dtype=int)),
        variations=None,
        windows=WindowSet(frozenset(windows)),
        model_kind="TS_VRP",
        capacity_dims=0,
    )


# -- parameter policy ---------------------------------------------------------


def test_standard_parameters_formula():
    costs = CostSeries(np.array([[[0.0, 4.0], [10.0, 0.0]]]))
    params = standard_parameters(costs, 2.0)
    assert params.mu == pytest.approx(10.0)
    assert params.rho == pytest.approx(3.0)
    assert params.cost_coefficient(4.0) == pytest.approx(-2.0)  # equals -lam
    assert params.cost_coefficient(10.0) == pytest.approx(0.0)


def test_standard_parameters_rejects_bad_lambda():
    costs = CostSeries(np.array([[[0.0, 4.0], [10.0, 0.0]]]))
    with pytest.raises(BuildError):
        standard_parameters(costs, 0.0)
    with pytest.raises(BuildError):
        standard_parameters(costs, -1.0)


def test_standard_parameters_flat_costs():
    costs = CostSeries(np.full((1, 2, 2), 7.0) * (1 - np.eye(2)))
    params = standard_parameters(costs, 1.0)
    assert params.uniform_cost
    assert params.rho == pytest.approx(1.0)
    assert params.cost_coefficient(7.0) == pytest.approx(-1.0)


def test_flat_costs_build_prices_every_move_at_minus_lambda():
    inst = plain_instance(3, 3, np.where(np.eye(3), 0.0, 7.0)[None].repeat(2, axis=0))
    params = standard_parameters(inst.costs, 1.0)
    model = build_model(inst, params)
    cost_records = [r for r in model.records if r.family in COST_FAMILIES]
    assert cost_records
    assert all(r.coefficient == pytest.approx(-1.0) for r in cost_records)


def test_delta_widens_the_band():
    costs = CostSeries(np.array([[[0.0, 4.0], [10.0, 0.0]]]))
    params = standard_parameters(costs, 2.0, delta=1.0)
    assert params.cost_coefficient(4.0) == pytest.approx(-3.0)  # -(lam + delta)
    assert params.cost_coefficient(10.0) == pytest.approx(0.0)


# -- single-state builder -------------------------------------------------------


def test_minimal_model_hand_expansion():
    # One vehicle, two cities, two intervals, flat costs: the only free
    # reward is the folded travel term on the second-city slot.
    inst = plain_instance(2, 2, np.where(np.eye(2), 0.0, 5.0)[None])
    params = standard_parameters(inst.costs, 1.0)
    model = build_model(inst, params)
    cat = model.catalogue
    idx_city1 = cat.index_of(VariableKey(1, 2, 1, PLAIN, ()))
    idx_city2 = cat.index_of(VariableKey(1, 2, 2, PLAIN, ()))
    assert model.linear == pytest.approx({idx_city2: -1.0, idx_city1: 1.0})
    assert model.quadratic == pytest.approx({(idx_city1, idx_city2): 1.0})
    assert model.constant == pytest.approx(0.0)


@pytest.mark.parametrize("k", [1, 2])
def test_same_interval_pair_count(k):
    t, n = 4, 3
    vehicles = [Vehicle(id=i, start_city=1) for i in range(1, k + 1)]
    inst = plain_instance(
        t, n, np.where(np.eye(n), 0.0, 2.0)[None].repeat(t - 1, axis=0), vehicles=vehicles
    )
    params = standard_parameters(inst.costs, 1.0)
    model = build_model(inst, params)
    assert model.term_counts["city_clash"] == k * t * n * (n - 1) // 2


def test_early_arrival_pair_count_for_long_leg():
    durations = np.ones((4, 3, 3), dtype=int)
    durations[0, 2 - 1, 1 - 1] = 3  # leg into city 2 from city 1 in interval 1
    costs = np.where(np.eye(3), 0.0, 2.0)[None].repeat(4, axis=0)
    inst = plain_instance(5, 3, costs, durations)
    params = standard_parameters(inst.costs, 1.0)
    model = build_model(inst, params)
    departure = VariableKey(1, 1, 1, PLAIN, ())
    hits = [
        other
        for r in model.records
        if r.family == "early_arrival" and departure in (r.key_a, r.key_b)
        for other in (r.key_a, r.key_b)
        if other != departure and other.city == 2
    ]
    assert {key.tau for key in hits} == {2, 3}


def test_travel_cost_term_count_matches_reachable_legs():
    inst = plain_instance(4, 3, np.where(np.eye(3), 0.0, 2.0)[None].repeat(3, axis=0))
    params = standard_parameters(inst.costs, 1.0)
    model = build_model(inst, params)
    expected = sum(
        1
        for tau in range(1, 4)
        for a in range(1, 4)
        for b in range(1, 4)
        if a != b and tau + inst.duration(tau, a, b) <= 4
    )
    assert model.term_counts["travel_cost"] == expected


def test_end_city_fixes_unreachable_slots_and_locks_departures():
    costs = np.where(np.eye(3), 0.0, 2.0)[None].repeat(3, axis=0)
    durations = np.ones((3, 3, 3), dtype=int)
    durations[:, 3 - 1, 2 - 1] = 2  # city 2 is two intervals from the end city
    inst = plain_instance(4, 3, costs, durations, vehicles=[Vehicle(id=1, start_city=1, end_city=3)])
    params = standard_parameters(inst.costs, 1.0)
    model = build_model(inst, params)
    cat = model.catalogue
    # interval 4 allows only the end city; city 2 dies one interval earlier
    assert cat.fixed[VariableKey(1, 4, 1, PLAIN, ())] == 0
    assert cat.fixed[VariableKey(1, 4, 2, PLAIN, ())] == 0
    assert cat.fixed[VariableKey(1, 3, 2, PLAIN, ())] == 0
    # city 1 at interval 3 still reaches the end (3 + 1 <= 4), so it is free
    assert VariableKey(1, 3, 1, PLAIN, ()) not in cat.fixed
    # end replacement pairs exist: sitting at the destination forbids all
    # later activity elsewhere
    locks = [r for r in model.records if r.family == "end_lock"]
    assert locks
    for r in locks:
        end_side = min((r.key_a, r.key_b), key=lambda k: k.tau)
        other = r.key_a if end_side is r.key_b else r.key_b
        assert end_side.city == 3
        assert other.tau > end_side.tau and other.city != 3


def test_catalogue_from_another_instance_is_refused():
    case = three_city_dense()
    params = standard_parameters(case.instance.costs, case.lam)
    twin = parse_instance(serialize_instance(case.instance))  # equal, but another object
    for other in (two_city_plain().instance, twin):
        with pytest.raises(BuildError, match="different instance"):
            build_model(case.instance, params, catalogue=build_catalogue(other))
    own = build_model(case.instance, params, catalogue=build_catalogue(case.instance))
    assert own.fingerprint() == build_model(case.instance, params).fingerprint()


# -- capacitated builder --------------------------------------------------------


def capacitated_instance(b_value: int, q=0, qq=2, start=None):
    t, n = 3, 2
    variations = np.zeros((t - 1, n, n, 1), dtype=int)
    variations[:, 1 - 1, :, 0] = 0
    variations[:, 2 - 1, :, 0] = b_value
    return Instance(
        grid=TimeGrid(t, 10.0),
        city_labels=("a", "b"),
        vehicles=(
            Vehicle(
                id=1,
                start_city=1,
                capacity_lower=(q,),
                capacity_upper=(qq,),
                start_capacity=(start,) if start is not None else None,
            ),
        ),
        costs=CostSeries(np.where(np.eye(n), 0.0, 3.0)[None].repeat(t - 1, axis=0)),
        durations=DurationSeries(np.ones((t - 1, n, n), dtype=int)),
        variations=VariationSeries(variations),
        windows=WindowSet(),
        model_kind="TS_MCVRP",
        capacity_dims=1,
    )


def test_capacity_shift_targets_correct_status():
    inst = capacitated_instance(b_value=+1, start=1)
    params = standard_parameters(inst.costs, 1.0)
    model = build_model(inst, params)
    costs = [
        r
        for r in model.records
        if r.family == "travel_cost" and r.key_b == VariableKey(1, 1, 1, PLAIN, (1,))
    ]
    assert len(costs) == 1
    assert costs[0].key_a == VariableKey(1, 2, 2, PLAIN, (2,))
    wrong = [
        r
        for r in model.records
        if r.family == "wrong_capacity"
        and VariableKey(1, 1, 1, PLAIN, (1,)) in (r.key_a, r.key_b)
        and {r.key_a.tau, r.key_b.tau} == {1, 2}
    ]
    assert {k.capacity for r in wrong for k in (r.key_a, r.key_b) if k.tau == 2} == {(0,), (1,)}


def test_out_of_bounds_move_has_no_cost_and_full_penalty():
    inst = capacitated_instance(b_value=-1, start=0)
    params = standard_parameters(inst.costs, 1.0)
    model = build_model(inst, params)
    departure = VariableKey(1, 1, 1, PLAIN, (0,))
    costs = [
        r for r in model.records if r.family == "travel_cost" and departure in (r.key_a, r.key_b)
    ]
    assert costs == []
    wrong = [
        r
        for r in model.records
        if r.family == "wrong_capacity" and departure in (r.key_a, r.key_b)
    ]
    arrival_statuses = {
        k.capacity for r in wrong for k in (r.key_a, r.key_b) if k != departure and k.tau == 2
    }
    assert arrival_statuses == {(0,), (1,), (2,)}


def test_multi_dimension_capacity_clash_count():
    t, n = 2, 2
    variations = np.zeros((t - 1, n, n, 2), dtype=int)
    inst = Instance(
        grid=TimeGrid(t, 10.0),
        city_labels=("a", "b"),
        vehicles=(
            Vehicle(id=1, start_city=1, capacity_lower=(0, 0), capacity_upper=(1, 2)),
        ),
        costs=CostSeries(np.where(np.eye(n), 0.0, 3.0)[None]),
        durations=DurationSeries(np.ones((t - 1, n, n), dtype=int)),
        variations=VariationSeries(variations),
        windows=WindowSet(),
        model_kind="TS_MCVRP",
        capacity_dims=2,
    )
    params = standard_parameters(inst.costs, 1.0)
    model = build_model(inst, params)
    # radices 2 x 3 give 6 statuses per cell: C(6, 2) = 15 pairs, per (tau, city)
    assert model.term_counts["capacity_clash"] == 15 * inst.horizon * inst.n_cities


# -- two-state builder -----------------------------------------------------------


def two_state_instance(stay_at_one=1, d_low=4.0, d_high=10.0, t=3):
    n = 2
    costs = np.where(np.eye(n), 0.0, d_low)[None].repeat(t - 1, axis=0)
    costs[:, 1 - 1, 2 - 1] = d_high
    stays = np.ones((t - 1, n), dtype=int)
    stays[:, 0] = stay_at_one
    return Instance(
        grid=TimeGrid(t, 10.0),
        city_labels=("a", "b"),
        vehicles=(Vehicle(id=1, start_city=1),),
        costs=CostSeries(costs),
        durations=DurationSeries(np.ones((t - 1, n, n), dtype=int), stays),
        variations=None,
        windows=WindowSet(),
        model_kind="TS_SVRP",
        capacity_dims=0,
    )


def test_unit_stay_has_cost_and_no_early_departure():
    inst = two_state_instance(stay_at_one=1)
    params = standard_parameters(inst.costs, 2.0)
    model = build_model(inst, params)
    stays = [r for r in model.records if r.family == "stay_cost"]
    assert stays
    assert model.term_counts["early_departure"] == 0


def test_stay_coefficient_value():
    # d_max=10, d_min=4, lam=2: a stay is worth (0 - 10) / 3 = -10/3
    inst = two_state_instance()
    params = standard_parameters(inst.costs, 2.0)
    assert params.mu == pytest.approx(10.0) and params.rho == pytest.approx(3.0)
    model = build_model(inst, params)
    stays = [r for r in model.records if r.family == "stay_cost"]
    assert stays
    assert all(r.coefficient == pytest.approx(-10.0 / 3.0) for r in stays)


def test_same_cell_state_clash_always_present():
    inst = two_state_instance()
    params = standard_parameters(inst.costs, 2.0)
    model = build_model(inst, params)
    assert model.term_counts["state_clash"] == inst.horizon * inst.n_cities
    pairs = [
        (r.key_a, r.key_b) for r in model.records if r.family == "state_clash"
    ]
    assert all(
        a.tau == b.tau and a.city == b.city and {a.state, b.state} == {ARRIVAL, DEPARTURE}
        for a, b in pairs
    )


def test_exclusion_block_is_hat_toggle_invariant():
    inst = two_state_instance(t=4)
    params = standard_parameters(inst.costs, 2.0)
    model = build_model(inst, params)
    exclusion_families = {
        "state_clash",
        "city_clash",
        "revisit_clash",
        "cross_vehicle_clash",
        "simultaneous_clash",
        "capacity_clash",
    }
    pairs = {
        frozenset((r.key_a, r.key_b))
        for r in model.records
        if r.family in exclusion_families
    }
    swap = {ARRIVAL: DEPARTURE, DEPARTURE: ARRIVAL}
    toggled = {frozenset(k._replace(state=swap[k.state]) for k in pair) for pair in pairs}
    assert toggled == pairs


def test_mcsvrp_stay_preserves_capacity():
    case = mcsvrp_two_city()
    params = standard_parameters(case.instance.costs, case.lam)
    model = build_model(case.instance, params)
    # a stay handing the load over with a different status is penalized
    stay_mismatches = [
        r
        for r in model.records
        if r.family == "wrong_capacity"
        and r.key_a.city == r.key_b.city
        and {r.key_a.state, r.key_b.state} == {ARRIVAL, DEPARTURE}
    ]
    assert stay_mismatches
    assert all(r.key_a.capacity != r.key_b.capacity for r in stay_mismatches)
    # stays with matching status carry the stay reward instead
    stay_costs = [r for r in model.records if r.family == "stay_cost"]
    assert stay_costs
    assert all(r.key_a.capacity == r.key_b.capacity for r in stay_costs)


def test_two_interval_stay_emits_one_early_departure_pair():
    inst = two_state_instance(t=4)
    stays = np.ones((3, 2), dtype=int)
    stays[:, 1 - 1] = 2  # serving city 1 takes two intervals
    from tsvrp import DurationSeries, Instance

    slow = Instance(
        grid=inst.grid,
        city_labels=inst.city_labels,
        vehicles=inst.vehicles,
        costs=inst.costs,
        durations=DurationSeries(inst.durations.travel, stays),
        variations=None,
        windows=inst.windows,
        model_kind=inst.model_kind,
        capacity_dims=0,
    )
    params = standard_parameters(slow.costs, 2.0)
    model = build_model(slow, params)
    # For each arrival slot at city 1 one interval before the nominal
    # departure there is exactly one early-departure pair.
    per_anchor = {}
    for r in model.records:
        if r.family != "early_departure":
            continue
        anchor = min((r.key_a, r.key_b), key=lambda k: k.tau)
        assert anchor.city == 1
        per_anchor[anchor.tau] = per_anchor.get(anchor.tau, 0) + 1
    assert per_anchor and all(count == 1 for count in per_anchor.values())


def test_mcsvrp_ground_state_keeps_status_constant_across_stays():
    case = mcsvrp_two_city()
    params = standard_parameters(case.instance.costs, case.lam)
    model = build_model(case.instance, params)
    from tsvrp import exhaustive_solve
    from tsvrp.decoder import evaluate_bits

    for record in exhaustive_solve(model).records:
        plan, report = evaluate_bits(record.bits, model.catalogue, case.instance)
        assert report.feasible
        spans = plan.stay_spans()
        assert spans
        for (i, city, arrive_tau, depart_tau) in spans:
            events = {e.tau: e for e in plan.events[i]}
            assert events[arrive_tau].capacity == events[depart_tau].capacity


def test_mcsvrp_zero_variation_travel_keeps_status():
    t, n = 3, 2
    inst = Instance(
        grid=TimeGrid(t, 10.0),
        city_labels=("a", "b"),
        vehicles=(Vehicle(id=1, start_city=1, capacity_lower=(0,), capacity_upper=(1,)),),
        costs=CostSeries(np.where(np.eye(n), 0.0, 3.0)[None].repeat(t - 1, axis=0)),
        durations=DurationSeries(
            np.ones((t - 1, n, n), dtype=int), np.ones((t - 1, n), dtype=int)
        ),
        variations=VariationSeries(np.zeros((t - 1, n, n, 1), dtype=int)),
        windows=WindowSet(),
        model_kind="TS_MCSVRP",
        capacity_dims=1,
    )
    params = standard_parameters(inst.costs, 1.0)
    model = build_model(inst, params)
    travels = [r for r in model.records if r.family == "travel_cost"]
    assert travels
    assert all(r.key_a.capacity == r.key_b.capacity for r in travels)


# -- cross-cutting coefficient properties ---------------------------------------


def test_every_penalty_is_exactly_lambda_on_case_suite():
    for case in load_cases():
        params = standard_parameters(case.instance.costs, case.lam)
        model = build_model(case.instance, params)
        for record in model.records:
            if record.family in PENALTY_FAMILIES:
                assert record.coefficient == pytest.approx(case.lam, abs=1e-12), case.name


def test_travel_costs_lie_in_the_band_on_case_suite():
    for case in load_cases():
        params = standard_parameters(case.instance.costs, case.lam)
        model = build_model(case.instance, params)
        for record in model.records:
            if record.family == "travel_cost":
                assert -case.lam - 1e-12 <= record.coefficient <= 1e-12, case.name


def test_baseline_condition_boundary():
    # With delta=0 every travel coefficient is >= -lam, and exactly the
    # cheapest legs sit on the -lam boundary.
    lam = 2.0
    entries = {
        (2, 1): 1.5, (3, 1): 4.0, (1, 2): 5.0,
        (3, 2): 2.5, (1, 3): 4.5, (2, 3): 3.0,
    }
    inst = plain_instance(3, 3, _case_costs(3, 3, entries))
    params = standard_parameters(inst.costs, lam)
    boundary = 0
    for record in build_model(inst, params).records:
        if record.family != "travel_cost":
            continue
        assert record.coefficient >= -lam - 1e-12
        if record.coefficient == pytest.approx(-lam, abs=1e-12):
            boundary += 1
            # -lam is reserved for the unique cheapest leg, into city 2 from 1
            assert {record.key_a.city, record.key_b.city} == {1, 2}
    # that leg is emitted once per departure interval that fits the horizon
    assert boundary == 2


def _case_costs(t, n, entries):
    arr = np.zeros((t - 1, n, n))
    for (a, b), value in entries.items():
        arr[:, a - 1, b - 1] = value
    return arr
