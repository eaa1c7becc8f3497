import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tsvrp import (
    CostSeries,
    DurationSeries,
    Instance,
    InstanceError,
    TimeGrid,
    VariationSeries,
    Vehicle,
    WindowSet,
    apply_priority,
    build_model,
    discretize_durations,
    enumerate_optimal_routes,
    parse_instance,
    serialize_instance,
    standard_parameters,
    validate_instance,
)
from tsvrp.demo import DEMO_LAMBDA, delivery_demo_instance
from tsvrp.instance import (
    CAPACITATED_KINDS,
    STATEFUL_KINDS,
    capacity_box,
    instance_from_document,
    instance_to_document,
)

from cases import Case, load_cases
from strategies import KINDS, random_instance


def minimal_document(**overrides):
    doc = {
        "index_base": 1,
        "model_kind": "TS_VRP",
        "capacity_dims": 0,
        "grid": {"T": 2, "unit_minutes": 20.0},
        "cities": ["a", "b"],
        "vehicles": [{"start": 1, "q": [], "Q": []}],
        "costs": [[[0.0, 5.0], [7.0, 0.0]]],
        "raw_minutes": [[[0.0, 25.0], [25.0, 0.0]]],
        "windows": [],
    }
    doc.update(overrides)
    return doc


def test_parse_minimal_instance():
    inst = parse_instance(json.dumps(minimal_document()))
    assert inst.n_cities == 2
    assert inst.n_vehicles == 1
    assert inst.horizon == 2
    assert inst.duration(1, 1, 2) == 2  # 25 minutes over a 20-minute grid


def test_depot_and_customer_cities_are_computed_once():
    inst = parse_instance(json.dumps(minimal_document()))
    assert inst.depot_cities == frozenset({1}) and inst.customer_cities == (2,)
    assert inst.depot_cities is inst.depot_cities
    assert inst.customer_cities is inst.customer_cities


def test_parse_rejects_zero_duration():
    doc = minimal_document(raw_minutes=[[[0.0, 0.0], [25.0, 0.0]]])
    with pytest.raises(InstanceError, match="duration must be ≥ 1"):
        parse_instance(json.dumps(doc))


def test_parse_requires_variations_for_capacitated_kind():
    doc = minimal_document(model_kind="TS_MCVRP", capacity_dims=1)
    doc["vehicles"] = [{"start": 1, "q": [0], "Q": [1]}]
    with pytest.raises(InstanceError, match="variations"):
        parse_instance(json.dumps(doc))


def test_parse_requires_index_base():
    doc = minimal_document()
    del doc["index_base"]
    with pytest.raises(InstanceError, match="index_base"):
        parse_instance(json.dumps(doc))


def test_parse_rejects_missing_matrix_entry():
    doc = minimal_document(costs=[[[0.0, None], [7.0, 0.0]]])
    with pytest.raises(InstanceError, match="missing entry"):
        parse_instance(json.dumps(doc))


def _with_diagonals(doc: dict, value) -> dict:
    """The document with ``value`` at every city-diagonal entry of the
    per-interval city matrices."""
    doc = json.loads(json.dumps(doc))
    for key in ("costs", "raw_minutes", "variations"):
        for layer in doc.get(key, []):
            for a, row in enumerate(layer):
                row[a] = [value] * len(row[a]) if key == "variations" else value
    return doc


def test_null_on_the_city_diagonal_reads_as_zero():
    # The corpus holds every kind, capacitated ones with non-zero diagonal
    # variations among them; the model never reads a diagonal entry.
    for case in [*load_cases(), Case("demo", delivery_demo_instance(), DEMO_LAMBDA)]:
        doc = instance_to_document(case.instance)
        zero = parse_instance(json.dumps(_with_diagonals(doc, 0)))
        null = parse_instance(json.dumps(_with_diagonals(doc, None)))
        assert null == zero, case.name
        built = [build_model(inst, standard_parameters(inst.costs, case.lam)) for inst in (null, case.instance)]
        assert built[0].fingerprint() == built[1].fingerprint(), case.name


def test_parse_rejects_capacity_bound_inversion():
    doc = minimal_document(model_kind="TS_MCVRP", capacity_dims=1)
    doc["vehicles"] = [{"start": 1, "q": [2], "Q": [1]}]
    doc["variations"] = [[[[0], [0]], [[0], [0]]]]
    with pytest.raises(InstanceError, match="exceeds"):
        parse_instance(json.dumps(doc))


def test_parse_rejects_malformed_json():
    for text in ("{not json", "[" * 200_000):  # the second nests past the decoder's depth
        with pytest.raises(InstanceError, match="malformed"):
            parse_instance(text)


def _intervals(raw, unit, horizon=2):
    """Interval count of one leg of ``raw`` minutes on a grid of ``horizon`` intervals."""
    minutes = np.zeros((horizon - 1, 2, 2))
    minutes[0, 1, 0] = raw
    return int(discretize_durations(minutes, unit).travel[0, 1, 0])


def test_intervals_for_examples():
    assert _intervals(25.0, 20.0) == 2
    assert _intervals(20.0, 20.0) == 1
    assert _intervals(0.0, 20.0) == 1


@pytest.mark.parametrize("unit", [0.0, -5.0, float("nan"), float("inf")])
def test_discretize_rejects_bad_unit(unit):
    # 0 used to give T + 1 intervals and -5 one interval, silently.
    with pytest.raises(InstanceError, match="unit_minutes"):
        discretize_durations(np.full((1, 2, 2), 20.0), unit)


def test_discretize_rejects_negative():
    raw = np.full((1, 2, 2), -1.0)
    with pytest.raises(InstanceError, match="non-negative"):
        discretize_durations(raw, 20.0)


@pytest.mark.parametrize("minutes", [1e19, 1e21, 1e300])
def test_leg_longer_than_the_horizon_stays_longer(minutes):
    # 1e21 / 20 and 1e300 / 20 do not fit a 64-bit integer, and an
    # unclamped cast wrapped them to a one-interval leg.
    doc = minimal_document(raw_minutes=[[[0.0, 25.0], [minutes, 0.0]]])
    inst = parse_instance(json.dumps(doc))
    assert inst.duration(1, 2, 1) == inst.horizon + 1
    assert enumerate_optimal_routes(inst) == (None, ())


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_discretize_rejects_non_finite(value):
    raw = np.full((1, 2, 2), 20.0)
    raw[0, 1, 0] = value
    with pytest.raises(InstanceError, match="finite"):
        discretize_durations(raw, 20.0)
    with pytest.raises(InstanceError, match="finite"):
        discretize_durations(np.full((1, 2, 2), 20.0), 20.0, stay_raw_minutes=np.full((1, 2), value))


@given(
    raw=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    unit=st.floats(min_value=0.01, max_value=1e4, allow_nan=False),
)
def test_discretize_bracket_property(raw, unit):
    # A leg clamped at T + 1 intervals only keeps the lower bracket: it
    # really is longer than the horizon.
    horizon = 50
    n = _intervals(raw, unit, horizon)
    assert 1 <= n <= horizon + 1
    if raw > 0 and n > 1:
        assert (n - 1) * unit < raw * (1 + 1e-9) + 1e-12
    if n <= horizon:
        assert raw <= n * unit * (1 + 1e-9) + 1e-12


def test_apply_priority_scales_targeted_arrivals():
    costs = CostSeries(np.array([[[0.0, 5.0, 6.0], [7.0, 0.0, 8.0], [10.0, 9.0, 0.0]]]))
    scaled = apply_priority(costs, 0.5, {3})
    assert scaled.values[0, 2, 1] == pytest.approx(4.5)
    assert scaled.values[0, 2, 0] == pytest.approx(5.0)
    assert scaled.values[0, 1, 2] == pytest.approx(8.0)
    # original untouched
    assert costs.values[0, 2, 1] == pytest.approx(9.0)


def test_apply_priority_empty_target_is_identity():
    costs = CostSeries(np.array([[[0.0, 5.0], [7.0, 0.0]]]))
    out = apply_priority(costs, 0.5, set())
    assert np.array_equal(out.values, costs.values)


@pytest.mark.parametrize("weight", [0.0, 1.0, -0.5, 1.5])
def test_apply_priority_rejects_out_of_range_weight(weight):
    costs = CostSeries(np.array([[[0.0, 5.0], [7.0, 0.0]]]))
    with pytest.raises(InstanceError):
        apply_priority(costs, weight, {1})


@given(seed=st.integers(min_value=0, max_value=10_000))
def test_priority_property(seed):
    inst = random_instance(seed)
    scaled = apply_priority(inst.costs, 0.25, {1})
    off = ~np.eye(inst.n_cities, dtype=bool)
    expected = inst.costs.values.copy()
    expected[:, 0, :] *= 0.25
    assert np.allclose(scaled.values[:, off], expected[:, off])


def _issues(inst):
    return [(i.severity, i.code, i.message) for i in validate_instance(inst)]


def test_validate_clean_instance_is_empty():
    inst = parse_instance(json.dumps(minimal_document()))
    assert validate_instance(inst) == []


def test_validate_warns_on_window_over_start():
    doc = minimal_document(windows=[{"vehicle": 1, "tau": 1, "city": 1}])
    assert _issues(parse_instance(json.dumps(doc))) == [
        ("warning", "start-window", "vehicle 1: start conflicts with window at interval 1")
    ]


def test_validate_warns_on_unvisitable_city():
    doc = minimal_document(
        windows=[{"vehicle": 1, "tau": tau, "city": 2} for tau in (1, 2)]
    )
    assert _issues(parse_instance(json.dumps(doc))) == [
        ("warning", "city-unvisitable", "city 2 is unvisitable: every interval is window-forbidden")
    ]


def test_validate_warns_on_plain_end_equals_start():
    doc = minimal_document()
    doc["vehicles"] = [{"start": 1, "end": 1, "q": [], "Q": []}]
    assert _issues(parse_instance(json.dumps(doc))) == [
        (
            "warning",
            "end-equals-start",
            "vehicle 1: single-state models cannot revisit the start city, "
            "so end == start is unsatisfiable",
        )
    ]


def test_validate_warns_on_capacity_unreachable_city():
    # Every inbound leg of city 2 drains the (always empty) load below
    # its lower bound.
    doc = minimal_document(model_kind="TS_MCVRP", capacity_dims=1)
    doc["vehicles"] = [{"start": 1, "q": [0], "Q": [0]}]
    doc["variations"] = [[[[0], [0]], [[-1], [0]]]]
    assert _issues(parse_instance(json.dumps(doc))) == [
        ("warning", "capacity-unreachable", "vehicle 1: city 2 unreachable under capacity bounds")
    ]


def _three_city_capacitated(into_third, lower=(0,), upper=(0,)):
    """A leg into city 3 from city b changes the load by ``into_third[b]``
    (or by ``into_third`` itself when it is a number), any other leg by 0."""
    if isinstance(into_third, int):
        into_third = {1: [into_third], 2: [into_third]}
    m = len(lower)
    doc = minimal_document(model_kind="TS_MCVRP", capacity_dims=m)
    doc["cities"] = ["a", "b", "c"]
    doc["vehicles"] = [{"start": 1, "q": list(lower), "Q": list(upper)}]
    doc["costs"] = [[[0.0 if a == b else 5.0 for b in range(3)] for a in range(3)]]
    doc["raw_minutes"] = [[[0.0 if a == b else 15.0 for b in range(3)] for a in range(3)]]
    doc["variations"] = [
        [[into_third[b + 1] if a == 2 and b != 2 else [0] * m for b in range(3)] for a in range(3)]
    ]
    return parse_instance(json.dumps(doc))


_CITY_3_UNREACHABLE = [
    ("warning", "capacity-unreachable", "vehicle 1: city 3 unreachable under capacity bounds")
]


def test_validate_capacity_warns_once_per_unreachable_city():
    assert validate_instance(_three_city_capacitated(0)) == []
    assert _issues(_three_city_capacitated(-1)) == _CITY_3_UNREACHABLE


def test_validate_capacity_needs_one_leg_to_fit_every_dimension():
    # In the box [0, 1]^2 each leg into city 3 overshoots one dimension:
    # every dimension has a fitting leg, but no leg fits both.
    into_third = {1: [2, 0], 2: [0, 2]}
    inst = _three_city_capacitated(into_third, lower=(0, 0), upper=(1, 1))
    assert _issues(inst) == _CITY_3_UNREACHABLE
    assert _issues(inst) == _reference_validate(inst)
    into_third[2] = [0, 1]
    assert validate_instance(_three_city_capacitated(into_third, (0, 0), (1, 1))) == []


def test_validate_capacity_zero_width_dimension_needs_a_zero_change():
    # q_2 = Q_2 = 1: the second dimension can never move.
    into_third = {1: [3, 1], 2: [0, -1]}
    inst = _three_city_capacitated(into_third, lower=(0, 1), upper=(3, 1))
    assert _issues(inst) == _CITY_3_UNREACHABLE
    assert _issues(inst) == _reference_validate(inst)
    into_third[1] = [3, 0]
    assert validate_instance(_three_city_capacitated(into_third, (0, 1), (3, 1))) == []
    into_third[1] = [4, 0]  # the first dimension now overshoots the width 3
    assert _issues(_three_city_capacitated(into_third, (0, 1), (3, 1))) == _CITY_3_UNREACHABLE


@pytest.mark.parametrize("lower, upper", [(0, 10**30), (-(2**62), 2**62)], ids=["past-int64", "width-2^63"])
def test_validate_capacity_on_boxes_wider_than_int64(lower, upper):
    # The per-key loops could not enumerate these boxes; a width that
    # wrapped in int64 would turn negative and fit no change at all.  A
    # bound past int64 itself no longer parses.
    if upper > np.iinfo(np.int64).max:
        with pytest.raises(InstanceError, match="vehicle 1 Q must lie within the int64 range"):
            _three_city_capacitated(5, (lower,), (upper,))
        return
    assert validate_instance(_three_city_capacitated(5, (lower,), (upper,))) == []


def _one_dim_document():
    doc = minimal_document(model_kind="TS_MCVRP", capacity_dims=1)
    doc["vehicles"] = [{"start": 1, "q": [0], "Q": [2], "c0": [0]}]
    doc["variations"] = [[[[0], [1]], [[-1], [0]]]]
    return doc


@pytest.mark.parametrize(
    "field, value, named",
    [
        ("Q", 10**19, "vehicle 1 Q"),
        ("q", -(2**63), "vehicle 1 q"),
        ("c0", 2**63, "vehicle 1 c0"),
        ("variations", 1e19, "variation entries"),
        ("variations", -1e19, "variation entries"),
        ("variations", 2.0**63, "variation entries"),
    ],
    ids=["Q", "q", "c0", "variation", "negative-variation", "variation-2^63"],
)
def test_parse_rejects_integers_past_int64(field, value, named):
    # astype(int) wrapped a variation of ±1e19 to -2^63, and a bound past
    # int64 ended in an internal error when the box was built.
    doc = _one_dim_document()
    if field == "variations":
        doc["variations"][0][1][0] = [value]
    else:
        doc["vehicles"][0][field] = [value]
    with pytest.raises(InstanceError, match=f"{named} must lie within the int64 range"):
        parse_instance(json.dumps(doc))


def test_parse_accepts_the_int64_extremes():
    doc = _one_dim_document()
    doc["vehicles"][0]["Q"] = [2**63 - 1]
    doc["variations"][0][1][0] = [-(2**62)]
    inst = parse_instance(json.dumps(doc))
    assert inst.vehicles[0].capacity_upper == (2**63 - 1,)
    assert inst.variations.values[0, 1, 0, 0] == -(2**62)


def test_validate_warns_on_end_city_inside_windows():
    doc = minimal_document(windows=[{"vehicle": 1, "tau": tau, "city": 2} for tau in (1, 2)])
    doc["vehicles"] = [{"start": 1, "end": 2, "q": [], "Q": []}]
    assert _issues(parse_instance(json.dumps(doc))) == [
        ("warning", "end-window", "vehicle 1: end city 2 lies entirely inside forbidden windows"),
        ("warning", "city-unvisitable", "city 2 is unvisitable: every interval is window-forbidden"),
    ]


# -- array rules against the per-key loops they replaced -----------------------
#
# ``_reference_validate`` is the earlier ``validate_instance``: it asked
# ``windows.forbids`` key by key and, for capacity, tried every status of
# the box on every inbound leg of every city.  The array rules must give
# the same (severity, code, message) list, in the same order.


def _reference_validate(inst: Instance) -> list[tuple[str, str, str]]:
    issues = []
    t, n = inst.horizon, inst.n_cities
    for v in inst.vehicles:
        if inst.windows.forbids(v.id, 1, v.start_city):
            issues.append(
                ("warning", "start-window", f"vehicle {v.id}: start conflicts with window at interval 1")
            )
        if v.end_city is not None:
            if all(inst.windows.forbids(v.id, tau, v.end_city) for tau in range(1, t + 1)):
                issues.append(
                    (
                        "warning",
                        "end-window",
                        f"vehicle {v.id}: end city {v.end_city} lies entirely inside forbidden windows",
                    )
                )
            if not inst.stateful and v.end_city == v.start_city:
                issues.append(
                    (
                        "warning",
                        "end-equals-start",
                        f"vehicle {v.id}: single-state models cannot revisit the start city, "
                        "so end == start is unsatisfiable",
                    )
                )
    for a in range(1, n + 1):
        if all(
            inst.windows.forbids(i, tau, a)
            for i in range(1, inst.n_vehicles + 1)
            for tau in range(1, t + 1)
        ):
            issues.append(
                ("warning", "city-unvisitable", f"city {a} is unvisitable: every interval is window-forbidden")
            )
    if inst.capacity_dims >= 1:
        issues.extend(_reference_capacity_issues(inst))
    return issues


def _reference_capacity_issues(inst: Instance) -> list[tuple[str, str, str]]:
    issues = []
    for v in inst.vehicles:
        lo, hi = v.capacity_lower, v.capacity_upper
        boxes = capacity_box(lo, hi)
        for a in range(1, inst.n_cities + 1):
            if a == v.start_city:
                continue
            reachable = False
            for tau in range(1, inst.horizon):
                for b in range(1, inst.n_cities + 1):
                    if b == a:
                        continue
                    delta = inst.variation(tau, a, b)
                    for c in boxes:
                        arrived = tuple(ci + di for ci, di in zip(c, delta))
                        if all(l <= x <= h for x, l, h in zip(arrived, lo, hi)):
                            reachable = True
                            break
                    if reachable:
                        break
                if reachable:
                    break
            if not reachable:
                issues.append(
                    (
                        "warning",
                        "capacity-unreachable",
                        f"vehicle {v.id}: city {a} unreachable under capacity bounds",
                    )
                )
    return issues


def _validation_instance(seed: int) -> Instance:
    """A small instance with wide variations, narrow or zero-width boxes
    and windows from empty to nearly full, so every warning code occurs."""
    rng = np.random.default_rng(seed)
    kind = KINDS[rng.integers(0, len(KINDS))]
    stateful, capacitated = kind in STATEFUL_KINDS, kind in CAPACITATED_KINDS
    n, t, k = (int(x) for x in rng.integers((2, 2, 1), (5, 5, 4)))
    m = int(rng.integers(1, 4)) if capacitated else 0
    vehicles = []
    for i in range(1, k + 1):
        start = int(rng.integers(1, n + 1))
        end = int(rng.integers(1, n + 1)) if rng.random() < 0.5 else None
        lo = rng.integers(-2, 3, m)
        hi = lo + rng.integers(0, 3, m)
        vehicles.append(
            Vehicle(i, start, end, capacity_lower=tuple(map(int, lo)), capacity_upper=tuple(map(int, hi)))
        )
    density = rng.choice([0.0, 0.3, 0.7, 0.9, 1.0])
    cells = np.argwhere(rng.random((k, t, n)) < density) + 1
    return Instance(
        grid=TimeGrid(interval_count=t, unit_minutes=10.0),
        city_labels=tuple(f"c{a}" for a in range(1, n + 1)),
        vehicles=tuple(vehicles),
        costs=CostSeries(rng.uniform(1.0, 9.0, size=(t - 1, n, n))),
        durations=DurationSeries(
            rng.integers(1, 3, size=(t - 1, n, n)),
            rng.integers(1, 3, size=(t - 1, n)) if stateful else None,
        ),
        variations=VariationSeries(rng.integers(-4, 5, size=(t - 1, n, n, m))) if capacitated else None,
        windows=WindowSet(frozenset(tuple(map(int, c)) for c in cells)),
        model_kind=kind,
        capacity_dims=m,
    )


def test_validate_matches_the_per_key_loops_on_generated_instances():
    codes = Counter()
    for seed in range(2000):
        inst = _validation_instance(seed)
        expected = _reference_validate(inst)
        assert _issues(inst) == expected, seed
        codes.update(code for _, code, _ in expected)
    assert set(codes) == {
        "start-window", "end-window", "end-equals-start", "city-unvisitable", "capacity-unreachable"
    }


def test_validate_matches_the_per_key_loops_on_reference_sets():
    instances = [case.instance for case in load_cases()]
    instances.append(delivery_demo_instance())
    instances += [random_instance(seed, max_cities=6, max_intervals=6, max_vehicles=2) for seed in range(100)]
    for inst in instances:
        assert _issues(inst) == _reference_validate(inst)


@given(seed=st.integers(min_value=0, max_value=10_000))
def test_round_trip_identity(seed):
    inst = random_instance(seed)
    again = parse_instance(serialize_instance(inst))
    assert again == inst
    assert instance_to_document(again) == instance_to_document(inst)


def test_document_round_trip_on_minimal():
    inst = parse_instance(json.dumps(minimal_document()))
    assert instance_from_document(instance_to_document(inst)) == inst


def test_vehicle_type_tag_survives_a_round_trip():
    doc = minimal_document(vehicles=[{"start": 1, "q": [], "Q": [], "type": "van"}])
    inst = parse_instance(json.dumps(doc))
    assert inst.vehicles[0].type_tag == "van"
    again = parse_instance(serialize_instance(inst))
    assert again == inst and again.vehicles[0].type_tag == "van"
    assert json.loads(serialize_instance(again))["vehicles"] == doc["vehicles"]


def test_parse_rejects_stays_on_single_state_kind():
    doc = minimal_document(stay_minutes=[[20.0, 20.0]])
    with pytest.raises(InstanceError, match="stay_minutes"):
        parse_instance(json.dumps(doc))


def test_parse_requires_stays_for_two_state_kind():
    doc = minimal_document(model_kind="TS_SVRP")
    with pytest.raises(InstanceError, match="stay_minutes"):
        parse_instance(json.dumps(doc))


def test_parse_rejects_unknown_model_kind():
    doc = minimal_document(model_kind="TSP")
    with pytest.raises(InstanceError, match="model_kind"):
        parse_instance(json.dumps(doc))


def test_parse_rejects_out_of_range_window():
    doc = minimal_document(windows=[{"vehicle": 1, "tau": 9, "city": 1}])
    with pytest.raises(InstanceError, match="window"):
        parse_instance(json.dumps(doc))


def test_parse_rejects_non_integer_variation():
    doc = minimal_document(model_kind="TS_MCVRP", capacity_dims=1)
    doc["vehicles"] = [{"start": 1, "q": [0], "Q": [1]}]
    doc["variations"] = [[[[0.0], [0.5]], [[1.0], [0.0]]]]
    with pytest.raises(InstanceError, match="integer"):
        parse_instance(json.dumps(doc))
