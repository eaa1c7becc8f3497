import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tsvrp import (
    CostSeries,
    Instance,
    InstanceError,
    apply_priority,
    discretize_durations,
    enumerate_optimal_routes,
    parse_instance,
    serialize_instance,
    validate_instance,
)
from tsvrp.instance import instance_from_document, instance_to_document

from strategies import random_instance


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


def test_parse_rejects_capacity_bound_inversion():
    doc = minimal_document(model_kind="TS_MCVRP", capacity_dims=1)
    doc["vehicles"] = [{"start": 1, "q": [2], "Q": [1]}]
    doc["variations"] = [[[[0], [0]], [[0], [0]]]]
    with pytest.raises(InstanceError, match="exceeds"):
        parse_instance(json.dumps(doc))


def test_parse_rejects_malformed_json():
    with pytest.raises(InstanceError, match="malformed"):
        parse_instance("{not json")


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
    assert scaled.cost(1, 3, 2) == pytest.approx(4.5)
    assert scaled.cost(1, 3, 1) == pytest.approx(5.0)
    assert scaled.cost(1, 2, 3) == pytest.approx(8.0)
    # original untouched
    assert costs.cost(1, 3, 2) == pytest.approx(9.0)


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


def test_validate_clean_instance_is_empty():
    inst = parse_instance(json.dumps(minimal_document()))
    assert validate_instance(inst) == []


def test_validate_warns_on_window_over_start():
    doc = minimal_document(windows=[{"vehicle": 1, "tau": 1, "city": 1}])
    inst = parse_instance(json.dumps(doc))
    issues = validate_instance(inst)
    assert any(i.code == "start-window" for i in issues)


def test_validate_warns_on_unvisitable_city():
    doc = minimal_document(
        windows=[{"vehicle": 1, "tau": tau, "city": 2} for tau in (1, 2)]
    )
    inst = parse_instance(json.dumps(doc))
    issues = validate_instance(inst)
    assert any(i.code == "city-unvisitable" for i in issues)


def test_validate_warns_on_plain_end_equals_start():
    doc = minimal_document()
    doc["vehicles"] = [{"start": 1, "end": 1, "q": [], "Q": []}]
    inst = parse_instance(json.dumps(doc))
    issues = validate_instance(inst)
    assert any(i.code == "end-equals-start" for i in issues)


def test_validate_warns_on_capacity_unreachable_city():
    # Every inbound leg of city 2 drains the (always empty) load below
    # its lower bound.
    doc = minimal_document(model_kind="TS_MCVRP", capacity_dims=1)
    doc["vehicles"] = [{"start": 1, "q": [0], "Q": [0]}]
    doc["variations"] = [[[[0], [0]], [[-1], [0]]]]
    inst = parse_instance(json.dumps(doc))
    issues = validate_instance(inst)
    assert any(i.code == "capacity-unreachable" for i in issues)


@given(seed=st.integers(min_value=0, max_value=10_000))
def test_round_trip_identity(seed):
    inst = random_instance(seed)
    again = parse_instance(serialize_instance(inst))
    assert again == inst
    assert instance_to_document(again) == instance_to_document(inst)


def test_document_round_trip_on_minimal():
    inst = parse_instance(json.dumps(minimal_document()))
    assert instance_from_document(instance_to_document(inst)) == inst


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
