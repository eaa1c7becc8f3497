import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tsvrp import (
    PLAIN,
    BuildError,
    QuboModel,
    VariableKey,
    WindowSet,
    build_catalogue,
)
from tsvrp.qubo import ising_energy, write_model

from cases import mcsvrp_two_city, three_city_dense, two_city_plain
from strategies import random_instance


def synthetic_catalogue(n_free: int, fixed: dict[int, int] | None = None):
    """A catalogue over artificial plain keys, bypassing instance logic.

    The keys are ``VariableKey(1, 1, c)`` for the first ``n_free +
    len(fixed)`` cities of a one-vehicle, two-interval instance: key
    ``c - 1`` is fixed to ``fixed[c - 1]`` when listed and free otherwise.
    Every other key of the grid is fixed to zero.
    """
    from tsvrp import CostSeries, DurationSeries, Instance, TimeGrid, Vehicle
    from tsvrp.qubo import FIXED_ONE, FIXED_ZERO, VariableCatalogue

    fixed = fixed or {}
    total = n_free + len(fixed)
    n = max(total, 2)
    inst = Instance(
        grid=TimeGrid(2, 10.0),
        city_labels=tuple(f"c{a}" for a in range(1, n + 1)),
        vehicles=(Vehicle(id=1, start_city=1),),
        costs=CostSeries(np.zeros((1, n, n))),
        durations=DurationSeries(np.ones((1, n, n), dtype=int)),
        variations=None,
        windows=WindowSet(),
        model_kind="TS_VRP",
        capacity_dims=0,
    )
    slots = np.full(2 * n, FIXED_ZERO)  # codes 0..n-1 are the interval-1 keys
    free = [idx for idx in range(total) if idx not in fixed]
    slots[free] = np.arange(len(free))
    for idx, value in fixed.items():
        slots[idx] = FIXED_ONE if value else FIXED_ZERO
    return VariableCatalogue(
        instance=inst, states=(PLAIN,), capacity_blocks={1: ((),)}, slots=slots
    )


def naive_energy(model: QuboModel, bits) -> float:
    """Independent double-loop evaluation used as the reference oracle."""
    n = model.n_vars
    total = model.constant
    for i in range(n):
        total += model.linear.get(i, 0.0) * bits[i]
    for i in range(n):
        for j in range(i + 1, n):
            total += model.quadratic.get((i, j), 0.0) * bits[i] * bits[j]
    return total


# -- catalogue ---------------------------------------------------------------


def test_catalogue_counts_plain():
    inst = random_instance(0, kind="TS_VRP", max_cities=2, max_intervals=2, max_vehicles=1)
    # force the exact example shape: k=1, T=2, N=2, no windows/ends
    from tsvrp import Instance, TimeGrid, Vehicle, CostSeries, DurationSeries

    inst = Instance(
        grid=TimeGrid(2, 10.0),
        city_labels=("a", "b"),
        vehicles=(Vehicle(id=1, start_city=1),),
        costs=CostSeries(np.array([[[0.0, 1.0], [1.0, 0.0]]])),
        durations=DurationSeries(np.ones((1, 2, 2), dtype=int)),
        variations=None,
        windows=WindowSet(),
        model_kind="TS_VRP",
        capacity_dims=0,
    )
    cat = build_catalogue(inst)
    assert cat.n_total == 4
    assert cat.n_fixed_one == 1


def test_catalogue_counts_capacity_radix():
    from tsvrp import Instance, TimeGrid, Vehicle, CostSeries, DurationSeries, VariationSeries

    inst = Instance(
        grid=TimeGrid(2, 10.0),
        city_labels=("a", "b"),
        vehicles=(Vehicle(id=1, start_city=1, capacity_lower=(0,), capacity_upper=(1,)),),
        costs=CostSeries(np.array([[[0.0, 1.0], [1.0, 0.0]]])),
        durations=DurationSeries(np.ones((1, 2, 2), dtype=int)),
        variations=VariationSeries(np.zeros((1, 2, 2, 1), dtype=int)),
        windows=WindowSet(),
        model_kind="TS_MCVRP",
        capacity_dims=1,
    )
    cat = build_catalogue(inst)
    assert cat.n_total == 8


def test_catalogue_counts_fig_scale():
    from tsvrp.demo import delivery_demo_instance
    from tsvrp import Instance

    demo = delivery_demo_instance()
    bare = Instance(
        grid=demo.grid,
        city_labels=demo.city_labels,
        vehicles=demo.vehicles,
        costs=demo.costs,
        durations=demo.durations,
        variations=None,
        windows=WindowSet(),
        model_kind="TS_VRP",
        capacity_dims=0,
    )
    cat = build_catalogue(bare)
    assert cat.n_total == 3 * 8 * 7 == 168


@given(seed=st.integers(min_value=0, max_value=5_000))
def test_catalogue_bijection(seed):
    inst = random_instance(seed)
    cat = build_catalogue(inst)
    for idx in range(cat.n_free):
        assert cat.index_of(cat.free_keys[idx]) == idx
    for key in cat.free_keys:
        assert cat.free_keys[cat.index_of(key)] == key
    assert set(cat.free_keys).isdisjoint(cat.fixed)
    assert cat.n_total == len(cat.keys)


def _with_window(inst, triple):
    return dataclasses.replace(inst, windows=WindowSet(inst.windows.forbidden | {triple}))


def test_apply_windows_fixes_all_states_and_capacities():
    case = mcsvrp_two_city()  # M=1 with radix 2, two states
    base = build_catalogue(case.instance)
    more = build_catalogue(_with_window(case.instance, (1, 3, 2)))
    newly_fixed = set(more.fixed) - set(base.fixed)
    assert len(newly_fixed) == 4  # 2 capacities x 2 states
    assert all(more.fixed[k] == 0 for k in newly_fixed)


def test_apply_windows_three_capacity_two_state_example():
    # One forbidden triple on a radix-3, two-state model removes 6 keys.
    from tsvrp import Instance, TimeGrid, Vehicle, CostSeries, DurationSeries, VariationSeries

    t, n = 4, 2
    inst = Instance(
        grid=TimeGrid(t, 10.0),
        city_labels=("a", "b"),
        vehicles=(Vehicle(id=1, start_city=1, capacity_lower=(0,), capacity_upper=(2,)),),
        costs=CostSeries(np.where(np.eye(n), 0.0, 3.0)[None].repeat(t - 1, axis=0)),
        durations=DurationSeries(
            np.ones((t - 1, n, n), dtype=int), np.ones((t - 1, n), dtype=int)
        ),
        variations=VariationSeries(np.zeros((t - 1, n, n, 1), dtype=int)),
        windows=WindowSet(),
        model_kind="TS_MCSVRP",
        capacity_dims=1,
    )
    base = build_catalogue(inst)
    more = build_catalogue(_with_window(inst, (1, 3, 2)))
    newly_fixed = set(more.fixed) - set(base.fixed)
    assert len(newly_fixed) == 6  # 3 capacities x 2 states
    assert all(more.fixed[k] == 0 for k in newly_fixed)


def test_apply_windows_start_conflict_raises():
    case = two_city_plain()
    with pytest.raises(BuildError, match="start"):
        build_catalogue(_with_window(case.instance, (1, 1, 1)))


# -- model construction -------------------------------------------------------


def test_add_quadratic_accumulates():
    cat = synthetic_catalogue(2)
    model = QuboModel(cat)
    k0, k1 = cat.free_keys
    model.add_quadratic(k0, k1, 0.5)
    model.add_quadratic(k0, k1, 0.5)
    model.finalize()
    assert model.quadratic[(0, 1)] == pytest.approx(1.0)


def test_add_quadratic_folds_through_fixed_one():
    cat = synthetic_catalogue(1, fixed={0: 1})
    model = QuboModel(cat)
    fixed_key = next(iter(cat.fixed))
    free_key = cat.free_keys[0]
    model.add_quadratic(fixed_key, free_key, 3.0)
    model.finalize()
    assert model.linear[0] == pytest.approx(3.0)
    assert not model.quadratic


def test_add_quadratic_drops_through_fixed_zero():
    cat = synthetic_catalogue(1, fixed={0: 0})
    model = QuboModel(cat)
    fixed_key = next(iter(cat.fixed))
    free_key = cat.free_keys[0]
    model.add_quadratic(fixed_key, free_key, 3.0)
    model.finalize()
    assert not model.linear and not model.quadratic and model.constant == 0.0


def test_add_quadratic_same_key_folds_to_linear():
    cat = synthetic_catalogue(1)
    model = QuboModel(cat)
    key = cat.free_keys[0]
    model.add_quadratic(key, key, 2.0)
    model.finalize()
    assert model.linear[0] == pytest.approx(2.0)
    assert not model.quadratic


def test_unknown_key_raises():
    cat = synthetic_catalogue(1)
    model = QuboModel(cat)
    with pytest.raises(KeyError):
        model.add_linear(VariableKey(9, 9, 9, (), PLAIN), 1.0)


def test_energy_examples():
    cat = synthetic_catalogue(2)
    model = QuboModel(cat)
    model.add_constant(1.5)
    assert model.finalize().energy([0, 0]) == pytest.approx(1.5)
    model = QuboModel(cat)
    model.add_constant(1.5)
    model.add_linear(cat.free_keys[0], -1.0)
    assert model.finalize().energy([1, 0]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        model.energy([1])


@given(seed=st.integers(min_value=0, max_value=2_000))
def test_energy_matches_naive_evaluator(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    cat = synthetic_catalogue(n)
    model = QuboModel(cat)
    model.add_constant(float(rng.normal()))
    for _ in range(int(rng.integers(1, 12))):
        i, j = rng.integers(0, n, 2)
        coeff = float(rng.normal())
        model.add_quadratic(cat.free_keys[int(i)], cat.free_keys[int(j)], coeff)
    for _ in range(int(rng.integers(0, 6))):
        model.add_linear(cat.free_keys[int(rng.integers(0, n))], float(rng.normal()))
    model.finalize()
    bits = rng.integers(0, 2, n)
    assert model.energy(bits) == pytest.approx(naive_energy(model, bits), abs=1e-12)
    assert model.energies(bits[None, :].astype(float))[0] == pytest.approx(
        naive_energy(model, bits), abs=1e-12
    )


@given(seed=st.integers(min_value=0, max_value=1_000))
def test_fixed_elimination_matches_substitution(seed):
    rng = np.random.default_rng(seed)
    total = int(rng.integers(2, 10))
    fixed_positions = {
        int(i): int(rng.integers(0, 2)) for i in rng.choice(total, rng.integers(1, total), replace=False)
    }
    cat_full = synthetic_catalogue(total)
    cat_fixed = synthetic_catalogue(total - len(fixed_positions), fixed=fixed_positions)
    model_full = QuboModel(cat_full)
    model_fixed = QuboModel(cat_fixed)
    free_keys = cat_full.free_keys
    for _ in range(int(rng.integers(1, 16))):
        i, j = rng.integers(0, total, 2)
        coeff = float(rng.normal())
        if i == j:
            model_full.add_linear(free_keys[int(i)], coeff)
            model_fixed.add_linear(free_keys[int(i)], coeff)
        else:
            model_full.add_quadratic(free_keys[int(i)], free_keys[int(j)], coeff)
            model_fixed.add_quadratic(free_keys[int(i)], free_keys[int(j)], coeff)
    model_full.finalize()
    model_fixed.finalize()

    free_positions = [i for i in range(total) if i not in fixed_positions]
    for assignment in itertools.product((0, 1), repeat=len(free_positions)):
        full_bits = [0] * total
        for pos, value in fixed_positions.items():
            full_bits[pos] = value
        for pos, value in zip(free_positions, assignment):
            full_bits[pos] = value
        assert model_fixed.energy(assignment) == pytest.approx(
            model_full.energy(full_bits), abs=1e-12
        )


def test_finalized_model_has_no_zeros_or_self_pairs():
    cat = synthetic_catalogue(3)
    model = QuboModel(cat)
    k = cat.free_keys
    model.add_quadratic(k[0], k[1], 1.0)
    model.add_quadratic(k[0], k[1], -1.0)
    model.add_linear(k[2], 0.0)
    model.finalize()
    assert not model.quadratic
    assert not model.linear
    assert all(i != j for (i, j) in model.quadratic)
    with pytest.raises(BuildError):
        model.add_constant(1.0)


# -- spin form ----------------------------------------------------------------


def test_to_ising_empty_model():
    cat = synthetic_catalogue(2)
    model = QuboModel(cat)
    model.add_constant(2.5)
    model.finalize()
    h, j, offset = model.to_ising()
    assert np.all(h == 0) and not j and offset == pytest.approx(2.5)


def test_to_ising_single_linear():
    cat = synthetic_catalogue(1)
    model = QuboModel(cat)
    model.add_linear(cat.free_keys[0], 3.0)
    model.finalize()
    h, j, offset = model.to_ising()
    assert h[0] == pytest.approx(1.5)
    assert offset == pytest.approx(1.5)


@given(seed=st.integers(min_value=0, max_value=500))
def test_to_ising_preserves_energy_exhaustively(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 11))
    cat = synthetic_catalogue(n)
    model = QuboModel(cat)
    model.add_constant(float(rng.normal()))
    for _ in range(int(rng.integers(1, 20))):
        i, j = rng.integers(0, n, 2)
        model.add_quadratic(cat.free_keys[int(i)], cat.free_keys[int(j)], float(rng.normal()))
    model.finalize()
    h, jj, offset = model.to_ising()
    for assignment in itertools.product((0, 1), repeat=n):
        spins = [2 * b - 1 for b in assignment]
        assert ising_energy(h, jj, offset, spins) == pytest.approx(
            model.energy(assignment), abs=1e-10
        )


# -- interchange --------------------------------------------------------------


def test_model_export_round_trip(tmp_path):
    case = three_city_dense()
    from tsvrp import build_model, standard_parameters

    params = standard_parameters(case.instance.costs, case.lam)
    model = build_model(case.instance, params)
    path = tmp_path / "model.json"
    write_model(model, path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["n_vars"] == model.n_vars
    assert doc["model_ref"] == model.fingerprint()
    linear = {i: c for i, c in doc["linear"]}
    assert linear == pytest.approx(model.linear)
    quad = {(i, j): c for i, j, c in doc["quadratic"]}
    assert quad == pytest.approx(model.quadratic)
    states = {v["state"] for v in doc["variables"]}
    assert states == {"plain"}
