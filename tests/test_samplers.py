import os
import shutil
import tempfile
import warnings
from contextlib import contextmanager
from math import comb

import numpy as np
import pytest

from tsvrp import (
    AnnealSchedule,
    QuboModel,
    SamplerError,
    Vehicle,
    build_model,
    exhaustive_solve,
    simulated_anneal,
    standard_parameters,
)
from tsvrp.samplers import read_sample_set, write_sample_set
import tsvrp.samplers as samplers_module

from cases import load_cases, mc_delivery_run, no_free_variables, three_city_dense
from strategies import random_instance
from test_qubo import synthetic_catalogue


def single_variable_model(coeff=-1.0):
    cat = synthetic_catalogue(1)
    model = QuboModel(cat)
    model.add_linear(cat.free_keys[0], coeff)
    return model.finalize()


def test_exhaustive_single_linear_minimum():
    result = exhaustive_solve(single_variable_model())
    assert len(result.records) == 1
    assert result.records[0].bits == (1,)
    assert result.records[0].energy == pytest.approx(-1.0)


def test_exhaustive_degenerate_tie():
    cat = synthetic_catalogue(2)
    model = QuboModel(cat)
    model.add_constant(0.25)
    model.finalize()
    result = exhaustive_solve(model)
    assert len(result.records) == 4
    assert all(r.energy == pytest.approx(0.25) for r in result.records)


def test_exhaustive_cap():
    # The refusal comes before any enumeration, so a model past the cap is cheap.
    cat = synthetic_catalogue(26)
    model = QuboModel(cat).finalize()
    with pytest.raises(SamplerError, match="capped at 25 variables, model has 26"):
        exhaustive_solve(model)


def test_sa_finds_single_variable_optimum():
    schedule = AnnealSchedule(sweeps=10, restarts=2, seed=1)
    result = simulated_anneal(single_variable_model(), schedule)
    assert result.records[0].bits == (1,)
    assert result.records[0].energy == pytest.approx(-1.0)


def test_sa_is_deterministic():
    case = three_city_dense()
    params = standard_parameters(case.instance.costs, case.lam)
    model = build_model(case.instance, params)
    schedule = AnnealSchedule(sweeps=50, restarts=8, seed=123)
    first = simulated_anneal(model, schedule)
    second = simulated_anneal(model, schedule)
    assert first.records == second.records
    assert first.to_document() == second.to_document()


def test_sa_chunking_does_not_change_results(monkeypatch):
    case = three_city_dense()
    params = standard_parameters(case.instance.costs, case.lam)
    model = build_model(case.instance, params)
    schedule = AnnealSchedule(sweeps=40, restarts=16, seed=5)
    whole = simulated_anneal(model, schedule)
    # Shrink the tape budget so chains are processed a few at a time.
    monkeypatch.setattr(samplers_module, "_TAPE_BUDGET", 40 * model.n_vars * 8 * 3)
    chunked = simulated_anneal(model, schedule)
    assert whole.records == chunked.records


def test_sa_trajectory_is_non_increasing_per_chain():
    # Chain r of a run is the one-chain run at seed + r (see
    # test_every_chain_is_the_one_chain_run_at_its_seed).
    case = three_city_dense()
    params = standard_parameters(case.instance.costs, case.lam)
    model = build_model(case.instance, params)
    for r in range(6):
        result = simulated_anneal(model, AnnealSchedule(sweeps=60, restarts=1, seed=9 + r))
        chain = result.metadata["best_energy_per_sweep"]
        assert len(chain) == 61
        assert all(later <= earlier + 1e-12 for earlier, later in zip(chain, chain[1:]))


def test_samplers_on_a_model_without_free_variables():
    case = no_free_variables()
    model = build_model(case.instance, standard_parameters(case.instance.costs, case.lam))
    assert model.n_vars == 0
    constant = model.constant
    schedule = AnnealSchedule(sweeps=7, restarts=3, seed=1)
    result = simulated_anneal(model, schedule)
    assert result.to_document()["records"] == [["", constant, 3]]
    assert result.metadata["best_energy_per_sweep"] == [constant] * 8
    assert result.metadata["accepted_per_sweep"] == [0] * 7
    assert exhaustive_solve(model).to_document()["records"] == [["", constant, 1]]


def test_sa_never_beats_exhaustive():
    for factory in (three_city_dense, mc_delivery_run):
        case = factory()
        params = standard_parameters(case.instance.costs, case.lam)
        model = build_model(case.instance, params)
        floor = exhaustive_solve(model).records[0].energy
        result = simulated_anneal(model, AnnealSchedule(sweeps=100, restarts=10, seed=3))
        assert result.records[0].energy >= floor - 1e-9


def twenty_variable_model():
    from tsvrp import CostSeries, DurationSeries, Instance, TimeGrid, Vehicle, WindowSet

    n, t = 5, 5  # (t - 1) * n free variables once the start row is pinned
    costs = np.zeros((t - 1, n, n))
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a != b:
                costs[:, a - 1, b - 1] = 4.0 + 0.11 * ((2 * a + 3 * b) % 7)
    inst = Instance(
        grid=TimeGrid(t, 10.0),
        city_labels=tuple("abcde"),
        vehicles=(Vehicle(id=1, start_city=1),),
        costs=CostSeries(costs),
        durations=DurationSeries(np.ones((t - 1, n, n), dtype=int)),
        variations=None,
        windows=WindowSet(),
        model_kind="TS_VRP",
        capacity_dims=0,
    )
    params = standard_parameters(inst.costs, 2.0)
    return build_model(inst, params)


def test_sa_matches_exhaustive_on_twenty_variables():
    # Calibration check: 100 seeded runs (sweeps=2000, restarts=10, seeds
    # 0..99) must hit the exhaustive optimum at least 95 times.  A chain
    # is a pure function of its seed and run k uses chain seeds k..k+9,
    # so simulating the 109 distinct chains once, each as a one-chain run,
    # and taking sliding-window minima reproduces every run's best exactly.
    model = twenty_variable_model()
    assert model.n_vars == 20
    floor = exhaustive_solve(model).records[0].energy
    chains = [simulated_anneal(model, AnnealSchedule(sweeps=2000, restarts=1, seed=r)) for r in range(109)]
    chain_best = [chain.metadata["best_energy_per_sweep"][-1] for chain in chains]
    hits = sum(
        1 for k in range(100) if abs(min(chain_best[k : k + 10]) - floor) <= 1e-9
    )
    assert hits >= 95


@pytest.mark.parametrize(
    "kwargs",
    [
        {"sweeps": 0},
        {"restarts": 0},
        {"beta_start": 2.0, "beta_end": 1.0},
        {"beta_start": -1.0, "beta_end": 1.0},
        {"beta_end": float("inf")},
        {"beta_start": 1.0, "beta_end": float("inf")},
        {"beta_start": float("nan")},
        {"beta_start": 1e-10, "beta_end": 1e300},  # the ramp's ratio overflows
    ],
)
def test_schedule_validation(kwargs):
    with pytest.raises(SamplerError):
        AnnealSchedule(**kwargs)


def test_schedule_defaults_scale_with_lambda():
    case = three_city_dense()
    params = standard_parameters(case.instance.costs, 4.0)
    model = build_model(case.instance, params)
    schedule = AnnealSchedule(sweeps=10, restarts=1, seed=0)
    b0, b1 = schedule.resolved_betas(model)
    assert b0 == pytest.approx(0.1 / 4.0)
    assert b1 == pytest.approx(10.0 / 4.0)


def test_sampler_contract_exhaustive_and_sa():
    case = three_city_dense()
    params = standard_parameters(case.instance.costs, case.lam)
    model = build_model(case.instance, params)
    full = exhaustive_solve(model)
    annealed = simulated_anneal(model, AnnealSchedule(sweeps=200, restarts=4, seed=0))
    full.verify(model)
    annealed.verify(model)
    assert annealed.records[0].energy >= full.records[0].energy - 1e-9


# -- one enumeration pass against the two-pass version it replaced -----------------


def _two_pass_exhaustive(model: QuboModel, cap: int = 25):
    """The earlier ``exhaustive_solve``: find the best, then enumerate again for its rows."""
    from tsvrp.samplers import ENERGY_TOL, SampleRecord, SampleSet

    n = model.n_vars
    total = 1 << n
    chunk = min(total, 1 << 16)
    shifts = np.arange(n, dtype=np.uint64)
    best = np.inf
    histogram = {}
    for base in range(0, total, chunk):
        vals = np.arange(base, min(base + chunk, total), dtype=np.uint64)
        energies = model.energies(((vals[:, None] >> shifts) & 1).astype(float))
        best = min(best, float(energies.min()))
        for e, count in zip(*np.unique(np.round(energies, 9), return_counts=True)):
            histogram[float(e)] = histogram.get(float(e), 0) + int(count)
    minima_bits = []
    for base in range(0, total, chunk):
        vals = np.arange(base, min(base + chunk, total), dtype=np.uint64)
        bits = ((vals[:, None] >> shifts) & 1).astype(float)
        energies = model.energies(bits)
        for row in np.nonzero(energies <= best + ENERGY_TOL)[0]:
            minima_bits.append(tuple(int(x) for x in bits[row]))
    return SampleSet(
        records=tuple(SampleRecord(bits, model.energy(bits), 1) for bits in minima_bits),
        metadata={
            "sampler": "exhaustive",
            "model_ref": model.fingerprint(),
            "n_enumerated": total,
            "min_energy": min(model.energy(bits) for bits in minima_bits),
            "energy_histogram": [[e, c] for e, c in sorted(histogram.items())[:64]],
        },
    )


def _assert_same_sample_set(model):
    one, two = exhaustive_solve(model), _two_pass_exhaustive(model)
    assert one.records == two.records
    assert one.metadata == two.metadata


def test_single_pass_exhaustive_matches_two_pass_on_cases():
    for case in load_cases():
        params = standard_parameters(case.instance.costs, case.lam)
        _assert_same_sample_set(build_model(case.instance, params))


def _chunk_of(state: int) -> int:
    """The scan chunk of a state: whole high-block rows of about _CHUNK_STATES states."""
    return state // max(samplers_module._CHUNK_STATES, 1 << samplers_module._LOW_BITS)


def test_single_pass_exhaustive_drops_an_early_near_minimum():
    # 17 variables split into a 12-variable low block and a 5-variable
    # high block, scanned 16 high states (65,536 states) per chunk: two
    # chunks, the second holding every state with x16 set.  The first
    # chunk's best row (x0 alone, -1) is within tolerance of its running
    # best, but the minimum (x0 and x16, -2 - 1e-6, tied with x1 and
    # x16) lies in the second chunk, so the early row must not survive.
    assert _chunk_of(1 << 0) < _chunk_of((1 << 0) | (1 << 16))
    cat = synthetic_catalogue(17)
    model = QuboModel(cat)
    keys = cat.free_keys
    for k in keys:
        model.add_linear(k, 1.0)
    model.add_linear(keys[0], -2.0)
    model.add_linear(keys[1], -2.0)
    model.add_quadratic(keys[0], keys[1], 5.0)
    model.add_linear(keys[16], -2.0 - 1e-6)
    model.finalize()
    result = exhaustive_solve(model)
    assert sorted(r.bits.index(1) for r in result.records) == [0, 1]
    assert all(sum(r.bits) == 2 and r.bits[16] for r in result.records)
    assert result.records[0].energy == pytest.approx(-2.0 - 1e-6, abs=1e-12)
    _assert_same_sample_set(model)


# -- the split-halves scan against the dense two-pass scan ---------------------------


def test_split_scan_matches_two_pass_on_criterion_1_instances():
    # The random corpus of criterion 1, at its seeds and lambdas, up to 20 variables.
    checked = 0
    for seed in range(100):
        inst = random_instance(seed, max_cities=6, max_intervals=6, max_vehicles=2)
        model = build_model(inst, standard_parameters(inst.costs, 0.5 + (seed % 7) * 0.5))
        if model.n_vars <= 20:
            _assert_same_sample_set(model)
            checked += 1
    assert checked >= 40


@pytest.mark.parametrize("n", [0, 1, 12, 13, 17, 22])
def test_split_scan_matches_two_pass_at_shape_edges(n):
    # 0 and 1: degenerate blocks; 12: the low block alone; 13: one high
    # bit; 17: several chunks; 22: a ten-bit high block.
    rng = np.random.default_rng(n)
    cat = synthetic_catalogue(n)
    model = QuboModel(cat)
    keys = cat.free_keys
    model.add_constant(0.75)
    for key in keys:
        model.add_linear(key, round(float(rng.normal()), 2))
    for i, j in zip(*np.triu_indices(n, 1)):
        if rng.random() < 0.4:
            model.add_quadratic(keys[i], keys[j], round(float(rng.normal()), 2))
    _assert_same_sample_set(model.finalize())


def _linear_model(coefficients):
    cat = synthetic_catalogue(len(coefficients))
    model = QuboModel(cat)
    for key, coeff in zip(cat.free_keys, coefficients):
        if coeff:
            model.add_linear(key, coeff)
    return model.finalize()


def test_histogram_cut_evicts_the_levels_of_earlier_chunks():
    # x0..x15 weigh 2^i, so every state of a chunk has its own integer
    # level; x16 at -2^20 puts all 64 lowest levels in the second chunk,
    # below every level of the first, whose 64 lowest set the first cut.
    model = _linear_model([float(1 << i) for i in range(16)] + [-float(1 << 20)])
    assert _chunk_of(1 << 16) > _chunk_of((1 << 16) - 1) == 0
    result = exhaustive_solve(model)
    assert result.metadata["energy_histogram"] == [[float(j - (1 << 20)), 1] for j in range(64)]
    _assert_same_sample_set(model)


def test_rounding_bound_holds_at_large_energies():
    # Past about 1e8 a float just above cut + 1e-9 can still round to cut,
    # which would drop states of the cut level from the histogram.
    cuts = np.round(np.random.default_rng(0).uniform(-1e10, 1e10, 2000), 9)
    for cut in np.concatenate([cuts, cuts / 100, [0.0, 1e-9, -1e-9, 1e15]]).tolist():
        bound = samplers_module._rounding_bound(cut)
        above = bound + np.abs(bound) * np.finfo(float).eps * np.arange(1, 9) + 1e-300
        assert bound >= cut + 1e-9
        assert (np.round(above[above > bound], 9) > cut).all()


def test_histogram_with_fewer_levels_than_it_keeps():
    # One level per number of set bits: 18 levels, C(17, j) states each.
    model = _linear_model([1.0] * 17)
    result = exhaustive_solve(model)
    assert result.metadata["energy_histogram"] == [[float(j), comb(17, j)] for j in range(18)]
    _assert_same_sample_set(model)


def test_histogram_sums_a_level_across_chunks():
    # Only the 12 low variables weigh, 2^i each, so level j holds one
    # state in each of the 64 high states, 16 per chunk over four chunks.
    # The first chunk already sets the cut at level 63, which later
    # chunks must still count.
    model = _linear_model([float(1 << i) for i in range(12)] + [0.0] * 6)
    assert _chunk_of((1 << 18) - 1) == 3
    result = exhaustive_solve(model)
    assert result.metadata["energy_histogram"] == [[float(j), 64] for j in range(64)]
    assert len(result.records) == 64
    _assert_same_sample_set(model)


def test_sample_set_verify_rejects_wrong_energy():
    model = single_variable_model()
    from tsvrp.samplers import SampleRecord, SampleSet

    bogus = SampleSet(records=(SampleRecord((1,), 5.0, 1),))
    with pytest.raises(SamplerError):
        bogus.verify(model)


def test_external_sample_set_reverification(tmp_path):
    model = single_variable_model()
    good = exhaustive_solve(model)
    path = tmp_path / "samples.json"
    doc = good.to_document()
    doc["records"].append(["0", -123.0, 7])  # corrupted import line
    import json

    path.write_text(json.dumps(doc))
    loaded = read_sample_set(path, model=model)
    assert loaded.metadata["rejected_records"] == 1
    assert len(loaded.records) == 1
    assert loaded.records[0].bits == (1,)


def test_import_keeps_only_energies_the_model_confirms(tmp_path):
    # Within the import tolerance a record stays, and the model's energy
    # replaces the stored one, however close that was.
    import json

    model = single_variable_model()
    path = tmp_path / "samples.json"
    path.write_text(json.dumps({"records": [["1", -1.0 + 1e-7, 1], ["0", 1e-12, 2]]}))
    loaded = read_sample_set(path, model=model)
    assert loaded.metadata["rejected_records"] == 0
    assert [(r.bits, r.energy) for r in loaded.records] == [
        ((1,), model.energy((1,))),
        ((0,), model.energy((0,))),
    ]
    assert model.energy((1,)) == -1.0 and model.energy((0,)) == 0.0


def test_sample_set_file_round_trip(tmp_path):
    model = single_variable_model()
    result = exhaustive_solve(model)
    path = tmp_path / "samples.json"
    write_sample_set(result, path)
    loaded = read_sample_set(path, model=model)
    assert loaded.records == result.records


# -- both kernels against a variable-by-variable reference ---------------------


def _reference_anneal(model, schedule, budget=200_000_000):
    """The scan written out variable by variable: chains-first state, the
    whole threshold tape ``-ln(u) / beta`` of a chunk of chains drawn up
    front, and best-ever tracking after every flip.  A sweep visits the
    variables in index order; right after a variable flips, every field
    takes ``w * d`` in its own add, where ``d`` is the variable's spin
    before the flip.  Its start switches each chain's set bits on in
    index order, as the kernels' does."""
    from collections import Counter

    from tsvrp.samplers import SampleRecord, SampleSet, _sa_metadata

    n = model.n_vars
    lin, coupling = model.dense_arrays()
    betas = schedule.betas(model)
    sweeps, restarts = schedule.sweeps, schedule.restarts
    best_bits_all = []
    b0, b1 = schedule.resolved_betas(model)
    metadata = _sa_metadata(model, schedule, b0, b1)
    if n == 0:
        records = (SampleRecord((), model.constant, restarts),)
        return SampleSet(records=records, metadata=metadata)

    accepted = np.zeros(sweeps, dtype=np.int64)
    trajectory = np.full(sweeps + 1, np.inf)
    chunk = max(1, min(restarts, budget // (sweeps * n * 8)))
    for base in range(0, restarts, chunk):
        size = min(chunk, restarts - base)
        bits = np.empty((size, n))
        tape = np.empty((sweeps, n, size))
        for r in range(size):
            rng = np.random.Generator(np.random.PCG64(schedule.seed + base + r))
            bits[r] = rng.integers(0, 2, n)
            tape[:, :, r] = rng.random((sweeps, n))
        with np.errstate(divide="ignore"):  # a uniform of 0 never blocks a flip
            thresholds = -np.log(tape) / betas[:, None, None]
        field_now = np.tile(lin, (size, 1))
        cur = np.full(size, model.constant)
        for j in range(n):  # switch each set bit on, in index order
            on = bits[:, j] == 1
            cur[on] += field_now[on, j]
            field_now[on] += coupling[j]
        best = cur.copy()
        best_bits = bits.copy()
        chunk_traj = [best.min()]
        for t in range(sweeps):
            for j in range(n):
                de = field_now[:, j] * (1.0 - 2.0 * bits[:, j])
                rows = np.nonzero(de < thresholds[t, j])[0]
                accepted[t] += rows.size
                if rows.size:
                    d = 1.0 - 2.0 * bits[rows, j]
                    bits[rows, j] += d
                    cur[rows] += de[rows]
                    improved = rows[cur[rows] < best[rows]]
                    if improved.size:
                        best[improved] = cur[improved]
                        best_bits[improved] = bits[improved]
                    field_now[rows] += np.multiply.outer(d, coupling[j])
            chunk_traj.append(best.min())
        best_bits_all.append(best_bits)
        np.minimum(trajectory, chunk_traj, out=trajectory)

    stacked = np.vstack(best_bits_all).astype(int)
    counts = Counter(tuple(map(int, row)) for row in stacked)
    records = tuple(SampleRecord(bits, model.energy(bits), m) for bits, m in counts.items())
    metadata["best_energy_per_sweep"] = trajectory.tolist()
    metadata["accepted_per_sweep"] = accepted.tolist()
    return SampleSet(records=records, metadata=metadata)


def demo_model():
    from tsvrp.demo import DEMO_LAMBDA, delivery_demo_instance

    inst = delivery_demo_instance()
    return build_model(inst, standard_parameters(inst.costs, DEMO_LAMBDA))


def planted_fleet_model():
    """A capacitated fleet of the size the benchmark anneals: a depot and
    eight customers, four vehicles leaving with two units each, T = 3.
    The legs of routes (1, 2, 3), (1, 4, 5), ... are the cheapest."""
    from cases import _instance

    t, n, vehicles, load = 3, 9, 4, 2
    costs = np.random.default_rng(8).uniform(2.0, 3.2, size=(t - 1, n, n))
    for v in range(vehicles):
        stops = [1, 2 + load * v, 3 + load * v]
        for leg, (b, a) in enumerate(zip(stops, stops[1:])):
            costs[leg, a - 1, b - 1] = 1.0
    costs[0, 0, 1], costs[t - 2, 0, n - 1] = 0.0, 3.2  # pin the range on unusable legs
    variations = np.zeros((t - 1, n, n, 1), dtype=int)
    variations[:, 1:, :, 0] = -1
    fleet = [
        Vehicle(id=v + 1, start_city=1, capacity_lower=(0,), capacity_upper=(load,), start_capacity=(load,))
        for v in range(vehicles)
    ]
    inst = _instance("TS_MCVRP", t, n, fleet, costs, np.ones((t - 1, n, n), dtype=int), variations=variations)
    return build_model(inst, standard_parameters(inst.costs, 2.0))


def _force_shards(monkeypatch, shards):
    """Every call with at least ``shards`` chains runs in ``shards`` shards."""
    monkeypatch.setattr(samplers_module, "_available_cpus", lambda: shards)
    monkeypatch.setattr(samplers_module, "_MIN_SHARD_CHAINS", 1)


# The two kernels of ``simulated_anneal``: the numpy row step, and the
# compiled one, which loads wherever ``cc`` is on PATH (see
# ``test_compiled_kernel_loads_where_a_compiler_is``).
KERNELS = ("numpy", "compiled")


@contextmanager
def _kernel(name):
    """``simulated_anneal`` on the named kernel within the block."""
    with pytest.MonkeyPatch.context() as patch:
        if name == "numpy":
            patch.setattr(samplers_module, "_compiled_kernel", lambda: None)
        yield


def _assert_same_anneal(model, schedule):
    import multiprocessing

    expected = _reference_anneal(model, schedule).to_document()
    for kernel in KERNELS:
        with _kernel(kernel):
            actual = simulated_anneal(model, schedule)
        assert actual.to_document() == expected, kernel
        accepted = actual.metadata["accepted_per_sweep"]
        assert len(accepted) == schedule.sweeps and all(type(k) is int for k in accepted)
        assert not multiprocessing.active_children()


def test_planted_fleet_model_is_fleet_sized():
    model = planted_fleet_model()
    assert model.n_vars == 216
    assert len(model.q_c) > 5_000


def test_kernel_matches_reference_on_every_case(monkeypatch):
    # Groups of two chains; on all but the smallest models, numpy tape
    # blocks of fewer sweeps than the run has.  The compiled kernel's
    # one-chain blocks are whole here; the tape-block test splits them.
    schedule = AnnealSchedule(sweeps=20, restarts=5, seed=41)
    blocked = 0
    for case in load_cases():
        model = build_model(case.instance, standard_parameters(case.instance.costs, case.lam))
        n = model.n_vars
        if n == 0:
            continue
        budget = 3 * samplers_module._chain_bytes(n) + 16 * (schedule.sweeps + 1)
        monkeypatch.setattr(samplers_module, "_TAPE_BUDGET", budget)
        group, block = samplers_module._group_plan(n, schedule.sweeps, schedule.restarts)
        assert group == 2
        assert samplers_module._group_plan(n, schedule.sweeps, schedule.restarts, compiled=True)[0] == 2
        blocked += block < schedule.sweeps
        _assert_same_anneal(model, schedule)
    assert blocked >= 15


@pytest.mark.parametrize("shards", [1, 2, 3])
@pytest.mark.parametrize("restarts", [7, 2])
def test_kernel_matches_reference_across_shards(monkeypatch, shards, restarts):
    _force_shards(monkeypatch, shards)
    schedule = AnnealSchedule(sweeps=9, restarts=restarts, seed=20240817)
    for model in (demo_model(), planted_fleet_model()):
        _assert_same_anneal(model, schedule)


@pytest.mark.parametrize("budget", [1, 30_000, 200_000])
def test_kernel_matches_reference_across_tape_blocks(monkeypatch, budget):
    # From one chain with one sweep per block up to whole groups.  On the
    # fleet model a budget of 1 runs one-chain groups, whose adds to a
    # shared neighbour row must come in index order as in a wide group's
    # lockstep.  The compiled kernel's one-chain blocks hold one sweep at
    # a budget of 1 and ten fleet sweeps at 30,000.
    _force_shards(monkeypatch, 2)
    monkeypatch.setattr(samplers_module, "_TAPE_BUDGET", budget)
    for model in (demo_model(), planted_fleet_model()):
        _assert_same_anneal(model, AnnealSchedule(sweeps=11, restarts=9, seed=3))


@pytest.mark.parametrize("factory", [demo_model, planted_fleet_model])
def test_every_chain_is_the_one_chain_run_at_its_seed(factory):
    # Chain r draws everything from seed + r, so a run of 7 chains, one
    # numpy group in lockstep, holds the records of the seven one-chain
    # runs at seed .. seed + 6, the lowest of their trajectories and the
    # sum of their accepted flips.  Each one-chain run is held to the
    # reference, which checks every chain's own trajectory.
    from collections import Counter

    model = factory()
    schedule = AnnealSchedule(sweeps=9, restarts=7, seed=20240817)
    singles = [AnnealSchedule(sweeps=9, restarts=1, seed=schedule.seed + r) for r in range(7)]
    expected = [_reference_anneal(model, single).to_document() for single in singles]
    for kernel in KERNELS:
        with _kernel(kernel):
            whole = simulated_anneal(model, schedule)
            chains = [simulated_anneal(model, single) for single in singles]
        assert [chain.to_document() for chain in chains] == expected, kernel
        assert {r.bits: r.multiplicity for r in whole.records} == Counter(c.records[0].bits for c in chains)
        trajectories = [c.metadata["best_energy_per_sweep"] for c in chains]
        assert whole.metadata["best_energy_per_sweep"] == np.min(trajectories, axis=0).tolist()
        accepted = [c.metadata["accepted_per_sweep"] for c in chains]
        assert whole.metadata["accepted_per_sweep"] == np.sum(accepted, axis=0).tolist()


@pytest.mark.parametrize("shards", [1, 2])
def test_start_energies_match_the_model(monkeypatch, shards):
    # Each chain's first trajectory entry, that of its one-chain run, is the
    # energy of the bits its own generator draws first, evaluated by the
    # model's sparse terms; a run's first entry is the lowest of them.
    # Neither model has a constant, so each gets one, which a dropped
    # constant shows.
    from tsvrp.samplers import ENERGY_TOL

    _force_shards(monkeypatch, shards)
    schedule = AnnealSchedule(sweeps=3, restarts=5, seed=606)
    for model in (demo_model(), planted_fleet_model()):
        model.constant = 1.25
        for kernel in KERNELS:
            with _kernel(kernel):
                run = simulated_anneal(model, schedule).metadata["best_energy_per_sweep"]
                chains = [
                    simulated_anneal(model, AnnealSchedule(sweeps=3, restarts=1, seed=schedule.seed + c))
                    for c in range(schedule.restarts)
                ]
            starts = [chain.metadata["best_energy_per_sweep"][0] for chain in chains]
            for c, start in enumerate(starts):
                bits = np.random.Generator(np.random.PCG64(schedule.seed + c)).integers(0, 2, model.n_vars)
                assert abs(start - model.energy(tuple(bits.tolist()))) <= ENERGY_TOL
            assert run[0] == min(starts)


def test_every_stored_energy_is_the_model_energy():
    # A dense batch sum rounds with the batch's shape: on the demo, 7 and
    # 64 chains of this schedule each gave records whose batch energy
    # missed `model.energy` in the last digit.
    models = [build_model(c.instance, standard_parameters(c.instance.costs, c.lam)) for c in load_cases()]
    for model in models:
        result = exhaustive_solve(model)
        assert all(r.energy == model.energy(r.bits) for r in result.records)
        assert result.metadata["min_energy"] == result.records[0].energy
    for model in models + [demo_model()]:
        for restarts in (7, 64):
            result = simulated_anneal(model, AnnealSchedule(sweeps=30, restarts=restarts, seed=5))
            assert all(r.energy == model.energy(r.bits) for r in result.records)


def test_sa_needs_no_dense_copy(monkeypatch):
    # The kernel reads the sparse coefficient arrays only, so a dense limit
    # far below the demo's 84 variables changes nothing.
    import tsvrp.qubo as qubo_module

    schedule = AnnealSchedule(sweeps=20, restarts=9, seed=3)
    expected = simulated_anneal(demo_model(), schedule).to_document()
    monkeypatch.setattr(qubo_module, "_DENSE_LIMIT", 10)
    model = demo_model()
    with pytest.raises(qubo_module.BuildError, match="too large"):
        model.dense_arrays()
    assert simulated_anneal(model, schedule).to_document() == expected


class _ZeroPlanted:
    """A generator whose uniforms below ``cut`` come out as exactly 0.0,
    which ``Generator.random`` can return: a rule on values, so a tape
    drawn in blocks holds the same zeros as one drawn whole."""

    cut = 0.05
    generator = np.random.Generator

    def __init__(self, bit_generator):
        self._rng = self.generator(bit_generator)

    def integers(self, *args, **kwargs):
        return self._rng.integers(*args, **kwargs)

    def random(self, size=None, out=None):
        u = self._rng.random(size, out=out)
        u[u < self.cut] = 0.0
        return u


def test_a_zero_uniform_always_flips(monkeypatch):
    # -ln(0) / beta is +inf, so the step flips whatever its dE, where
    # u < exp(-beta * dE) would refuse it once the exp underflows to 0;
    # and the log of 0 warns nowhere.
    monkeypatch.setattr(np.random, "Generator", _ZeroPlanted)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _assert_same_anneal(demo_model(), AnnealSchedule(sweeps=9, restarts=5, seed=11))
        monkeypatch.setattr(_ZeroPlanted, "cut", 1.0)
        model = single_variable_model(coeff=1e6)
        schedule = AnnealSchedule(sweeps=6, restarts=4, seed=2)
        assert np.exp(-schedule.resolved_betas(model)[1] * 1e6) == 0.0
        _assert_same_anneal(model, schedule)
        for kernel in KERNELS:
            with _kernel(kernel):
                result = simulated_anneal(model, schedule)
            assert result.metadata["accepted_per_sweep"] == [schedule.restarts] * schedule.sweeps


def test_compiled_kernel_loads_where_a_compiler_is(monkeypatch, tmp_path):
    # A build that fails falls back to numpy without a word, so a broken
    # kernel would pass every other test; here it fails.  The build's
    # temporary directory is gone once the library is loaded.
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    samplers_module._compiled_kernel.cache_clear()
    try:
        kernel = samplers_module._compiled_kernel()
        assert (kernel is not None) == (shutil.which("cc") is not None)
        assert samplers_module._compiled_kernel() is kernel  # built once per process
    finally:
        samplers_module._compiled_kernel.cache_clear()
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("compiler", [None, "#!/bin/sh\nexit 1\n"], ids=["missing", "failing"])
def test_anneal_falls_back_to_numpy_without_a_working_compiler(monkeypatch, tmp_path, compiler):
    # No cc on PATH, or a cc that exits non-zero: the same documents, no
    # warning, and neither a temporary directory nor a child left behind.
    schedule = AnnealSchedule(sweeps=20, restarts=9, seed=3)
    model = demo_model()
    expected = simulated_anneal(model, schedule).to_document()
    bin_dir, scratch = tmp_path / "bin", tmp_path / "tmp"
    bin_dir.mkdir()
    scratch.mkdir()
    if compiler is not None:
        (bin_dir / "cc").write_text(compiler)
        (bin_dir / "cc").chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    samplers_module._compiled_kernel.cache_clear()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert simulated_anneal(model, schedule).to_document() == expected
        assert samplers_module._compiled_kernel() is None
    finally:
        samplers_module._compiled_kernel.cache_clear()
    assert list(scratch.iterdir()) == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_sa_on_a_model_without_linear_terms():
    # The kernel's linear vector is float64 even when no linear term is left.
    cat = synthetic_catalogue(3)
    model = QuboModel(cat)
    keys = cat.free_keys
    model.add_quadratic(keys[0], keys[1], -1.0)
    model.add_quadratic(keys[1], keys[2], 0.5)
    model.finalize()
    assert len(model.lin_index) == 0
    _assert_same_anneal(model, AnnealSchedule(sweeps=5, restarts=3, seed=1))


def test_group_plan_stays_within_the_budget(monkeypatch):
    # The numpy step holds a tape block of every chain of its group, the
    # compiled kernel one of a single chain.
    for budget in (50_000, 1_000_000, 16_000_000):
        monkeypatch.setattr(samplers_module, "_TAPE_BUDGET", budget)
        for n in (3, 84, 216):
            for sweeps in (1, 40, 1000):
                # Per chain its share of the state; per group the lowest
                # best energy and the accepted flips of each sweep.
                state, shared = samplers_module._chain_bytes(n), 16 * (sweeps + 1)
                if state + shared + 8 * n > budget:
                    continue
                for chains in (1, 7, 2000, 10**6):
                    for compiled in (False, True):
                        group, block = samplers_module._group_plan(n, sweeps, chains, compiled)
                        assert 1 <= group <= chains and 1 <= block <= sweeps
                        tape_chains = 1 if compiled else group
                        assert shared + group * state + 8 * n * tape_chains * block <= budget


def test_sa_memory_does_not_grow_with_sweeps_times_restarts(monkeypatch):
    # Beyond the budget each chain costs a few n-sized rows (its best bits
    # and energy), whatever the number of sweeps.  At 50 x 200 the kernel it
    # replaced held a 1.6 MB tape; at 1 x 5,000 only one group's generators
    # (about 1 kB each) are alive at a time.
    import tracemalloc

    monkeypatch.setattr(samplers_module, "_TAPE_BUDGET", 64_000)
    _force_shards(monkeypatch, 1)
    model = twenty_variable_model()
    n = model.n_vars
    for kernel in KERNELS:
        with _kernel(kernel):
            simulated_anneal(model, AnnealSchedule(sweeps=1, restarts=1))  # one-off allocations stay unmeasured
            for schedule, avoided in (
                (AnnealSchedule(sweeps=50, restarts=200, seed=2), 8 * 50 * n * 200 / 2),
                (AnnealSchedule(sweeps=1, restarts=5_000, seed=2), samplers_module._GENERATOR_BYTES * 5_000),
            ):
                tracemalloc.start()
                try:
                    simulated_anneal(model, schedule)
                    _, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
                assert peak < 64_000 + 5 * 8 * n * schedule.restarts + 100_000 < avoided, kernel


def test_sharded_anneal_reraises_a_shard_failure(monkeypatch):
    import multiprocessing
    import signal

    _force_shards(monkeypatch, 2)
    parent = os.getpid()
    real = samplers_module._anneal_group

    def failing_in_workers(*args):
        if os.getpid() != parent:
            raise SamplerError("worker failed")
        return real(*args)

    def hung(signum, frame):
        raise AssertionError("a failing shard left the caller waiting")

    monkeypatch.setattr(samplers_module, "_anneal_group", failing_in_workers)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(120)
    try:
        with pytest.raises(SamplerError, match="worker failed"):
            simulated_anneal(demo_model(), AnnealSchedule(sweeps=5, restarts=6, seed=1))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert not multiprocessing.active_children()


def test_sharded_anneal_reports_a_shard_that_exits_without_a_result(monkeypatch):
    import multiprocessing

    _force_shards(monkeypatch, 2)
    monkeypatch.setattr(samplers_module, "_shard_child", lambda *args: os._exit(3))
    with pytest.raises(SamplerError) as info:
        simulated_anneal(demo_model(), AnnealSchedule(sweeps=5, restarts=6, seed=1))
    assert str(info.value) == "annealing shard exited with code 3"
    assert not multiprocessing.active_children()


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states from /proc")
def test_shard_child_exits_when_the_caller_is_killed(tmp_path):
    # The child announces itself, the caller dies mid-run, and the child
    # must end once its range is done instead of waiting on a dead pipe.
    import subprocess
    import sys
    import time

    script = tmp_path / "killed_caller.py"
    script.write_text(
        "import os, sys\n"
        "sys.path[:0] = sys.argv[1:]\n"
        "import tsvrp.samplers as S\n"
        "from test_samplers import demo_model\n"
        "S._available_cpus = lambda: 2\n"
        "S._MIN_SHARD_CHAINS = 1\n"
        "real = S._anneal_range\n"
        "def announced(job, lo, hi):\n"
        "    if lo:\n"
        "        print(os.getpid(), flush=True)\n"
        "    return real(job, lo, hi)\n"
        "S._anneal_range = announced\n"
        "S.simulated_anneal(demo_model(), S.AnnealSchedule(sweeps=400, restarts=4, seed=1))\n"
    )
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    caller = subprocess.Popen(
        [sys.executable, str(script), src, here], stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
    )
    try:
        child = int(caller.stdout.readline())
    finally:
        caller.kill()
        caller.wait(timeout=60)

    def running(pid):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
        except FileNotFoundError:
            return False

    deadline = time.monotonic() + 120
    while running(child) and time.monotonic() < deadline:
        time.sleep(0.2)
    assert not running(child)


def test_shard_ranges_cover_every_chain_once(monkeypatch):
    monkeypatch.setattr(samplers_module, "_available_cpus", lambda: 2)
    assert samplers_module._shard_ranges(2000) == [(0, 1000), (1000, 2000)]
    assert samplers_module._shard_ranges(64) == [(0, 64)]
    assert samplers_module._shard_ranges(1023) == [(0, 1023)]
    monkeypatch.setattr(samplers_module, "_available_cpus", lambda: 3)
    assert samplers_module._shard_ranges(10_000) == [(0, 3333), (3333, 6666), (6666, 10_000)]


def test_every_chain_stays_here_while_another_thread_runs(monkeypatch):
    # fork copies only the calling thread, so with a second thread alive
    # even a call that would take two shards runs in this process.
    import threading

    assert threading.active_count() == 1
    _force_shards(monkeypatch, 2)
    assert samplers_module._shard_ranges(6) == [(0, 3), (3, 6)]
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert threading.active_count() == 2
        assert samplers_module._shard_ranges(6) == [(0, 6)]
        _assert_same_anneal(demo_model(), AnnealSchedule(sweeps=9, restarts=6, seed=20240817))
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
