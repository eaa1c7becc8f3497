import os

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
    cat = synthetic_catalogue(3)
    model = QuboModel(cat).finalize()
    with pytest.raises(SamplerError, match="capped"):
        exhaustive_solve(model, cap=2)


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
    case = three_city_dense()
    params = standard_parameters(case.instance.costs, case.lam)
    model = build_model(case.instance, params)
    schedule = AnnealSchedule(sweeps=60, restarts=6, seed=9)
    result = simulated_anneal(model, schedule, track_chains=True)
    chains = result.metadata["chain_best_per_sweep"]
    assert len(chains) == 6
    for chain in chains:
        assert all(later <= earlier + 1e-12 for earlier, later in zip(chain, chain[1:]))


def test_samplers_on_a_model_without_free_variables():
    case = no_free_variables()
    model = build_model(case.instance, standard_parameters(case.instance.costs, case.lam))
    assert model.n_vars == 0
    constant = model.constant
    schedule = AnnealSchedule(sweeps=7, restarts=3, seed=1)
    tracked = simulated_anneal(model, schedule, track_chains=True)
    assert tracked.to_document()["records"] == [["", constant, 3]]
    assert tracked.metadata["best_energy_per_sweep"] == [constant] * 8
    assert tracked.metadata["chain_best_per_sweep"] == [[constant] * 8] * 3
    untracked = simulated_anneal(model, schedule)
    assert untracked.to_document()["records"] == [["", constant, 3]]
    assert untracked.metadata["best_energy_per_sweep"] == [constant] * 8
    assert "chain_best_per_sweep" not in untracked.metadata
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
    # so simulating the 109 distinct chains once and taking sliding-window
    # minima reproduces every run's best exactly.
    model = twenty_variable_model()
    assert model.n_vars == 20
    floor = exhaustive_solve(model).records[0].energy
    schedule = AnnealSchedule(sweeps=2000, restarts=109, seed=0)
    result = simulated_anneal(model, schedule, track_chains=True)
    chain_best = [chain[-1] for chain in result.metadata["chain_best_per_sweep"]]
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


def test_single_pass_exhaustive_drops_an_early_near_minimum():
    # 17 variables make two 65,536-row chunks.  The first chunk's best row
    # (x0 alone, -1) is within tolerance of its running best, but the
    # minimum (x0 and x16, -2 - 1e-6, tied with x1 and x16) lies in the
    # second chunk, so the early row must not survive.
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


# -- the chains-last kernel against the chunked kernel it replaced ------------------


def _reference_anneal(model, schedule, track_chains=False, budget=200_000_000):
    """The earlier ``simulated_anneal``: chains-first state, the whole random
    tape of a chunk of chains drawn up front, a separate branch for uphill
    steps, and every field of an accepting chain updated on each flip.  Its
    start switches each chain's set bits on in index order, as the kernel's
    does."""
    from collections import Counter

    from tsvrp.samplers import SampleRecord, SampleSet, _sa_metadata

    n = model.n_vars
    lin, coupling = model.dense_arrays()
    betas = schedule.betas(model)
    sweeps, restarts = schedule.sweeps, schedule.restarts
    best_bits_all, trajectory = [], []
    if n == 0:
        records = (SampleRecord((), model.constant, restarts),)
        b0, b1 = schedule.resolved_betas(model)
        return SampleSet(records=records, metadata=_sa_metadata(model, schedule, b0, b1))

    chunk = max(1, min(restarts, budget // (sweeps * n * 8)))
    for base in range(0, restarts, chunk):
        size = min(chunk, restarts - base)
        bits = np.empty((size, n))
        tape = np.empty((sweeps, n, size))
        for r in range(size):
            rng = np.random.Generator(np.random.PCG64(schedule.seed + base + r))
            bits[r] = rng.integers(0, 2, n)
            tape[:, :, r] = rng.random((sweeps, n))
        field_now = np.tile(lin, (size, 1))
        cur = np.full(size, model.constant)
        for j in range(n):  # switch each set bit on, in index order
            on = bits[:, j] == 1
            cur[on] += field_now[on, j]
            field_now[on] += coupling[j]
        best = cur.copy()
        best_bits = bits.copy()
        chunk_traj = [best.copy()]
        for t in range(sweeps):
            beta = betas[t]
            for j in range(n):
                de = field_now[:, j] * (1.0 - 2.0 * bits[:, j])
                accept = de <= 0.0
                uphill = ~accept
                if uphill.any():
                    accept[uphill] = tape[t, j, uphill] < np.exp(-beta * de[uphill])
                rows = np.nonzero(accept)[0]
                if rows.size:
                    sign = 1.0 - 2.0 * bits[rows, j]
                    bits[rows, j] += sign
                    field_now[rows] += sign[:, None] * coupling[j]
                    cur[rows] += de[rows]
                    improved = rows[cur[rows] < best[rows]]
                    if improved.size:
                        best[improved] = cur[improved]
                        best_bits[improved] = bits[improved]
            chunk_traj.append(best.copy())
        best_bits_all.append(best_bits)
        trajectory.append(np.stack(chunk_traj, axis=0))

    stacked = np.vstack(best_bits_all).astype(int)
    counts = Counter(tuple(map(int, row)) for row in stacked)
    records = tuple(SampleRecord(bits, model.energy(bits), m) for bits, m in counts.items())
    b0, b1 = schedule.resolved_betas(model)
    metadata = _sa_metadata(model, schedule, b0, b1)
    full_trajectory = np.concatenate(trajectory, axis=1)
    metadata["best_energy_per_sweep"] = full_trajectory.min(axis=1).tolist()
    if track_chains:
        metadata["chain_best_per_sweep"] = full_trajectory.T.tolist()
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


def _assert_same_anneal(model, schedule):
    import multiprocessing

    for track in (True, False):
        expected = _reference_anneal(model, schedule, track)
        actual = simulated_anneal(model, schedule, track_chains=track)
        assert actual.to_document() == expected.to_document()
        assert ("chain_best_per_sweep" in actual.metadata) == track
        assert not multiprocessing.active_children()


def test_planted_fleet_model_is_fleet_sized():
    model = planted_fleet_model()
    assert model.n_vars == 216
    assert len(model.q_c) > 5_000


def test_kernel_matches_reference_on_every_case(monkeypatch):
    # Groups of two chains; on all but the smallest models, tape blocks of
    # fewer sweeps than the run has.
    schedule = AnnealSchedule(sweeps=20, restarts=5, seed=41)
    blocked = 0
    for case in load_cases():
        model = build_model(case.instance, standard_parameters(case.instance.costs, case.lam))
        n = model.n_vars
        if n == 0:
            continue
        monkeypatch.setattr(samplers_module, "_TAPE_BUDGET", 3 * samplers_module._chain_bytes(n, schedule.sweeps))
        group, block = samplers_module._group_plan(n, schedule.sweeps, schedule.restarts)
        assert group == 2
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
    # From one chain with one sweep per block up to whole groups.
    _force_shards(monkeypatch, 2)
    monkeypatch.setattr(samplers_module, "_TAPE_BUDGET", budget)
    _assert_same_anneal(demo_model(), AnnealSchedule(sweeps=11, restarts=9, seed=3))


@pytest.mark.parametrize("shards", [1, 2])
def test_start_energies_match_the_model(monkeypatch, shards):
    # Each chain's first trajectory entry is the energy of the bits its own
    # generator draws first, evaluated by the model's sparse terms.  Neither
    # model has a constant, so each gets one, which a dropped constant shows.
    from tsvrp.samplers import ENERGY_TOL

    _force_shards(monkeypatch, shards)
    schedule = AnnealSchedule(sweeps=3, restarts=5, seed=606)
    for model in (demo_model(), planted_fleet_model()):
        model.constant = 1.25
        result = simulated_anneal(model, schedule, track_chains=True)
        for c, chain in enumerate(result.metadata["chain_best_per_sweep"]):
            bits = np.random.Generator(np.random.PCG64(schedule.seed + c)).integers(0, 2, model.n_vars)
            assert abs(chain[0] - model.energy(tuple(bits.tolist()))) <= ENERGY_TOL


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
    for budget in (50_000, 1_000_000, 16_000_000):
        monkeypatch.setattr(samplers_module, "_TAPE_BUDGET", budget)
        for n in (3, 84, 216):
            for sweeps in (1, 40, 1000):
                state = samplers_module._chain_bytes(n, sweeps)
                if state + 8 * n > budget:
                    continue
                for chains in (1, 7, 2000, 10**6):
                    group, block = samplers_module._group_plan(n, sweeps, chains)
                    assert 1 <= group <= chains and 1 <= block <= sweeps
                    assert group * state + 8 * n * group * block <= budget


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
        assert peak < 64_000 + 5 * 8 * n * schedule.restarts + 100_000 < avoided


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
