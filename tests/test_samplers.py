import numpy as np
import pytest

from tsvrp import (
    AnnealSchedule,
    QuboModel,
    SamplerError,
    build_model,
    exhaustive_solve,
    simulated_anneal,
    standard_parameters,
)
from tsvrp.samplers import read_sample_set, write_sample_set
import tsvrp.samplers as samplers_module

from cases import load_cases, mc_delivery_run, three_city_dense
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
    assert result.best.bits == (1,)
    assert result.best.energy == pytest.approx(-1.0)


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


def test_sa_never_beats_exhaustive():
    for factory in (three_city_dense, mc_delivery_run):
        case = factory()
        params = standard_parameters(case.instance.costs, case.lam)
        model = build_model(case.instance, params)
        floor = exhaustive_solve(model).best.energy
        result = simulated_anneal(model, AnnealSchedule(sweeps=100, restarts=10, seed=3))
        assert result.best.energy >= floor - 1e-9


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
    floor = exhaustive_solve(model).best.energy
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
    assert annealed.best.energy >= full.best.energy - 1e-9


# -- one enumeration pass against the two-pass version it replaced -----------------


def _two_pass_exhaustive(model: QuboModel, cap: int = 25):
    """The earlier ``exhaustive_solve``: find the best, then enumerate again for its rows."""
    from tsvrp.samplers import ENERGY_TOL, SampleSet, _merge_records

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
    minima_bits, minima_energy = [], []
    for base in range(0, total, chunk):
        vals = np.arange(base, min(base + chunk, total), dtype=np.uint64)
        bits = ((vals[:, None] >> shifts) & 1).astype(float)
        energies = model.energies(bits)
        for row in np.nonzero(energies <= best + ENERGY_TOL)[0]:
            minima_bits.append(tuple(int(x) for x in bits[row]))
            minima_energy.append(float(energies[row]))
    return SampleSet(
        records=_merge_records(minima_bits, minima_energy),
        metadata={
            "sampler": "exhaustive",
            "model_ref": model.fingerprint(),
            "n_enumerated": total,
            "min_energy": best,
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
    assert result.best.energy == pytest.approx(-2.0 - 1e-6, abs=1e-12)
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


def test_sample_set_file_round_trip(tmp_path):
    model = single_variable_model()
    result = exhaustive_solve(model)
    path = tmp_path / "samples.json"
    write_sample_set(result, path)
    loaded = read_sample_set(path, model=model)
    assert loaded.records == result.records
