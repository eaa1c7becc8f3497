import copy
import json

import pytest
from hypothesis import given, strategies as st

from tsvrp import enumerate_optimal_routes, serialize_instance
from tsvrp.cli import main
from tsvrp.instance import instance_to_document

from cases import (
    mcsvrp_two_city,
    no_free_variables,
    svrp_three_city,
    three_city_dense,
    three_city_window_order,
    two_city_plain,
)
from test_instance import minimal_document


@pytest.fixture
def minimal_instance_path(tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(serialize_instance(two_city_plain().instance))
    return str(path)


@pytest.fixture
def three_city_path(tmp_path):
    path = tmp_path / "three.json"
    path.write_text(serialize_instance(three_city_dense().instance))
    return str(path)


def test_build_minimal_summary(minimal_instance_path, tmp_path, capsys):
    out = tmp_path / "model.json"
    code = main(
        ["build", "--instance", minimal_instance_path, "--lambda", "1.0", "--out", str(out)]
    )
    captured = capsys.readouterr().out
    assert code == 0
    assert "total qubits: 4" in captured
    assert "fixed to one: 1" in captured
    doc = json.loads(out.read_text())
    assert doc["n_vars"] == 2
    assert doc["run_config"]["lambda"] == 1.0


def test_build_rejects_nonpositive_lambda(minimal_instance_path, tmp_path, capsys):
    # NaN would pass a plain `<= 0` test, and the coefficient filter would
    # then drop every term.
    for lam in ("0", "nan", "inf"):
        code = main(
            ["build", "--instance", minimal_instance_path, "--lambda", lam, "--out", str(tmp_path / "m.json")]
        )
        assert code == 2
        assert "--lambda must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "m.json").exists()


def test_solve_and_stats_reject_non_finite_lambda_or_delta(minimal_instance_path, tmp_path, capsys):
    assert _solve_sa(minimal_instance_path, tmp_path / "r") == 0
    for flag, value in (("--lambda", "nan"), ("--lambda", "inf"), ("--delta", "nan"), ("--delta", "inf")):
        assert _solve_sa(minimal_instance_path, tmp_path / "bad", flag, value) == 2
        assert f"{flag} must be" in capsys.readouterr().err
        stats = ["stats", "--instance", minimal_instance_path, "--samples", str(tmp_path / "r.samples.json")]
        assert main([*stats, "--out", str(tmp_path / "bad"), flag, value]) == 2
        assert f"{flag} must be" in capsys.readouterr().err
    assert not list(tmp_path.glob("bad*"))


def test_unknown_flag_is_usage_error(minimal_instance_path, tmp_path):
    code = main(["build", "--instance", minimal_instance_path, "--frobnicate", "1"])
    assert code == 2


def test_missing_instance_file(tmp_path):
    code = main(["build", "--instance", str(tmp_path / "nope.json"), "--out", str(tmp_path / "m.json")])
    assert code == 2


def test_solve_exhaustive_minimal(minimal_instance_path, tmp_path, capsys):
    out = tmp_path / "run"
    code = main(
        [
            "solve",
            "--instance", minimal_instance_path,
            "--lambda", "2.0",
            "--sampler", "exhaustive",
            "--out", str(out),
        ]
    )
    captured = capsys.readouterr().out
    assert code == 0
    assert "feasible rate: 1.0" in captured
    assert "best feasible cost: 5.0" in captured
    stats_doc = json.loads((tmp_path / "run.stats.json").read_text())
    assert stats_doc["best_feasible_cost"] == 5.0
    assert (tmp_path / "run.samples.json").exists()
    assert (tmp_path / "run.stats.csv").read_text().startswith("energy,feasible")


def test_solve_is_byte_deterministic(three_city_path, tmp_path):
    args = [
        "solve",
        "--instance", three_city_path,
        "--lambda", "1.0",
        "--sampler", "sa",
        "--sweeps", "60",
        "--restarts", "12",
        "--seed", "42",
    ]
    main(args + ["--out", str(tmp_path / "a")])
    main(args + ["--out", str(tmp_path / "b")])
    for suffix in (".samples.json", ".stats.json", ".stats.csv"):
        first = (tmp_path / f"a{suffix}").read_bytes()
        second = (tmp_path / f"b{suffix}").read_bytes()
        # output paths are embedded in the run config, so compare modulo the name
        assert first.replace(b"/a", b"/x") == second.replace(b"/b", b"/x"), suffix


def test_solve_infeasible_instance_exits_one(tmp_path):
    from tsvrp import Instance, TimeGrid, Vehicle, CostSeries, DurationSeries, WindowSet
    import numpy as np

    inst = Instance(
        grid=TimeGrid(2, 10.0),
        city_labels=("a", "b"),
        vehicles=(Vehicle(id=1, start_city=1),),
        costs=CostSeries(np.where(np.eye(2), 0.0, 4.0)[None]),
        durations=DurationSeries(np.ones((1, 2, 2), dtype=int)),
        variations=None,
        windows=WindowSet(frozenset({(1, 2, 2)})),
        model_kind="TS_VRP",
        capacity_dims=0,
    )
    path = tmp_path / "closed.json"
    path.write_text(serialize_instance(inst))
    code = main(
        ["solve", "--instance", str(path), "--lambda", "1.0", "--out", str(tmp_path / "r")]
    )
    assert code == 1


@pytest.mark.parametrize("sampler", ["exhaustive", "sa"])
def test_solve_without_free_variables_exits_one(tmp_path, capsys, sampler):
    path = tmp_path / "pinned.json"
    path.write_text(serialize_instance(no_free_variables().instance))
    code = main(
        ["solve", "--instance", str(path), "--sampler", sampler, "--out", str(tmp_path / "r")]
    )
    assert code == 1
    assert "free variables: 0" in capsys.readouterr().out
    stats_doc = json.loads((tmp_path / "r.stats.json").read_text())
    assert stats_doc["feasible_count"] == 0


def test_build_prints_warnings_before_the_summary(tmp_path, capsys):
    path = tmp_path / "closed.json"
    doc = minimal_document(windows=[{"vehicle": 1, "tau": tau, "city": 2} for tau in (1, 2)])
    path.write_text(json.dumps(doc))
    code = main(["build", "--instance", str(path), "--out", str(tmp_path / "m.json")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    assert lines[0] == "[warning] city-unvisitable: city 2 is unvisitable: every interval is window-forbidden"
    assert lines[1].startswith("total qubits: ")


def test_build_refuses_an_unreachable_end_city(tmp_path, capsys):
    # 25 minutes on a 20-minute grid take two intervals: 1 + 2 > T = 2.
    doc = minimal_document()
    doc["vehicles"] = [{"start": 1, "end": 2, "q": [], "Q": []}]
    path = tmp_path / "far.json"
    path.write_text(json.dumps(doc))
    code = main(["build", "--instance", str(path), "--out", str(tmp_path / "m.json")])
    assert code == 2
    assert "cannot reach its end city" in capsys.readouterr().err


def test_oracle_and_check_round_trip(three_city_path, tmp_path, capsys):
    plans_path = tmp_path / "plans.json"
    code = main(
        ["oracle", "--instance", three_city_path, "--lambda", "1.0", "--out", str(plans_path)]
    )
    assert code == 0
    doc = json.loads(plans_path.read_text())
    assert doc["optimal_cost"] == pytest.approx(5.5)  # legs 1->2 (3.0) and 2->3 (2.5)
    capsys.readouterr()

    report_path = tmp_path / "report.json"
    code = main(
        [
            "check",
            "--instance", three_city_path,
            "--plan", str(plans_path),
            "--lambda", "1.0",
            "--out", str(report_path),
        ]
    )
    assert code == 0
    assert json.loads(report_path.read_text())["feasible"] is True


def test_check_flags_hand_edited_revisit(three_city_path, tmp_path, capsys):
    plan_doc = {
        "vehicles": [
            {
                "vehicle": 1,
                "events": [
                    {"tau": 1, "city": 1, "state": "plain", "capacity": []},
                    {"tau": 2, "city": 2, "state": "plain", "capacity": []},
                    {"tau": 3, "city": 2, "state": "plain", "capacity": []},
                ],
            }
        ]
    }
    plan_path = tmp_path / "bad_plan.json"
    plan_path.write_text(json.dumps(plan_doc))
    code = main(
        [
            "check",
            "--instance", three_city_path,
            "--plan", str(plan_path),
            "--lambda", "1.0",
            "--out", str(tmp_path / "report.json"),
        ]
    )
    captured = capsys.readouterr().out
    assert code == 1
    assert "REVISIT" in captured


def test_check_mode_changes_verdict_on_gap_leg(tmp_path):
    case = three_city_window_order()
    inst_path = tmp_path / "windowed.json"
    inst_path.write_text(serialize_instance(case.instance))
    # a plan that reaches city 3 one interval late, forced by the window
    plan_doc = {
        "vehicles": [
            {
                "vehicle": 1,
                "events": [
                    {"tau": 1, "city": 1, "state": "plain", "capacity": []},
                    {"tau": 3, "city": 3, "state": "plain", "capacity": []},
                ],
            }
        ]
    }
    plan_path = tmp_path / "gap_plan.json"
    plan_path.write_text(json.dumps(plan_doc))
    tolerant = main(
        [
            "check",
            "--instance", str(inst_path),
            "--plan", str(plan_path),
            "--lambda", "1.0",
            "--mode", "window-tolerant",
            "--out", str(tmp_path / "r1.json"),
        ]
    )
    strict = main(
        [
            "check",
            "--instance", str(inst_path),
            "--plan", str(plan_path),
            "--lambda", "1.0",
            "--mode", "strict",
            "--out", str(tmp_path / "r2.json"),
        ]
    )
    # tolerant mode accepts the forced detour but still reports the
    # unvisited customer; strict mode adds the late-arrival violation
    r1 = json.loads((tmp_path / "r1.json").read_text())
    r2 = json.loads((tmp_path / "r2.json").read_text())
    kinds1 = {v["kind"] for v in r1["violations"]}
    kinds2 = {v["kind"] for v in r2["violations"]}
    assert "LATE_ARRIVAL" not in kinds1
    assert "LATE_ARRIVAL" in kinds2
    assert tolerant == 1 and strict == 1  # city 2 is unserved either way


def test_oracle_infeasible_instance(tmp_path):
    from tsvrp import Instance, TimeGrid, Vehicle, CostSeries, DurationSeries, WindowSet
    import numpy as np

    inst = Instance(
        grid=TimeGrid(2, 10.0),
        city_labels=("a", "b"),
        vehicles=(Vehicle(id=1, start_city=1),),
        costs=CostSeries(np.where(np.eye(2), 0.0, 4.0)[None]),
        durations=DurationSeries(np.ones((1, 2, 2), dtype=int)),
        variations=None,
        windows=WindowSet(frozenset({(1, 2, 2)})),
        model_kind="TS_VRP",
        capacity_dims=0,
    )
    path = tmp_path / "closed.json"
    path.write_text(serialize_instance(inst))
    out = tmp_path / "plans.json"
    code = main(["oracle", "--instance", str(path), "--lambda", "1.0", "--out", str(out)])
    assert code == 1
    assert json.loads(out.read_text())["plans"] == []


def test_oracle_cap_refusal(three_city_path, tmp_path):
    code = main(
        [
            "oracle",
            "--instance", three_city_path,
            "--lambda", "1.0",
            "--max-nodes", "2",
            "--out", str(tmp_path / "x.json"),
        ]
    )
    assert code == 2


def test_stats_on_solver_output(three_city_path, tmp_path):
    main(
        [
            "solve",
            "--instance", three_city_path,
            "--lambda", "1.0",
            "--sampler", "exhaustive",
            "--out", str(tmp_path / "run"),
        ]
    )
    code = main(
        [
            "stats",
            "--instance", three_city_path,
            "--lambda", "1.0",
            "--samples", str(tmp_path / "run.samples.json"),
            "--out", str(tmp_path / "regraded"),
        ]
    )
    assert code == 0
    doc = json.loads((tmp_path / "regraded.stats.json").read_text())
    assert doc["feasible_rate"] == 1.0
    assert doc["rejected_records"] == 0


def test_stats_reproduces_the_solve_stats_csv(tmp_path):
    # Every stored energy is the model's own sum, so re-deriving it on
    # import keeps each last digit and with them the row order.  Two rows
    # here are records whose dense batch sum and sparse sum differ.
    from tsvrp.demo import delivery_demo_instance

    instance = tmp_path / "demo.json"
    instance.write_text(serialize_instance(delivery_demo_instance()))
    common = ["--instance", str(instance), "--lambda", "2"]
    solve = ["solve", *common, "--sampler", "sa", "--sweeps", "60", "--restarts", "200", "--seed", "5"]
    assert main([*solve, "--out", str(tmp_path / "run")]) == 0
    stats = ["stats", *common, "--samples", str(tmp_path / "run.samples.json")]
    assert main([*stats, "--out", str(tmp_path / "regraded")]) == 0
    assert (tmp_path / "regraded.stats.csv").read_bytes() == (tmp_path / "run.stats.csv").read_bytes()


def test_stats_rejects_corrupted_records(three_city_path, tmp_path):
    main(
        [
            "solve",
            "--instance", three_city_path,
            "--lambda", "1.0",
            "--sampler", "exhaustive",
            "--out", str(tmp_path / "run"),
        ]
    )
    samples_path = tmp_path / "run.samples.json"
    doc = json.loads(samples_path.read_text())
    bits, energy, mult = doc["records"][0]
    doc["records"].append([bits.translate(str.maketrans("01", "10")), energy + 99.0, 1])
    samples_path.write_text(json.dumps(doc))
    code = main(
        [
            "stats",
            "--instance", three_city_path,
            "--lambda", "1.0",
            "--samples", str(samples_path),
            "--out", str(tmp_path / "regraded"),
        ]
    )
    assert code == 0
    regraded = json.loads((tmp_path / "regraded.stats.json").read_text())
    assert regraded["rejected_records"] == 1


def test_build_reports_reference_scale_free_count(tmp_path, capsys):
    from tsvrp.demo import delivery_demo_instance

    path = tmp_path / "demo.json"
    path.write_text(serialize_instance(delivery_demo_instance()))
    code = main(["build", "--instance", str(path), "--lambda", "2.0", "--out", str(tmp_path / "m.json")])
    captured = capsys.readouterr().out
    assert code == 0
    assert "total qubits: 168" in captured
    assert "free variables: 84" in captured


def test_seed_env_var_sets_default(minimal_instance_path, tmp_path, monkeypatch):
    monkeypatch.setenv("TSVRP_SEED", "77")
    main(
        [
            "solve",
            "--instance", minimal_instance_path,
            "--lambda", "1.0",
            "--sampler", "sa",
            "--sweeps", "10",
            "--restarts", "2",
            "--out", str(tmp_path / "r"),
        ]
    )
    doc = json.loads((tmp_path / "r.samples.json").read_text())
    assert doc["run_config"]["seed"] == 77
    assert doc["metadata"]["seed"] == 77


@pytest.mark.parametrize(
    "flag, env",
    [(["--seed", "-1"], None), ([], "-5"), ([], "abc")],
    ids=["negative-flag", "negative-env", "non-integer-env"],
)
@pytest.mark.parametrize("sampler", ["sa", "exhaustive"])
def test_bad_seed_is_usage_error(minimal_instance_path, tmp_path, monkeypatch, capsys, flag, env, sampler):
    if env is not None:
        monkeypatch.setenv("TSVRP_SEED", env)
    code = main(
        [
            "solve",
            "--instance", minimal_instance_path,
            "--sampler", sampler,
            "--out", str(tmp_path / "r"),
            *flag,
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err.lower() and "internal" not in err


def test_module_entry_point(minimal_instance_path, tmp_path):
    import subprocess
    import sys

    out = tmp_path / "model.json"
    proc = subprocess.run(
        [
            sys.executable, "-m", "tsvrp",
            "build",
            "--instance", minimal_instance_path,
            "--lambda", "1.0",
            "--out", str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "free variables: 2" in proc.stdout


def _solve_sa(instance_path, out, *extra):
    return main(
        [
            "solve",
            "--instance", instance_path,
            "--sampler", "sa",
            "--sweeps", "10",
            "--restarts", "2",
            "--out", str(out),
            *extra,
        ]
    )


def test_single_beta_flag_resolves_on_its_own(minimal_instance_path, tmp_path):
    assert _solve_sa(minimal_instance_path, tmp_path / "r", "--beta-start", "5") == 0
    doc = json.loads((tmp_path / "r.samples.json").read_text())
    assert doc["run_config"]["beta_start"] == 5.0
    assert doc["metadata"]["beta_start"] == 5.0
    assert doc["metadata"]["beta_end"] == 10.0  # the lambda = 1 default


def test_single_beta_flag_past_the_other_default_is_usage_error(minimal_instance_path, tmp_path):
    # At lambda = 2 the default beta_end is 5, below the given beta_start.
    code = _solve_sa(minimal_instance_path, tmp_path / "r", "--beta-start", "50", "--lambda", "2")
    assert code == 2


@pytest.mark.parametrize(
    "betas",
    [["--beta-end", "inf"], ["--beta-start", "1e-10", "--beta-end", "1e300"]],
    ids=["infinite", "overflowing-ratio"],
)
def test_non_finite_beta_ramp_is_usage_error(minimal_instance_path, tmp_path, betas):
    assert _solve_sa(minimal_instance_path, tmp_path / "r", *betas) == 2


def _stats(instance_path, samples_path, out):
    return main(
        [
            "stats",
            "--instance", instance_path,
            "--samples", str(samples_path),
            "--out", str(out),
        ]
    )


@pytest.mark.parametrize(
    "text",
    ["{not json", json.dumps({"records": [["01", 0.0]]}), "[]", '{"records": [["01", 1%s, 1]]}' % ("0" * 400)],
    ids=["malformed-json", "two-field-record", "not-an-object", "energy-overflow"],
)
def test_stats_rejects_malformed_sample_document(minimal_instance_path, tmp_path, text):
    samples = tmp_path / "s.json"
    samples.write_text(text)
    assert _stats(minimal_instance_path, samples, tmp_path / "g") == 2


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: [r[0] + "01", r[1], r[2]],
        lambda r: [r[0][:-1] + "x", r[1], r[2]],
        lambda r: [r[0], r[1], -7],
        lambda r: [r[0], r[1], 0],
        lambda r: [r[0], r[1], 1.5],
        lambda r: [r[0], float("nan"), r[2]],
    ],
    ids=["wrong-length", "non-binary", "negative", "zero", "fractional", "nan-energy"],
)
def test_stats_rejects_hostile_records(minimal_instance_path, tmp_path, corrupt):
    main(["solve", "--instance", minimal_instance_path, "--out", str(tmp_path / "run")])
    samples = tmp_path / "run.samples.json"
    doc = json.loads(samples.read_text())
    doc["records"] = [corrupt(doc["records"][0])]
    samples.write_text(json.dumps(doc))
    assert _stats(minimal_instance_path, samples, tmp_path / "g") == 1
    graded = json.loads((tmp_path / "g.stats.json").read_text())
    assert graded["rejected_records"] == 1
    assert graded["total_samples"] == 0


_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(alphabet="01x", max_size=4)
)
_records = st.lists(_scalars, max_size=4) | _scalars
_documents = st.fixed_dictionaries(
    {"records": st.lists(_records, max_size=4) | _scalars},
    optional={"metadata": st.dictionaries(st.text(max_size=3), _scalars, max_size=2) | _scalars},
)


@given(text=_documents.map(json.dumps) | st.lists(_scalars, max_size=3).map(json.dumps) | st.text(max_size=12))
def test_stats_fuzz_never_ends_in_internal_error(tmp_path_factory, text):
    base = tmp_path_factory.mktemp("fuzz")
    instance = base / "instance.json"
    instance.write_text(serialize_instance(two_city_plain().instance))
    samples = base / "s.json"
    samples.write_text(text)
    assert _stats(str(instance), samples, base / "g") in (0, 1, 2)


def _set(path, value):
    def mutate(doc):
        *parents, last = path
        node = doc
        for key in parents:
            node = node[key]
        node[last] = value(node[last]) if callable(value) else value

    return mutate


def _oracle(doc, tmp_path, *extra):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(doc))
    return main(["oracle", "--instance", str(path), "--out", str(tmp_path / "plans.json"), *extra])


@pytest.mark.parametrize(
    "mutate",
    [
        _set(("vehicles",), [1]),
        _set(("windows",), [5]),
        _set(("grid", "T"), None),
        _set(("grid", "unit_minutes"), "x"),
        _set(("cities",), 5),
        _set(("capacity_dims",), "a"),
        _set(("vehicles", 0, "q"), 3),
        _set(("vehicles", 0, "start"), [1]),
        _set(("vehicles", 0, "start"), 1.5),
        _set(("grid", "T"), lambda t: t + 0.7),
        _set(("grid", "T"), str),
        _set(("grid", "unit_minutes"), float("nan")),
        _set(("raw_minutes", 0, 1, 0), float("nan")),
        _set(("raw_minutes", 0, 1, 0), float("inf")),
    ],
    ids=[
        "vehicle-not-object",
        "window-not-object",
        "null-T",
        "string-unit-minutes",
        "cities-not-list",
        "string-capacity-dims",
        "scalar-q",
        "list-start",
        "fractional-start",
        "fractional-T",
        "string-T",
        "nan-unit-minutes",
        "nan-raw-minutes",
        "infinite-raw-minutes",
    ],
)
def test_oracle_rejects_malformed_instance_fields(tmp_path, mutate):
    doc = instance_to_document(three_city_dense().instance)
    mutate(doc)
    assert _oracle(doc, tmp_path) == 2


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "infinite"])
def test_oracle_rejects_non_finite_stay_minutes(tmp_path, value):
    doc = instance_to_document(svrp_three_city().instance)
    doc["stay_minutes"][0][1] = value
    assert _oracle(doc, tmp_path) == 2


def test_integral_floats_still_read_as_integers(tmp_path, capsys):
    doc = instance_to_document(three_city_dense().instance)
    doc["grid"]["T"] = float(doc["grid"]["T"])
    doc["vehicles"][0]["start"] = 1.0
    assert _oracle(doc, tmp_path) == 0
    assert "optimal cost: 5.5" in capsys.readouterr().out


_json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
_DELETE = object()


def _paths(node, prefix=()):
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _apply(doc, mutations):
    doc = copy.deepcopy(doc)
    for path, value in mutations:
        node = doc
        try:
            for key in path[:-1]:
                node = node[key]
            if value is _DELETE:
                del node[path[-1]]
            else:
                node[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed the path
    return doc


def _mutated(case):
    doc = instance_to_document(case.instance)
    mutation = st.tuples(st.sampled_from(list(_paths(doc))), st.just(_DELETE) | _json_values)
    return st.lists(mutation, min_size=1, max_size=3).map(lambda m: (case, _apply(doc, m)))


@given(pair=_mutated(three_city_dense()) | _mutated(mcsvrp_two_city()))
def test_instance_fuzz_never_ends_in_internal_error(tmp_path_factory, pair):
    case, doc = pair
    base = tmp_path_factory.mktemp("fuzz")
    instance = base / "instance.json"
    instance.write_text(json.dumps(doc))
    _, plans = enumerate_optimal_routes(case.instance)
    plan = base / "plan.json"
    plan.write_text(json.dumps(plans[0].to_document()))
    common = ["--instance", str(instance), "--out", str(base / "out.json")]
    assert main(["oracle", *common, "--max-nodes", "2000"]) in (0, 1, 2)
    assert main(["check", *common, "--plan", str(plan)]) in (0, 1, 2)


def _check(tmp_path, case, doc, *extra):
    instance = tmp_path / "instance.json"
    instance.write_text(serialize_instance(case.instance))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(doc))
    common = ["--instance", str(instance), "--out", str(tmp_path / "report.json")]
    return main(["check", *common, "--plan", str(plan), *extra])


def _optimal_plan_document(case):
    _, plans = enumerate_optimal_routes(case.instance)
    return plans[0].to_document()


def _event(field, value):
    def mutate(doc):
        doc["vehicles"][0]["events"][1][field] = value
        return doc

    return mutate


@pytest.mark.parametrize(
    "mutate, extra",
    [
        (lambda d: {"vehicles": 5}, ()),
        (lambda d: {"vehicles": [5]}, ()),
        (lambda d: {"vehicles": [{"vehicle": 1, "events": [1]}]}, ()),
        (_event("tau", [1]), ()),
        (_event("tau", 1.5), ()),
        (_event("tau", True), ()),
        (_event("state", 7), ()),
        (_event("state", "parked"), ()),
        (_event("capacity", 3), ()),
        (lambda d: {"vehicles": d["vehicles"] * 2}, ()),
        (lambda d: {"plans": [1]}, ()),
        (lambda d: {"plans": 3}, ()),
        (lambda d: [1], ()),
        (lambda d: {"plans": [d]}, ("--plan-index", "1")),
        (lambda d: {"plans": [d]}, ("--plan-index", "-1")),
    ],
    ids=[
        "vehicles-not-list",
        "vehicle-not-object",
        "event-not-object",
        "list-tau",
        "fractional-tau",
        "boolean-tau",
        "integer-state",
        "unknown-state",
        "scalar-capacity",
        "vehicle-twice",
        "plan-not-object",
        "plans-not-list",
        "top-level-list",
        "index-past-end",
        "negative-index",
    ],
)
def test_check_rejects_malformed_plan_documents(tmp_path, mutate, extra):
    case = three_city_dense()
    assert _check(tmp_path, case, mutate(_optimal_plan_document(case)), *extra) == 2


def _foreign_vehicle(doc):
    route = doc["vehicles"][0]
    return {"vehicles": [{"vehicle": 1, "events": route["events"][:1]}, {**route, "vehicle": 7}]}


@pytest.mark.parametrize(
    "mutate, kind",
    [(_foreign_vehicle, "UNKNOWN_VEHICLE"), (_event("city", 9), "WINDOW"), (_event("city", 0), "WINDOW")],
    ids=["unknown-vehicle", "city-past-the-map", "city-zero"],
)
def test_check_flags_plans_outside_the_instance(tmp_path, mutate, kind):
    # An unknown vehicle used to carry the whole route to a feasible
    # verdict; city 9 ended in an internal error and city 0 read as city 3.
    case = three_city_dense()
    assert _check(tmp_path, case, mutate(_optimal_plan_document(case))) == 1
    report = json.loads((tmp_path / "report.json").read_text())
    assert (kind, True) in {(v["kind"], v["hard"]) for v in report["violations"]}


def _plan_fuzz(case, oracle_file, targeted):
    """Mutated oracle plan documents, with a --plan-index.

    Untargeted examples take up to three mutations anywhere; targeted
    ones set one event field to a small integer (off the grid, off the
    map, an unknown vehicle) and take up to two more.
    """
    best, plans = enumerate_optimal_routes(case.instance)
    doc = plans[0].to_document()
    if oracle_file:
        doc = {"optimal_cost": best, "plans": [p.to_document() for p in plans]}
    paths = list(_paths(doc))
    anything = st.tuples(st.sampled_from(paths), st.just(_DELETE) | _json_values)
    mutations = st.lists(anything, min_size=1, max_size=3)
    if targeted:
        fields = [p for p in paths if p[-1] in ("vehicle", "tau", "city", "state", "capacity")]
        field = st.tuples(st.sampled_from(fields), st.integers(-1, 9))
        mutations = st.tuples(field, st.lists(anything, max_size=2)).map(lambda m: [m[0], *m[1]])
    index = st.just(0) | st.integers(-2, 2)
    return st.tuples(st.just(case), mutations.map(lambda m: _apply(doc, m)), index)


def _check_fuzz_example(tmp_path_factory, triple):
    case, doc, index = triple
    assert _check(tmp_path_factory.mktemp("fuzz"), case, doc, "--plan-index", str(index)) in (0, 1, 2)


@given(triple=_plan_fuzz(three_city_dense(), True, False) | _plan_fuzz(mcsvrp_two_city(), False, False))
def test_plan_fuzz_never_ends_in_internal_error(tmp_path_factory, triple):
    _check_fuzz_example(tmp_path_factory, triple)


@given(triple=_plan_fuzz(three_city_dense(), False, True) | _plan_fuzz(mcsvrp_two_city(), True, True))
def test_plan_field_fuzz_never_ends_in_internal_error(tmp_path_factory, triple):
    _check_fuzz_example(tmp_path_factory, triple)
