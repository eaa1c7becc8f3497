"""Command-line front end: build, solve, check, oracle, stats.

Every output file embeds the resolved run configuration (seed and
parameter policy included), and all randomness flows from one seed, so
identical invocations produce byte-identical artifacts.

Exit codes: 0 success/feasible, 1 infeasible or violations found,
2 usage error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import decoder, hamiltonians, oracle, samplers
from .instance import Instance, InstanceError, read_instance, validate_instance, write_json
from .qubo import BuildError, write_model

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3

SEED_ENV_VAR = "TSVRP_SEED"


class UsageError(ValueError):
    pass


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR) or "0"
    if not (raw.isascii() and raw.isdigit()):
        raise UsageError(f"${SEED_ENV_VAR} must be a non-negative integer, got {raw!r}")
    return int(raw)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsvrp",
        description="QUBO toolkit for time-gridded vehicle routing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, sampler: bool = False) -> None:
        p.add_argument("--instance", required=True, help="instance document (JSON)")
        p.add_argument("--lambda", dest="lam", type=float, default=1.0, help="penalty weight")
        p.add_argument("--delta", type=float, default=0.0, help="baseline shift")
        p.add_argument("--out", required=True, help="output path or prefix")
        p.add_argument("--seed", type=int, default=None, help=f"RNG seed (default ${SEED_ENV_VAR} or 0)")
        p.add_argument(
            "--mode",
            choices=list(decoder.MODES),
            default=decoder.MODE_WINDOW_TOLERANT,
            help="feasibility mode for gap legs",
        )
        if sampler:
            p.add_argument("--sampler", choices=["exhaustive", "sa"], default="exhaustive")
            p.add_argument("--sweeps", type=int, default=1000)
            p.add_argument("--restarts", type=int, default=32)
            p.add_argument("--beta-start", type=float, default=None)
            p.add_argument("--beta-end", type=float, default=None)

    p_build = sub.add_parser("build", help="write the QUBO interchange file")
    common(p_build)

    p_solve = sub.add_parser("solve", help="build, sample, decode and grade")
    common(p_solve, sampler=True)

    p_oracle = sub.add_parser("oracle", help="classical exhaustive optimum")
    common(p_oracle)
    p_oracle.add_argument(
        "--max-nodes",
        type=int,
        default=oracle.DEFAULT_MAX_NODES,
        help="search nodes (timeline extension steps plus join nodes) before refusing",
    )

    p_check = sub.add_parser("check", help="check a plan file against an instance")
    common(p_check)
    p_check.add_argument("--plan", required=True, help="plan document (JSON)")
    p_check.add_argument("--plan-index", type=int, default=0)

    p_stats = sub.add_parser("stats", help="grade an externally produced sample set")
    common(p_stats)
    p_stats.add_argument("--samples", required=True, help="sample-set document (JSON)")
    return parser


def _load_instance(args) -> Instance:
    try:
        inst = read_instance(args.instance)
    except FileNotFoundError as exc:
        raise UsageError(f"instance file not found: {exc}") from exc
    except InstanceError as exc:
        raise UsageError(f"invalid instance: {exc}") from exc
    return inst


def _parameters(inst: Instance, args) -> hamiltonians.PenaltyParameters:
    if not 0 < args.lam < math.inf:
        raise UsageError(f"--lambda must be positive and finite, got {args.lam}")
    if not 0 <= args.delta < math.inf:
        raise UsageError(f"--delta must be non-negative and finite, got {args.delta}")
    return hamiltonians.standard_parameters(inst.costs, args.lam, delta=args.delta)


def _run_config(args, params: hamiltonians.PenaltyParameters | None, seed: int | None) -> dict:
    config = {
        "command": args.command,
        "instance": args.instance,
        "lambda": args.lam,
        "delta": args.delta,
        "mode": args.mode,
        "out": args.out,
        "seed": seed,
    }
    for key in ("sampler", "sweeps", "restarts", "beta_start", "beta_end"):
        if hasattr(args, key):
            config[key] = getattr(args, key)
    if params is not None:
        config["parameters"] = {
            "lambda": params.lam,
            "mu": params.mu,
            "rho": params.rho,
            "delta": params.delta,
            "uniform_cost": params.uniform_cost,
        }
    return config


def _write_stats(out: str, result: decoder.SolveStats, extra: dict) -> None:
    write_json(f"{out}.stats.json", {**result.to_document(), **extra})
    with open(f"{out}.stats.csv", "w", encoding="utf-8") as fh:
        fh.write(result.to_csv())


def cmd_build(args) -> int:
    inst = _load_instance(args)
    for issue in validate_instance(inst):
        print(f"[{issue.severity}] {issue.code}: {issue.message}")
    params = _parameters(inst, args)
    model = hamiltonians.build_model(inst, params)
    cat = model.catalogue
    config = _run_config(args, params, seed=None)
    write_model(model, args.out, extra={"run_config": config})
    print(f"total qubits: {cat.n_total}")
    print(f"fixed to one: {cat.n_fixed_one}")
    print(f"fixed to zero: {len(cat.fixed) - cat.n_fixed_one}")
    print(f"free variables: {cat.n_free}")
    print(
        "parameters: lambda={lam} mu={mu} rho={rho} delta={delta}".format(
            lam=params.lam, mu=params.mu, rho=params.rho, delta=params.delta
        )
    )
    for family, count in sorted(hamiltonians.term_summary(model).items()):
        print(f"terms[{family}]: {count}")
    return EXIT_OK


def cmd_solve(args) -> int:
    inst = _load_instance(args)
    params = _parameters(inst, args)
    model = hamiltonians.build_model(inst, params)
    seed = args.seed if args.seed is not None else _default_seed()
    if seed < 0:
        raise UsageError(f"--seed must be non-negative, got {seed}")
    if args.sampler == "sa":
        schedule = samplers.AnnealSchedule(
            sweeps=args.sweeps,
            beta_start=args.beta_start,
            beta_end=args.beta_end,
            restarts=args.restarts,
            seed=seed,
        )
        sample_set = samplers.simulated_anneal(model, schedule)
    else:
        sample_set = samplers.exhaustive_solve(model)
    sample_set.verify(model)
    result = decoder.stats(sample_set, model.catalogue, inst, mode=args.mode)
    config = _run_config(args, params, seed)
    samplers.write_sample_set(sample_set, f"{args.out}.samples.json", extra={"run_config": config})
    _write_stats(args.out, result, {"run_config": config})
    print(f"free variables: {model.n_vars}")
    print(f"samples: {result.total_samples}")
    print(f"feasible rate: {result.feasible_rate}")
    print(f"best energy: {result.best_energy}")
    print(f"best feasible cost: {result.best_feasible_cost}")
    if result.feasible_count == 0:
        return EXIT_INFEASIBLE
    # Rows follow the records, sorted by energy: the first feasible one wins.
    first = next(i for i, (_, feasible, _, _) in enumerate(result.rows) if feasible)
    plan = decoder.decode(sample_set.records[first].bits, model.catalogue)
    print(json.dumps(plan.to_document(), sort_keys=True))
    return EXIT_OK


def cmd_oracle(args) -> int:
    inst = _load_instance(args)
    try:
        best_cost, plans = oracle.enumerate_optimal_routes(
            inst, mode=args.mode, max_nodes=args.max_nodes
        )
    except oracle.SearchCapExceeded as exc:
        raise UsageError(f"refusing: {exc}") from exc
    config = _run_config(args, None, seed=None)
    write_json(
        args.out,
        {
            "optimal_cost": best_cost,
            "plans": [p.to_document() for p in plans],
            "run_config": config,
        },
    )
    if best_cost is None:
        print("no feasible plan exists")
        return EXIT_INFEASIBLE
    print(f"optimal cost: {best_cost}")
    print(f"optimal plans: {len(plans)}")
    return EXIT_OK


def cmd_check(args) -> int:
    inst = _load_instance(args)
    try:
        plan = decoder.read_plan(args.plan, index=args.plan_index)
    except (OSError, ValueError, KeyError) as exc:
        raise UsageError(f"unreadable plan: {exc}") from exc
    report = decoder.check_feasibility(plan, inst, mode=args.mode)
    config = _run_config(args, None, seed=None)
    write_json(
        args.out,
        {
            "mode": args.mode,
            "feasible": report.feasible,
            "violations": [
                {"kind": v.kind, "detail": v.detail, "hard": v.hard} for v in report.violations
            ],
            "run_config": config,
        },
    )
    for v in report.violations:
        print(f"{v.kind}: {v.detail}")
    return EXIT_OK if report.feasible else EXIT_INFEASIBLE


def cmd_stats(args) -> int:
    inst = _load_instance(args)
    params = _parameters(inst, args)
    model = hamiltonians.build_model(inst, params)
    try:
        sample_set = samplers.read_sample_set(args.samples, model=model)
    except (OSError, ValueError, KeyError, TypeError, OverflowError) as exc:
        raise UsageError(f"unreadable sample set: {exc}") from exc
    result = decoder.stats(sample_set, model.catalogue, inst, mode=args.mode)
    config = _run_config(args, params, seed=None)
    rejected = sample_set.metadata.get("rejected_records", 0)
    _write_stats(args.out, result, {"run_config": config, "rejected_records": rejected})
    print(f"samples: {result.total_samples}")
    print(f"feasible rate: {result.feasible_rate}")
    return EXIT_OK if result.feasible_count else EXIT_INFEASIBLE


_COMMANDS = {
    "build": cmd_build,
    "solve": cmd_solve,
    "oracle": cmd_oracle,
    "check": cmd_check,
    "stats": cmd_stats,
}


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (
        UsageError, oracle.SearchCapExceeded, InstanceError, BuildError, samplers.SamplerError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - last-resort guard
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def console_main() -> None:
    raise SystemExit(main())
