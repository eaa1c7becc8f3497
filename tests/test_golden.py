"""Pinned model fingerprints and oracle optima.

``golden.json`` records, for the exhaustive case suite, the reference
delivery scenario and two seeded random instances of each model kind,
the model fingerprint and per-family term counts, and for the case
suite and the delivery scenario the oracle's optimal cost and a digest
of its sorted optimal plans.  A change that is meant to leave the
encoding and the oracle as they are must leave these values as they are.

Regenerate after an intended change with ``python tests/test_golden.py``
(run from the repository root with ``src`` on ``PYTHONPATH``) and say
why in the change log.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from tsvrp import build_model, enumerate_optimal_routes, standard_parameters
from tsvrp.demo import DEMO_LAMBDA, delivery_demo_instance
from tsvrp.hamiltonians import term_summary

from cases import load_cases
from strategies import KINDS, random_instance

GOLDEN_PATH = Path(__file__).with_name("golden.json")
RANDOM_SEEDS = (11, 12)
RANDOM_LAMBDA = 1.5


def _model_instances():
    for case in load_cases():
        yield f"case:{case.name}", case.instance, case.lam
    yield "demo", delivery_demo_instance(), DEMO_LAMBDA
    for kind in KINDS:
        for seed in RANDOM_SEEDS:
            yield f"random:{kind}:{seed}", random_instance(seed, kind=kind), RANDOM_LAMBDA


def _oracle_instances():
    for case in load_cases():
        yield case.name, case.instance
    yield "demo", delivery_demo_instance()


def _model_entry(inst, lam) -> dict:
    model = build_model(inst, standard_parameters(inst.costs, lam))
    return {"fingerprint": model.fingerprint(), "terms": term_summary(model)}


def _oracle_entry(inst) -> dict:
    best_cost, plans = enumerate_optimal_routes(inst)
    canonical = json.dumps([p.canonical() for p in plans])
    return {
        "optimal_cost": best_cost,
        "plans_digest": hashlib.sha256(canonical.encode()).hexdigest()[:16],
    }


def _generate() -> dict:
    return {
        "models": {name: _model_entry(inst, lam) for name, inst, lam in _model_instances()},
        "oracle": {name: _oracle_entry(inst) for name, inst in _oracle_instances()},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_models(golden):
    current = {name: _model_entry(inst, lam) for name, inst, lam in _model_instances()}
    assert current.keys() == golden["models"].keys()
    for name, entry in golden["models"].items():
        assert current[name] == entry, name


def test_golden_oracle(golden):
    instances = dict(_oracle_instances())
    assert instances.keys() == golden["oracle"].keys()
    for name, inst in instances.items():
        expected = golden["oracle"][name]
        entry = _oracle_entry(inst)
        assert entry["plans_digest"] == expected["plans_digest"], name
        assert entry["optimal_cost"] == pytest.approx(expected["optimal_cost"], abs=1e-9), name


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(_generate(), indent=1, sort_keys=True) + "\n")
