"""The array-native model core against the key-by-key builder it replaced.

``_RefCatalogue``, ``_RefModel`` and ``_ref_build_model`` are the earlier
implementation: a catalogue fixed key by key, a model that eliminates
fixed variables term by term into dicts, and an assembler that emits
every term from nested loops and deduplicates penalty pairs in per-family
sets of keys.  The array core must give every model the same free and
fixed keys, the same fingerprint, the same per-family term counts and the
same multiset of term records.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

from tsvrp import build_model, standard_parameters
from tsvrp.demo import DEMO_LAMBDA, delivery_demo_instance
from tsvrp.hamiltonians import COST_FAMILIES, PENALTY_FAMILIES, term_summary
from tsvrp.instance import capacity_box
from tsvrp.qubo import ARRIVAL, DEPARTURE, PLAIN, STATES_PLAIN, STATES_TWO, BuildError, VariableKey

from cases import load_cases
from strategies import KINDS, random_instance


class _RefCatalogue:
    def __init__(self, inst):
        self.instance = inst
        self.states = STATES_TWO if inst.stateful else STATES_PLAIN
        self.capacity_blocks = {
            v.id: capacity_box(v.capacity_lower, v.capacity_upper) for v in inst.vehicles
        }
        self.fixed = {}
        t, n, states, blocks = inst.horizon, inst.n_cities, self.states, self.capacity_blocks
        start_state = DEPARTURE if inst.stateful else PLAIN
        for v in inst.vehicles:
            start = VariableKey(v.id, 1, v.start_city, start_state, tuple(v.start_capacity))
            for a in range(1, n + 1):
                for state in states:
                    for c in blocks[v.id]:
                        key = VariableKey(v.id, 1, a, state, c)
                        self.fixed[key] = 1 if key == start else 0
            e = v.end_city
            if e is None:
                continue
            for tau in range(2, t + 1):
                for a in range(1, n + 1):
                    if a == e or not (tau == t or tau + inst.duration(tau, e, a) > t):
                        continue
                    for state in states:
                        for c in blocks[v.id]:
                            self.fixed[VariableKey(v.id, tau, a, state, c)] = 0
                if inst.stateful:
                    for c in blocks[v.id]:
                        self.fixed[VariableKey(v.id, tau, e, DEPARTURE, c)] = 0
        for (i, tau, a) in inst.windows.sorted_triples():
            for state in states:
                for c in blocks[i]:
                    self.fixed[VariableKey(i, tau, a, state, c)] = 0
        everything = [
            VariableKey(v.id, tau, a, state, c)
            for v in inst.vehicles
            for tau in range(1, t + 1)
            for a in range(1, n + 1)
            for state in states
            for c in blocks[v.id]
        ]
        self.free_keys = tuple(k for k in everything if k not in self.fixed)
        self._index = {key: i for i, key in enumerate(self.free_keys)}

    def resolve(self, key):
        idx = self._index.get(key)
        if idx is not None:
            return "free", idx
        return "fixed", self.fixed[key]


class _RefModel:
    def __init__(self, catalogue):
        self.catalogue = catalogue
        self.constant = 0.0
        self.linear = {}
        self.quadratic = {}
        self.records = []
        self.term_counts = Counter()

    def add_quadratic(self, key_a, key_b, coeff, family):
        self.records.append((family, key_a, key_b, coeff))
        self.term_counts[family] += 1
        kind_a, val_a = self.catalogue.resolve(key_a)
        kind_b, val_b = self.catalogue.resolve(key_b)
        if kind_a == "fixed" and val_a == 0:
            return
        if kind_b == "fixed" and val_b == 0:
            return
        if kind_a == "fixed" and kind_b == "fixed":
            self.constant += coeff
        elif kind_a == "fixed":
            self.linear[val_b] = self.linear.get(val_b, 0.0) + coeff
        elif kind_b == "fixed":
            self.linear[val_a] = self.linear.get(val_a, 0.0) + coeff
        elif val_a == val_b:
            self.linear[val_a] = self.linear.get(val_a, 0.0) + coeff
        else:
            i, j = (val_a, val_b) if val_a < val_b else (val_b, val_a)
            self.quadratic[(i, j)] = self.quadratic.get((i, j), 0.0) + coeff

    def fingerprint(self):
        linear = {i: c for i, c in self.linear.items() if abs(c) > 1e-15}
        quadratic = {ij: c for ij, c in self.quadratic.items() if abs(c) > 1e-15}
        payload = json.dumps(
            {
                "n": len(self.catalogue.free_keys),
                "constant": self.constant,
                "linear": sorted(linear.items()),
                "quadratic": sorted((i, j, c) for (i, j), c in quadratic.items()),
            },
            sort_keys=True,
        )
        return hashlib.md5(payload.encode()).hexdigest()[:12]


class _RefAssembler:
    def __init__(self, inst, params):
        self.inst = inst
        self.params = params
        self.catalogue = _RefCatalogue(inst)
        self.model = _RefModel(self.catalogue)
        self._pairs = {f: set() for f in PENALTY_FAMILIES}

    def cost(self, family, key_a, key_b, d):
        self.model.add_quadratic(key_a, key_b, self.params.cost_coefficient(d), family)

    def pen(self, family, key_a, key_b):
        if key_a == key_b:
            raise BuildError(f"penalty pair degenerates to a single key: {key_a}")
        self._pairs[family].add((key_a, key_b) if key_a <= key_b else (key_b, key_a))

    def flush_penalties(self):
        for family in PENALTY_FAMILIES:
            for key_a, key_b in sorted(self._pairs[family]):
                self.model.add_quadratic(key_a, key_b, self.params.lam, family)

    def exclusions(self):
        inst, cat = self.inst, self.catalogue
        states = cat.states
        depots = inst.depot_cities
        t, n = inst.horizon, inst.n_cities
        for v in inst.vehicles:
            caps = cat.capacity_blocks[v.id]
            for tau in range(1, t + 1):
                for a in range(1, n + 1):
                    if len(states) == 2:
                        for ca in caps:
                            for cb in caps:
                                self.pen(
                                    "state_clash",
                                    VariableKey(v.id, tau, a, ARRIVAL, ca),
                                    VariableKey(v.id, tau, a, DEPARTURE, cb),
                                )
                    for state in states:
                        for x in range(len(caps)):
                            for y in range(x + 1, len(caps)):
                                self.pen(
                                    "capacity_clash",
                                    VariableKey(v.id, tau, a, state, caps[x]),
                                    VariableKey(v.id, tau, a, state, caps[y]),
                                )
                    for b in range(a + 1, n + 1):
                        for sa in states:
                            for sb in states:
                                for ca in caps:
                                    for cb in caps:
                                        self.pen(
                                            "city_clash",
                                            VariableKey(v.id, tau, a, sa, ca),
                                            VariableKey(v.id, tau, b, sb, cb),
                                        )
            for a in range(1, n + 1):
                for tau in range(1, t + 1):
                    for tau2 in range(tau + 1, t + 1):
                        for state in states:
                            for ca in caps:
                                for cb in caps:
                                    self.pen(
                                        "revisit_clash",
                                        VariableKey(v.id, tau, a, state, ca),
                                        VariableKey(v.id, tau2, a, state, cb),
                                    )
        for x in range(len(inst.vehicles)):
            for y in range(x + 1, len(inst.vehicles)):
                vi, vj = inst.vehicles[x], inst.vehicles[y]
                caps_i, caps_j = cat.capacity_blocks[vi.id], cat.capacity_blocks[vj.id]
                for a in range(1, n + 1):
                    for tau in range(1, t + 1):
                        for tau2 in range(1, t + 1):
                            if tau == tau2 and a in depots:
                                continue
                            family = "simultaneous_clash" if tau == tau2 else "cross_vehicle_clash"
                            for sa in states:
                                for sb in states:
                                    for ca in caps_i:
                                        for cb in caps_j:
                                            self.pen(
                                                family,
                                                VariableKey(vi.id, tau, a, sa, ca),
                                                VariableKey(vj.id, tau2, a, sb, cb),
                                            )


def _ref_build_model(inst, params):
    asm = _RefAssembler(inst, params)
    t, n = inst.horizon, inst.n_cities
    stateful = inst.stateful
    arrival, departure = (ARRIVAL, DEPARTURE) if stateful else (PLAIN, PLAIN)
    for v in inst.vehicles:
        caps = asm.catalogue.capacity_blocks[v.id]
        lo, hi = v.capacity_lower, v.capacity_upper
        lock = None if stateful else v.end_city
        for tau in range(1, t):
            for b in range(1, n + 1):
                for a in range(1, n + 1):
                    if a == b:
                        continue
                    if b == lock:
                        for dt in range(1, t - tau + 1):
                            for c in caps:
                                for c2 in caps:
                                    asm.pen(
                                        "end_lock",
                                        VariableKey(v.id, tau + dt, a, PLAIN, c2),
                                        VariableKey(v.id, tau, lock, PLAIN, c),
                                    )
                        continue
                    dur = inst.duration(tau, a, b)
                    d = inst.cost(tau, a, b)
                    delta = inst.variation(tau, a, b)
                    arrive = tau + dur
                    for c in caps:
                        target = tuple(x + dx for x, dx in zip(c, delta))
                        ok = all(l <= x <= h for x, l, h in zip(target, lo, hi))
                        dep = VariableKey(v.id, tau, b, departure, c)
                        if arrive <= t:
                            if ok:
                                asm.cost(
                                    "travel_cost",
                                    VariableKey(v.id, arrive, a, arrival, target),
                                    dep,
                                    d,
                                )
                            for c2 in caps:
                                if ok and c2 == target:
                                    continue
                                asm.pen(
                                    "wrong_capacity", VariableKey(v.id, arrive, a, arrival, c2), dep
                                )
                        for dt in range(1, min(dur - 1, t - tau) + 1):
                            for c2 in caps:
                                asm.pen(
                                    "early_arrival", VariableKey(v.id, tau + dt, a, arrival, c2), dep
                                )
                        if not stateful:
                            continue
                        for dt in range(1, min(dur, t - tau) + 1):
                            for c2 in caps:
                                asm.pen(
                                    "transit_block", VariableKey(v.id, tau + dt, a, DEPARTURE, c2), dep
                                )
            if not stateful:
                continue
            for a in range(1, n + 1):
                hold = inst.stay(tau, a)
                for c in caps:
                    arr = VariableKey(v.id, tau, a, ARRIVAL, c)
                    if tau + hold <= t:
                        asm.cost("stay_cost", VariableKey(v.id, tau + hold, a, DEPARTURE, c), arr, 0.0)
                        for c2 in caps:
                            if c2 == c:
                                continue
                            asm.pen(
                                "wrong_capacity", VariableKey(v.id, tau + hold, a, DEPARTURE, c2), arr
                            )
                    for dt in range(1, min(hold - 1, t - tau) + 1):
                        for c2 in caps:
                            asm.pen(
                                "early_departure", VariableKey(v.id, tau + dt, a, DEPARTURE, c2), arr
                            )
            for b in range(1, n + 1):
                hold = inst.stay(tau, b)
                for a in range(1, n + 1):
                    if a == b:
                        continue
                    for dt in range(1, min(hold, t - tau) + 1):
                        for c in caps:
                            for c2 in caps:
                                asm.pen(
                                    "stay_block",
                                    VariableKey(v.id, tau + dt, a, ARRIVAL, c2),
                                    VariableKey(v.id, tau, b, ARRIVAL, c),
                                )
    asm.exclusions()
    asm.flush_penalties()
    return asm.model


def _assert_same_model(inst, lam):
    params = standard_parameters(inst.costs, lam)
    model = build_model(inst, params)
    ref = _ref_build_model(inst, params)
    assert model.catalogue.free_keys == ref.catalogue.free_keys
    assert model.catalogue.fixed == ref.catalogue.fixed
    assert model.fingerprint() == ref.fingerprint()
    summary = {f: 0 for f in COST_FAMILIES + PENALTY_FAMILIES}
    summary.update(ref.term_counts)
    assert term_summary(model) == summary
    assert Counter(model.records) == Counter(ref.records)


def test_case_suite_and_demo_match_the_loop_builder():
    for case in load_cases():
        _assert_same_model(case.instance, case.lam)
    _assert_same_model(delivery_demo_instance(), DEMO_LAMBDA)


def test_criterion_1_corpus_matches_the_loop_builder():
    for seed in range(100):
        inst = random_instance(seed, max_cities=6, max_intervals=6, max_vehicles=2)
        _assert_same_model(inst, 0.5 + (seed % 7) * 0.5)


@pytest.mark.parametrize("kind", KINDS)
def test_random_instances_of_each_kind_match_the_loop_builder(kind):
    for seed in range(5):
        _assert_same_model(random_instance(seed, kind=kind), 1.5)
