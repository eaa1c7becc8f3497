"""Variable catalogues and sparse QUBO models with fix-time elimination.

Every logical qubit is a :class:`VariableKey`; a catalogue maps the free
keys onto a dense 0-based index range and records boundary/window fixes.
Fixed variables are substituted the moment a term is added, so samplers
only ever see free variables.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .instance import Instance, capacity_box, write_json

PLAIN = "plain"
ARRIVAL = "arrival"
DEPARTURE = "departure"
STATES_PLAIN = (PLAIN,)
STATES_TWO = (ARRIVAL, DEPARTURE)

# Dense helper matrices are materialized for evaluation; this guards
# against accidentally building them for models far beyond sampler scale.
_DENSE_LIMIT = 8192


class BuildError(ValueError):
    """A model/catalogue construction step violated a precondition."""


class VariableKey(NamedTuple):
    vehicle: int
    tau: int
    city: int
    capacity: tuple[int, ...]
    state: str

    def conjugated(self) -> "VariableKey":
        """Swap arrival and departure; plain keys are self-conjugate."""
        if self.state == ARRIVAL:
            return self._replace(state=DEPARTURE)
        if self.state == DEPARTURE:
            return self._replace(state=ARRIVAL)
        return self


@dataclass(frozen=True)
class VariableCatalogue:
    """Bijection between free variable keys and flat indices.

    The canonical order is vehicle, then interval, then city, then state
    (arrival before departure), then the capacity block in lexicographic
    order; fixed keys are skipped when indices are assigned.
    """

    instance: Instance
    free_keys: tuple[VariableKey, ...]
    fixed: dict[VariableKey, int]
    states: tuple[str, ...]
    capacity_blocks: dict[int, tuple[tuple[int, ...], ...]]
    _index: dict[VariableKey, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self._index.update({key: i for i, key in enumerate(self.free_keys)})

    # -- lookups --------------------------------------------------------
    @property
    def n_free(self) -> int:
        return len(self.free_keys)

    @property
    def n_total(self) -> int:
        return len(self.free_keys) + len(self.fixed)

    @property
    def n_fixed_one(self) -> int:
        return sum(1 for v in self.fixed.values() if v == 1)

    def index_of(self, key: VariableKey) -> int:
        return self._index[key]

    def key_of(self, index: int) -> VariableKey:
        return self.free_keys[index]

    def resolve(self, key: VariableKey) -> tuple[str, int]:
        """Return ("free", index) or ("fixed", value) for a known key."""
        idx = self._index.get(key)
        if idx is not None:
            return "free", idx
        value = self.fixed.get(key)
        if value is None:
            raise KeyError(f"unknown variable key {key}")
        return "fixed", value

    def all_keys(self) -> Iterable[VariableKey]:
        return _all_keys(self.instance, self.states, self.capacity_blocks)

    def start_key(self, vehicle_id: int) -> VariableKey:
        v = self.instance.vehicle(vehicle_id)
        state = DEPARTURE if self.instance.stateful else PLAIN
        return VariableKey(vehicle_id, 1, v.start_city, tuple(v.start_capacity), state)


def _all_keys(
    inst: Instance, states: tuple[str, ...], blocks: dict[int, tuple[tuple[int, ...], ...]]
) -> Iterable[VariableKey]:
    """Every key of an instance, free or fixed, in the canonical order."""
    for v in inst.vehicles:
        for tau in range(1, inst.horizon + 1):
            for a in range(1, inst.n_cities + 1):
                for state in states:
                    for c in blocks[v.id]:
                        yield VariableKey(v.id, tau, a, c, state)


def build_catalogue(inst: Instance) -> VariableCatalogue:
    """Enumerate all keys of an instance and apply boundary/window fixes.

    Interval-1 keys are pinned so each vehicle occupies exactly its start
    slot.  When an end city is set, keys from which the destination can no
    longer be reached in time are turned off; two-state vehicles also lose
    every departure slot at the destination (the trip ends on arrival).
    """
    states = STATES_TWO if inst.stateful else STATES_PLAIN
    blocks = {
        v.id: capacity_box(v.capacity_lower, v.capacity_upper) for v in inst.vehicles
    }

    fixed: dict[VariableKey, int] = {}

    def fix(key: VariableKey, value: int, why: str) -> None:
        old = fixed.get(key)
        if old is not None and old != value:
            raise BuildError(f"{why}: {key} already fixed to {old}")
        fixed[key] = value

    t, n = inst.horizon, inst.n_cities
    start_state = DEPARTURE if inst.stateful else PLAIN
    for v in inst.vehicles:
        start = VariableKey(v.id, 1, v.start_city, tuple(v.start_capacity), start_state)
        for a in range(1, n + 1):
            for state in states:
                for c in blocks[v.id]:
                    key = VariableKey(v.id, 1, a, c, state)
                    fix(key, 1 if key == start else 0, "start boundary")
        e = v.end_city
        if e is None:
            continue
        if e != v.start_city and 1 + inst.duration(1, e, v.start_city) > t:
            raise BuildError(
                f"vehicle {v.id} cannot reach its end city {e} from {v.start_city} within the horizon"
            )
        for tau in range(2, t + 1):
            for a in range(1, n + 1):
                if a == e:
                    continue
                dead = tau == t or tau + inst.duration(tau, e, a) > t
                if not dead:
                    continue
                for state in states:
                    for c in blocks[v.id]:
                        fix(VariableKey(v.id, tau, a, c, state), 0, "end boundary")
            if inst.stateful:
                for c in blocks[v.id]:
                    fix(VariableKey(v.id, tau, e, c, DEPARTURE), 0, "end boundary")

    for (i, tau, a) in inst.windows.sorted_triples():
        for state in states:
            for c in blocks[i]:
                key = VariableKey(i, tau, a, c, state)
                if fixed.get(key) == 1:
                    raise BuildError(f"window triple {(i, tau, a)} conflicts with a start fixing")
                fixed[key] = 0

    return VariableCatalogue(
        instance=inst,
        free_keys=tuple(k for k in _all_keys(inst, states, blocks) if k not in fixed),
        fixed=fixed,
        states=states,
        capacity_blocks=blocks,
    )


class TermRecord(NamedTuple):
    family: str
    key_a: VariableKey
    key_b: VariableKey | None
    coefficient: float


class QuboModel:
    """Constant + linear + upper-triangular quadratic coefficients.

    Terms are added against variable *keys*; fixed variables are
    eliminated on the spot (a zero kills the term, a one folds it one
    level down).  ``records`` keeps each emitted term with its family tag
    for reporting and verification.
    """

    def __init__(self, catalogue: VariableCatalogue, params=None):
        self.catalogue = catalogue
        self.constant = 0.0
        self.linear: dict[int, float] = {}
        self.quadratic: dict[tuple[int, int], float] = {}
        self.records: list[TermRecord] = []
        self.term_counts: Counter = Counter()
        self.params = params
        self.frozen = False
        self._dense: tuple[np.ndarray, np.ndarray] | None = None

    # -- construction ----------------------------------------------------
    def _check_open(self) -> None:
        if self.frozen:
            raise BuildError("model is finalized")

    def add_constant(self, value: float) -> None:
        self._check_open()
        self.constant += value

    def add_linear(self, key: VariableKey, coeff: float, family: str | None = None) -> None:
        self._check_open()
        if family is not None:
            self.records.append(TermRecord(family, key, None, coeff))
            self.term_counts[family] += 1
        kind, value = self.catalogue.resolve(key)
        if kind == "free":
            self.linear[value] = self.linear.get(value, 0.0) + coeff
        elif value == 1:
            self.constant += coeff

    def add_quadratic(
        self, key_a: VariableKey, key_b: VariableKey, coeff: float, family: str | None = None
    ) -> None:
        self._check_open()
        if family is not None:
            self.records.append(TermRecord(family, key_a, key_b, coeff))
            self.term_counts[family] += 1
        kind_a, val_a = self.catalogue.resolve(key_a)
        kind_b, val_b = self.catalogue.resolve(key_b)
        if kind_a == "fixed" and val_a == 0:
            return
        if kind_b == "fixed" and val_b == 0:
            return
        if kind_a == "fixed" and kind_b == "fixed":
            self.constant += coeff  # both pinned to one
        elif kind_a == "fixed":
            self.linear[val_b] = self.linear.get(val_b, 0.0) + coeff
        elif kind_b == "fixed":
            self.linear[val_a] = self.linear.get(val_a, 0.0) + coeff
        elif val_a == val_b:
            # x * x = x for binary variables
            self.linear[val_a] = self.linear.get(val_a, 0.0) + coeff
        else:
            i, j = (val_a, val_b) if val_a < val_b else (val_b, val_a)
            self.quadratic[(i, j)] = self.quadratic.get((i, j), 0.0) + coeff

    def finalize(self) -> "QuboModel":
        """Drop stored zeros and freeze the model for evaluation."""
        self.linear = {i: c for i, c in self.linear.items() if abs(c) > 1e-15}
        self.quadratic = {ij: c for ij, c in self.quadratic.items() if abs(c) > 1e-15}
        self.frozen = True
        return self

    # -- evaluation --------------------------------------------------------
    @property
    def n_vars(self) -> int:
        return self.catalogue.n_free

    def energy(self, bits: Sequence[int]) -> float:
        if len(bits) != self.n_vars:
            raise ValueError(f"expected {self.n_vars} bits, got {len(bits)}")
        total = self.constant
        for i, c in self.linear.items():
            if bits[i]:
                total += c
        for (i, j), c in self.quadratic.items():
            if bits[i] and bits[j]:
                total += c
        return total

    def dense_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Linear vector and symmetric coupling matrix for batch evaluation."""
        if self._dense is None:
            n = self.n_vars
            if n > _DENSE_LIMIT:
                raise BuildError(f"model too large for dense evaluation ({n} variables)")
            lin = np.zeros(n)
            for i, c in self.linear.items():
                lin[i] = c
            w = np.zeros((n, n))
            for (i, j), c in self.quadratic.items():
                w[i, j] += c
                w[j, i] += c
            self._dense = (lin, w)
        return self._dense

    def energies(self, bits: np.ndarray) -> np.ndarray:
        """Energies of a batch of assignments, one row per bitstring."""
        b = np.asarray(bits, dtype=float)
        if b.ndim != 2 or b.shape[1] != self.n_vars:
            raise ValueError(f"expected shape (m, {self.n_vars})")
        lin, w = self.dense_arrays()
        return self.constant + b @ lin + 0.5 * np.einsum("ij,ij->i", b @ w, b)

    def to_ising(self) -> tuple[np.ndarray, dict[tuple[int, int], float], float]:
        """Spin form under x = (1 + s) / 2, energy preserved exactly."""
        n = self.n_vars
        h = np.zeros(n)
        j: dict[tuple[int, int], float] = {}
        offset = self.constant
        for i, c in self.linear.items():
            h[i] += c / 2.0
            offset += c / 2.0
        for (a, b), c in self.quadratic.items():
            j[(a, b)] = j.get((a, b), 0.0) + c / 4.0
            h[a] += c / 4.0
            h[b] += c / 4.0
            offset += c / 4.0
        return h, j, offset

    # -- identity ----------------------------------------------------------
    def fingerprint(self) -> str:
        payload = json.dumps(
            {
                "n": self.n_vars,
                "constant": self.constant,
                "linear": sorted(self.linear.items()),
                "quadratic": sorted((i, j, c) for (i, j), c in self.quadratic.items()),
            },
            sort_keys=True,
        )
        return hashlib.md5(payload.encode()).hexdigest()[:12]

    # -- interchange ---------------------------------------------------------
    def to_document(self) -> dict:
        variables = [
            {
                "index": idx,
                "vehicle": key.vehicle,
                "tau": key.tau,
                "city": key.city,
                "capacity": list(key.capacity),
                "state": key.state,
            }
            for idx, key in enumerate(self.catalogue.free_keys)
        ]
        return {
            "n_vars": self.n_vars,
            "constant": self.constant,
            "linear": sorted([i, c] for i, c in self.linear.items()),
            "quadratic": sorted([i, j, c] for (i, j), c in self.quadratic.items()),
            "variables": variables,
            "model_ref": self.fingerprint(),
        }


def ising_energy(
    h: np.ndarray, j: dict[tuple[int, int], float], offset: float, spins: Sequence[int]
) -> float:
    total = offset + float(np.dot(h, spins))
    for (a, b), c in j.items():
        total += c * spins[a] * spins[b]
    return total


def write_model(model: QuboModel, path, extra: dict | None = None) -> None:
    write_json(path, {**model.to_document(), **(extra or {})})


def read_model_document(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
