"""Variable catalogues and sparse QUBO models over a code grid.

Every logical qubit is a :class:`VariableKey` with an integer *code*: its
position in one mixed-radix space per catalogue, ordered vehicle, then
interval, city, state (arrival before departure) and capacity status.
The key's fields come in the same order, so key order is code order.
Vehicle ``i`` owns the code grid ``g[tau - 1, city - 1, state, capacity]``.
The catalogue's ``slots`` array maps each code to its free index, or to
``FIXED_ZERO`` / ``FIXED_ONE`` for boundary and window fixes; free indices
follow code order, which is the canonical order.

A model collects terms as blocks of code arrays.  ``finalize`` eliminates
the fixed variables with one gather and sums the coefficients of each
entry with ``np.bincount`` in arrival order, into the sorted arrays
``lin_index``/``lin_coeff`` and ``q_i``/``q_j``/``q_c`` that every
evaluation reads.  ``linear``, ``quadratic`` and ``records`` are views
computed on demand, so samplers only ever see free variables.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from typing import NamedTuple, Sequence

import numpy as np

from .instance import Instance, capacity_box, write_json

PLAIN = "plain"
ARRIVAL = "arrival"
DEPARTURE = "departure"
STATES_PLAIN = (PLAIN,)
STATES_TWO = (ARRIVAL, DEPARTURE)
FIXED_ZERO = -1
FIXED_ONE = -2

# Refuses the dense copy of batch evaluation for models far beyond exhaustive scale.
_DENSE_LIMIT = 8192


class BuildError(ValueError):
    """A model/catalogue construction step violated a precondition."""


class VariableKey(NamedTuple):
    vehicle: int
    tau: int
    city: int
    state: str
    capacity: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class VariableCatalogue:
    """The code grid of an instance and the slot of every code.

    ``slots[code]`` is the free index of the key, ``FIXED_ZERO`` or
    ``FIXED_ONE``.  Keys, free keys and fixed keys are derived from it on
    first use.
    """

    instance: Instance
    states: tuple[str, ...]
    capacity_blocks: dict[int, tuple[tuple[int, ...], ...]]
    slots: np.ndarray

    # -- code grid --------------------------------------------------------
    def _shape(self, vehicle_id: int) -> tuple[int, int, int, int]:
        inst = self.instance
        return inst.horizon, inst.n_cities, len(self.states), len(self.capacity_blocks[vehicle_id])

    @cached_property
    def _offsets(self) -> dict[int, int]:
        """First code of each vehicle's grid."""
        out, start = {}, 0
        for v in self.instance.vehicles:
            out[v.id] = start
            start += int(np.prod(self._shape(v.id)))
        return out

    def grid(self, vehicle_id: int) -> np.ndarray:
        """Codes of one vehicle, indexed ``[tau - 1, city - 1, state, capacity]``."""
        shape = self._shape(vehicle_id)
        return self._offsets[vehicle_id] + np.arange(int(np.prod(shape))).reshape(shape)

    def code(self, key: VariableKey) -> int:
        inst = self.instance
        try:
            caps = self.capacity_blocks[key.vehicle]
            s, c = self.states.index(key.state), caps.index(tuple(key.capacity))
        except (KeyError, ValueError, TypeError):
            raise KeyError(f"unknown variable key {key}") from None
        if not (1 <= key.tau <= inst.horizon and 1 <= key.city <= inst.n_cities):
            raise KeyError(f"unknown variable key {key}")
        cell = (key.tau - 1) * inst.n_cities + key.city - 1
        return self._offsets[key.vehicle] + (cell * len(self.states) + s) * len(caps) + c

    @cached_property
    def keys(self) -> tuple[VariableKey, ...]:
        """Every key, free or fixed, indexed by code."""
        return tuple(
            VariableKey(v.id, tau, a, state, c)
            for v in self.instance.vehicles
            for tau in range(1, self.instance.horizon + 1)
            for a in range(1, self.instance.n_cities + 1)
            for state in self.states
            for c in self.capacity_blocks[v.id]
        )

    # -- lookups --------------------------------------------------------
    @cached_property
    def free_keys(self) -> tuple[VariableKey, ...]:
        return tuple(self.keys[c] for c in np.flatnonzero(self.slots >= 0).tolist())

    @cached_property
    def fixed(self) -> dict[VariableKey, int]:
        return {
            self.keys[c]: int(self.slots[c] == FIXED_ONE)
            for c in np.flatnonzero(self.slots < 0).tolist()
        }

    @cached_property
    def n_free(self) -> int:
        return int(np.count_nonzero(self.slots >= 0))

    @property
    def n_total(self) -> int:
        return len(self.slots)

    @property
    def n_fixed_one(self) -> int:
        return int(np.count_nonzero(self.slots == FIXED_ONE))

    def slot(self, key: VariableKey) -> int:
        """Free index of a known key, or ``FIXED_ZERO`` / ``FIXED_ONE``."""
        return int(self.slots[self.code(key)])

    def index_of(self, key: VariableKey) -> int:
        index = self.slot(key)
        if index < 0:
            raise KeyError(f"{key} is fixed")
        return index


def build_catalogue(inst: Instance) -> VariableCatalogue:
    """Lay out the code grid of an instance and apply boundary/window fixes.

    Interval-1 keys are pinned so each vehicle occupies exactly its start
    slot.  When an end city is set, keys from which the destination can no
    longer be reached in time are turned off; two-state vehicles also lose
    every departure slot at the destination (the trip ends on arrival).
    Start fixes touch interval 1 only and end fixes intervals 2 and up, so
    only a window on the start slot can contradict a fix.
    """
    states = STATES_TWO if inst.stateful else STATES_PLAIN
    blocks = {
        v.id: capacity_box(v.capacity_lower, v.capacity_upper) for v in inst.vehicles
    }
    t, n = inst.horizon, inst.n_cities
    parts = {}
    for v in inst.vehicles:
        caps = blocks[v.id]
        slot = np.zeros((t, n, len(states), len(caps)), dtype=np.int64)
        slot[0] = FIXED_ZERO
        slot[0, v.start_city - 1, len(states) - 1, caps.index(tuple(v.start_capacity))] = FIXED_ONE
        e = v.end_city
        if e is not None:
            if e != v.start_city and 1 + inst.duration(1, e, v.start_city) > t:
                raise BuildError(
                    f"vehicle {v.id} cannot reach its end city {e} from {v.start_city} within the horizon"
                )
            dead = np.ones((t - 1, n), dtype=bool)  # intervals 2..T; the last is always dead
            dead[:-1] = np.arange(2, t)[:, None] + inst.durations.travel[1:, e - 1, :] > t
            dead[:, e - 1] = False
            slot[1:][dead] = FIXED_ZERO
            if inst.stateful:
                slot[1:, e - 1, 1] = FIXED_ZERO
        parts[v.id] = slot
    for (i, tau, a) in inst.windows.sorted_triples():
        if np.any(parts[i][tau - 1, a - 1] == FIXED_ONE):
            raise BuildError(f"window triple {(i, tau, a)} conflicts with a start fixing")
        parts[i][tau - 1, a - 1] = FIXED_ZERO

    slots = np.concatenate([parts[v.id].ravel() for v in inst.vehicles])
    free = slots == 0
    slots[free] = np.arange(np.count_nonzero(free))
    return VariableCatalogue(instance=inst, states=states, capacity_blocks=blocks, slots=slots)


class TermRecord(NamedTuple):
    family: str
    key_a: VariableKey
    key_b: VariableKey | None
    coefficient: float


class QuboModel:
    """Constant + linear + upper-triangular quadratic coefficients.

    Terms arrive as blocks ``(family, codes_a, codes_b, coeff)``; a block
    without ``codes_b`` is linear, and a block without a family is left out
    of ``records`` and ``term_counts``.  ``finalize`` turns the blocks into
    the sorted coefficient arrays: a variable fixed to zero kills its term,
    one fixed to one folds it a level down.
    """

    def __init__(self, catalogue: VariableCatalogue, params=None):
        self.catalogue = catalogue
        self.constant = 0.0
        self.blocks: list[tuple[str | None, np.ndarray, np.ndarray | None, np.ndarray]] = []
        self.params = params
        self.frozen = False

    # -- construction ----------------------------------------------------
    def _check_open(self) -> None:
        if self.frozen:
            raise BuildError("model is finalized")

    def _check_final(self) -> None:
        if not self.frozen:
            raise BuildError("model is not finalized")

    def add_constant(self, value: float) -> None:
        self._check_open()
        self.constant += value

    def add_block(self, family: str | None, codes_a, codes_b, coeff) -> None:
        """Add ``coeff * x[codes_a] * x[codes_b]`` term by term (``x[codes_a]`` alone when ``codes_b`` is None)."""
        self._check_open()
        a = np.asarray(codes_a, dtype=np.int64)
        b = None if codes_b is None else np.asarray(codes_b, dtype=np.int64)
        self.blocks.append((family, a, b, np.broadcast_to(np.asarray(coeff, dtype=float), a.shape)))

    def add_linear(self, key: VariableKey, coeff: float, family: str | None = None) -> None:
        self.add_block(family, [self.catalogue.code(key)], None, coeff)

    def add_quadratic(
        self, key_a: VariableKey, key_b: VariableKey, coeff: float, family: str | None = None
    ) -> None:
        code = self.catalogue.code
        self.add_block(family, [code(key_a)], [code(key_b)], coeff)

    def finalize(self) -> "QuboModel":
        """Eliminate fixed variables, sum each entry, drop zeros and freeze.

        Each entry's coefficients are summed in arrival order, as a
        running ``+=`` over the terms would.
        """
        if self.frozen:
            return self
        slots, n = self.catalogue.slots, self.n_vars
        none = np.empty(0, dtype=np.int64)
        a = np.concatenate([none] + [a for _, a, _, _ in self.blocks])
        b = np.concatenate([none] + [a if b is None else b for _, a, b, _ in self.blocks])
        c = np.concatenate([np.empty(0)] + [c for _, _, _, c in self.blocks])
        i, j = slots[a], slots[b]
        live = (i != FIXED_ZERO) & (j != FIXED_ZERO)
        i, j, c = i[live], j[live], c[live]
        # x_k = 1 drops out of a product, and x * x = x for a binary x.
        i, j = np.where(i == FIXED_ONE, j, i), np.where(j == FIXED_ONE, i, j)
        for value in c[i == FIXED_ONE].tolist():
            self.constant += value
        diag = (i == j) & (i >= 0)
        lin = np.bincount(i[diag], c[diag], minlength=n)
        self.lin_index = np.flatnonzero(np.abs(lin) > 1e-15)
        self.lin_coeff = lin[self.lin_index]
        off = i != j
        pairs, where = np.unique(np.minimum(i[off], j[off]) * n + np.maximum(i[off], j[off]), return_inverse=True)
        quad = np.bincount(where, c[off], minlength=len(pairs))
        keep = np.abs(quad) > 1e-15
        self.q_i, self.q_j = np.divmod(pairs[keep], max(n, 1))
        self.q_c = quad[keep]
        self.frozen = True
        return self

    # -- views ---------------------------------------------------------------
    @cached_property
    def linear(self) -> dict[int, float]:
        self._check_final()
        return dict(zip(self.lin_index.tolist(), self.lin_coeff.tolist()))

    @cached_property
    def quadratic(self) -> dict[tuple[int, int], float]:
        self._check_final()
        return dict(zip(zip(self.q_i.tolist(), self.q_j.tolist()), self.q_c.tolist()))

    @property
    def records(self) -> list[TermRecord]:
        """Every tagged term as emitted, grouped by block, with its keys."""
        keys = self.catalogue.keys
        out: list[TermRecord] = []
        for family, a, b, coeff in self.blocks:
            if family is None:
                continue
            keys_a = [keys[x] for x in a.tolist()]
            keys_b = repeat(None) if b is None else [keys[x] for x in b.tolist()]
            out.extend(map(TermRecord, repeat(family), keys_a, keys_b, coeff.tolist()))
        return out

    @property
    def term_counts(self) -> Counter:
        counts: Counter = Counter()
        for family, a, _, _ in self.blocks:
            if family is not None:
                counts[family] += len(a)
        return counts

    # -- evaluation --------------------------------------------------------
    @property
    def n_vars(self) -> int:
        return self.catalogue.n_free

    def energy(self, bits: Sequence[int]) -> float:
        if len(bits) != self.n_vars:
            raise ValueError(f"expected {self.n_vars} bits, got {len(bits)}")
        self._check_final()
        on = np.asarray(bits, dtype=bool)
        return (
            self.constant
            + float(self.lin_coeff[on[self.lin_index]].sum())
            + float(self.q_c[on[self.q_i] & on[self.q_j]].sum())
        )

    def dense_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Linear vector and symmetric coupling matrix, built on each call."""
        self._check_final()
        n = self.n_vars
        if n > _DENSE_LIMIT:
            raise BuildError(f"model too large for dense evaluation ({n} variables)")
        lin = np.zeros(n)
        lin[self.lin_index] = self.lin_coeff
        w = np.zeros((n, n))
        w[self.q_i, self.q_j] = self.q_c
        w[self.q_j, self.q_i] = self.q_c
        return lin, w

    def energies(self, bits: np.ndarray) -> np.ndarray:
        """Energies of a batch of assignments, one row per bitstring."""
        b = np.asarray(bits, dtype=float)
        if b.ndim != 2 or b.shape[1] != self.n_vars:
            raise ValueError(f"expected shape (m, {self.n_vars})")
        lin, w = self.dense_arrays()
        return self.constant + b @ lin + 0.5 * np.einsum("ij,ij->i", b @ w, b)

    def to_ising(self) -> tuple[np.ndarray, dict[tuple[int, int], float], float]:
        """Spin form under x = (1 + s) / 2, energy preserved exactly."""
        self._check_final()
        n = self.n_vars
        h = (
            np.bincount(self.lin_index, self.lin_coeff / 2.0, minlength=n)
            + np.bincount(self.q_i, self.q_c / 4.0, minlength=n)
            + np.bincount(self.q_j, self.q_c / 4.0, minlength=n)
        )
        j = dict(zip(zip(self.q_i.tolist(), self.q_j.tolist()), (self.q_c / 4.0).tolist()))
        offset = self.constant + float(self.lin_coeff.sum()) / 2.0 + float(self.q_c.sum()) / 4.0
        return h, j, offset

    # -- identity and interchange --------------------------------------------
    @cached_property
    def _entry_text(self) -> tuple[str, str, str]:
        """The ``linear`` and ``quadratic`` entries rendered once, as compact
        rows ``i, c], [i, c`` without outer brackets, and their fingerprint."""
        self._check_final()
        linear = _entries(self.lin_index, self.lin_coeff)
        quadratic = _entries(self.q_i, self.q_j, self.q_c)
        lin, quad = (f"[[{e}]]" if e else "[]" for e in (linear, quadratic))
        # json.dumps({"n", "constant", "linear", "quadratic"}, sort_keys=True), spelled out
        payload = f'{{"constant": {json.dumps(self.constant)}, "linear": {lin}, "n": {self.n_vars}, "quadratic": {quad}}}'
        return linear, quadratic, hashlib.md5(payload.encode()).hexdigest()[:12]

    def fingerprint(self) -> str:
        """First 12 hex digits of the md5 of the compact model JSON, computed once."""
        return self._entry_text[2]


def _entries(*columns: np.ndarray) -> str:
    """Join COO columns into ``a, b], [c, d``, each number spelled as json
    spells it: ``repr``, or json's own word for a non-finite float."""
    spelled = [map(repr if np.isfinite(c).all() else json.dumps, c.tolist()) for c in columns]
    return "], [".join(map(", ".join, zip(*spelled)))


def _rows(entries: str) -> str:
    """The rows as a top-level value, one ``[i, c]`` per line (numbers hold no bracket)."""
    rows = entries.replace("], [", "],\n    [")
    return f"[\n    [{rows}]\n  ]" if entries else "[]"


def _variables(keys: Sequence[VariableKey]) -> str:
    """One compact object per free key, one per line, as a top-level value."""
    caps = {c: json.dumps(list(c)) for c in {k.capacity for k in keys}}
    rows = ",\n    ".join(
        f'{{"capacity": {caps[k.capacity]}, "city": {k.city}, "index": {idx}, '
        f'"state": "{k.state}", "tau": {k.tau}, "vehicle": {k.vehicle}}}'
        for idx, k in enumerate(keys)
    )
    return f"[\n    {rows}\n  ]" if keys else "[]"


def ising_energy(
    h: np.ndarray, j: dict[tuple[int, int], float], offset: float, spins: Sequence[int]
) -> float:
    total = offset + float(np.dot(h, spins))
    for (a, b), c in j.items():
        total += c * spins[a] * spins[b]
    return total


def write_model(model: QuboModel, path, extra: dict | None = None) -> None:
    """Write the model file; its entry rows come from the text the fingerprint hashed."""
    linear, quadratic, ref = model._entry_text
    rendered = {"linear": _rows(linear), "quadratic": _rows(quadratic),
                "variables": _variables(model.catalogue.free_keys)}
    write_json(path, {"constant": model.constant, "model_ref": ref, "n_vars": model.n_vars, **(extra or {})}, rendered)
