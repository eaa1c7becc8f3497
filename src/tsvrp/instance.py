"""Problem instances for time-gridded vehicle routing.

An instance bundles a uniform time grid, the fleet, travel cost and
duration series, optional capacity-variation data, and window
constraints.  All public indices are 1-based: intervals run 1..T,
cities 1..N, vehicles 1..k.  Travel matrices are indexed
``(tau, to_city, from_city)``: rows are arrival cities, columns are
departure cities, and an entry applies to the leg departing in
interval ``tau``.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

MODEL_KINDS = ("TS_VRP", "TS_MCVRP", "TS_SVRP", "TS_MCSVRP")
STATEFUL_KINDS = ("TS_SVRP", "TS_MCSVRP")
CAPACITATED_KINDS = ("TS_MCVRP", "TS_MCSVRP")

# Slack absorbs float rounding so exact multiples of the unit land on the
# lower interval count instead of spilling into the next one.
_CEIL_SLACK = 1e-9


class InstanceError(ValueError):
    """An instance document or field violates the format contract."""


@dataclass(frozen=True)
class TimeGrid:
    """Uniform division of the planning horizon into T intervals."""

    interval_count: int
    unit_minutes: float
    origin_label: str | None = None

    def __post_init__(self) -> None:
        if self.interval_count < 2:
            raise InstanceError(f"interval_count must be >= 2, got {self.interval_count}")
        if self.unit_minutes <= 0:
            raise InstanceError(f"unit_minutes must be positive, got {self.unit_minutes}")


@dataclass(frozen=True)
class Vehicle:
    """One vehicle: start/end cities, optional type tag, capacity box.

    ``capacity_lower``/``capacity_upper`` bound each capacitated variable;
    ``start_capacity`` is the status the vehicle carries in interval 1 and
    defaults to the lower bounds.
    """

    id: int
    start_city: int
    end_city: int | None = None
    type_tag: str | None = None
    capacity_lower: tuple[int, ...] = ()
    capacity_upper: tuple[int, ...] = ()
    start_capacity: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.capacity_lower) != len(self.capacity_upper):
            raise InstanceError(f"vehicle {self.id}: capacity bound lengths differ")
        for m, (q, qq) in enumerate(zip(self.capacity_lower, self.capacity_upper), start=1):
            if q > qq:
                raise InstanceError(f"vehicle {self.id}: q_{m}={q} exceeds Q_{m}={qq}")
        if self.start_capacity is None:
            object.__setattr__(self, "start_capacity", tuple(self.capacity_lower))
        sc = self.start_capacity
        if len(sc) != len(self.capacity_lower):
            raise InstanceError(f"vehicle {self.id}: start_capacity has wrong length")
        for m, (c, q, qq) in enumerate(zip(sc, self.capacity_lower, self.capacity_upper), start=1):
            if not q <= c <= qq:
                raise InstanceError(
                    f"vehicle {self.id}: start capacity c_{m}={c} outside [{q}, {qq}]"
                )


@dataclass(frozen=True)
class CostSeries:
    """Travel costs per departure interval; diagonal entries are ignored.

    Asymmetric costs are allowed: the cost into city a from city b need
    not equal the reverse leg.
    """

    values: np.ndarray  # float, shape (T-1, N, N), [tau-1][to-1][from-1]

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 3 or v.shape[1] != v.shape[2]:
            raise InstanceError(f"cost series must have shape (T-1, N, N), got {v.shape}")
        off = ~np.eye(v.shape[1], dtype=bool)
        entries = v[:, off]
        if not np.all(np.isfinite(entries)):
            raise InstanceError("cost entries must be finite")
        if np.any(entries < 0):
            raise InstanceError("cost entries must be non-negative")

    def min_max(self) -> tuple[float, float]:
        """Smallest and largest off-diagonal cost over all intervals."""
        off = ~np.eye(self.values.shape[1], dtype=bool)
        entries = self.values[:, off]
        return float(entries.min()), float(entries.max())


@dataclass(frozen=True)
class DurationSeries:
    """Integer travel durations (and stay durations for two-state models)."""

    travel: np.ndarray  # int, shape (T-1, N, N), [tau-1][to-1][from-1]
    stay: np.ndarray | None = None  # int, shape (T-1, N), [tau-1][city-1]

    def __post_init__(self) -> None:
        t = np.asarray(self.travel, dtype=int)
        object.__setattr__(self, "travel", t)
        if t.ndim != 3 or t.shape[1] != t.shape[2]:
            raise InstanceError(f"duration series must have shape (T-1, N, N), got {t.shape}")
        off = ~np.eye(t.shape[1], dtype=bool)
        if np.any(t[:, off] < 1):
            raise InstanceError("duration must be ≥ 1")
        if self.stay is not None:
            s = np.asarray(self.stay, dtype=int)
            object.__setattr__(self, "stay", s)
            if s.shape != (t.shape[0], t.shape[1]):
                raise InstanceError(f"stay series must have shape (T-1, N), got {s.shape}")
            if np.any(s < 1):
                raise InstanceError("duration must be ≥ 1 (stay)")


@dataclass(frozen=True)
class VariationSeries:
    """Signed per-leg changes of each capacitated variable (pickup/delivery)."""

    values: np.ndarray  # int, shape (T-1, N, N, M), [tau-1][to-1][from-1][m-1]

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=int)
        object.__setattr__(self, "values", v)
        if v.ndim != 4 or v.shape[1] != v.shape[2]:
            raise InstanceError(f"variation series must have shape (T-1, N, N, M), got {v.shape}")


@dataclass(frozen=True)
class WindowSet:
    """Forbidden (vehicle, interval, city) triples; their qubits are fixed to 0."""

    forbidden: frozenset[tuple[int, int, int]] = frozenset()

    def forbids(self, vehicle: int, tau: int, city: int) -> bool:
        return (vehicle, tau, city) in self.forbidden

    def sorted_triples(self) -> list[tuple[int, int, int]]:
        return sorted(self.forbidden)


@dataclass(frozen=True)
class Instance:
    """A complete, validated routing problem description."""

    grid: TimeGrid
    city_labels: tuple[str, ...]
    vehicles: tuple[Vehicle, ...]
    costs: CostSeries
    durations: DurationSeries
    variations: VariationSeries | None
    windows: WindowSet
    model_kind: str
    capacity_dims: int

    def __post_init__(self) -> None:
        _check_instance_structure(self)

    # -- shape helpers -------------------------------------------------
    @property
    def n_cities(self) -> int:
        return len(self.city_labels)

    @property
    def n_vehicles(self) -> int:
        return len(self.vehicles)

    @property
    def horizon(self) -> int:
        return self.grid.interval_count

    @property
    def stateful(self) -> bool:
        return self.model_kind in STATEFUL_KINDS

    @property
    def depot_cities(self) -> frozenset[int]:
        cities: set[int] = set()
        for v in self.vehicles:
            cities.add(v.start_city)
            if v.end_city is not None:
                cities.add(v.end_city)
        return frozenset(cities)

    @property
    def customer_cities(self) -> tuple[int, ...]:
        return tuple(a for a in range(1, self.n_cities + 1) if a not in self.depot_cities)

    def vehicle(self, vehicle_id: int) -> Vehicle:
        return self.vehicles[vehicle_id - 1]

    # -- matrix accessors (1-based everywhere) -------------------------
    def cost(self, tau: int, to_city: int, from_city: int) -> float:
        if to_city == from_city:
            raise InstanceError("cost is undefined for a city paired with itself")
        return float(self.costs.values[tau - 1, to_city - 1, from_city - 1])

    def duration(self, tau: int, to_city: int, from_city: int) -> int:
        if to_city == from_city:
            raise InstanceError("travel duration is undefined for a city paired with itself")
        return int(self.durations.travel[tau - 1, to_city - 1, from_city - 1])

    def stay(self, tau: int, city: int) -> int:
        if self.durations.stay is None:
            raise InstanceError("instance has no stay durations")
        return int(self.durations.stay[tau - 1, city - 1])

    def variation(self, tau: int, to_city: int, from_city: int) -> tuple[int, ...]:
        if self.variations is None:
            return ()
        if to_city == from_city:
            raise InstanceError("variation is undefined for a city paired with itself")
        return tuple(int(x) for x in self.variations.values[tau - 1, to_city - 1, from_city - 1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return instance_to_document(self) == instance_to_document(other)

    def __hash__(self) -> int:  # documents are canonical and stable
        return hash(serialize_instance(self))


def _check_instance_structure(inst: Instance) -> None:
    n, t, k, m = inst.n_cities, inst.horizon, inst.n_vehicles, inst.capacity_dims
    if inst.model_kind not in MODEL_KINDS:
        raise InstanceError(f"unknown model_kind {inst.model_kind!r}")
    if n < 2:
        raise InstanceError(f"need at least 2 cities, got {n}")
    if k < 1:
        raise InstanceError("need at least one vehicle")
    if len(set(inst.city_labels)) != n:
        raise InstanceError("city labels must be unique")
    if inst.costs.values.shape != (t - 1, n, n):
        raise InstanceError(
            f"cost series shape {inst.costs.values.shape} does not match (T-1, N, N)"
        )
    if inst.durations.travel.shape != (t - 1, n, n):
        raise InstanceError(
            f"duration series shape {inst.durations.travel.shape} does not match (T-1, N, N)"
        )
    if (inst.variations is not None) != (m >= 1):
        raise InstanceError("variations must be present exactly when capacity_dims >= 1")
    if inst.variations is not None and inst.variations.values.shape != (t - 1, n, n, m):
        raise InstanceError("variation series shape does not match (T-1, N, N, M)")
    if inst.model_kind in CAPACITATED_KINDS and m < 1:
        raise InstanceError(f"{inst.model_kind} requires capacity_dims >= 1")
    if inst.model_kind not in CAPACITATED_KINDS and m != 0:
        raise InstanceError(f"{inst.model_kind} requires capacity_dims = 0")
    if inst.model_kind in STATEFUL_KINDS and inst.durations.stay is None:
        raise InstanceError(f"{inst.model_kind} requires stay durations")
    for idx, v in enumerate(inst.vehicles, start=1):
        if v.id != idx:
            raise InstanceError(f"vehicle ids must be 1..k in order, got {v.id} at slot {idx}")
        if not 1 <= v.start_city <= n:
            raise InstanceError(f"vehicle {v.id}: start city {v.start_city} out of range")
        if v.end_city is not None and not 1 <= v.end_city <= n:
            raise InstanceError(f"vehicle {v.id}: end city {v.end_city} out of range")
        if len(v.capacity_lower) != m:
            raise InstanceError(f"vehicle {v.id}: capacity vector length != capacity_dims")
    for (i, tau, a) in inst.windows.forbidden:
        if not (1 <= i <= k and 1 <= tau <= t and 1 <= a <= n):
            raise InstanceError(f"window triple {(i, tau, a)} references invalid indices")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def discretize_durations(
    raw_minutes: np.ndarray,
    unit_minutes: float,
    stay_raw_minutes: np.ndarray | None = None,
) -> DurationSeries:
    """Convert raw travel (and optional stay) minutes to interval counts.

    Every leg of r minutes occupies ``ceil(r / unit)`` intervals, clamped
    below at one so an arrival always falls strictly after its departure,
    and above at T + 1: a leg that long ends past the horizon whenever it
    departs, and the clamp keeps a huge count from wrapping in the cast.
    """
    if not (math.isfinite(unit_minutes) and unit_minutes > 0):
        raise InstanceError(f"unit_minutes must be positive and finite, got {unit_minutes}")
    raw = np.asarray(raw_minutes, dtype=float)
    if raw.ndim != 3 or raw.shape[1] != raw.shape[2]:
        raise InstanceError(f"raw minutes must have shape (T-1, N, N), got {raw.shape}")
    longest = raw.shape[0] + 2  # T + 1
    off = ~np.eye(raw.shape[1], dtype=bool)
    if np.any(raw[:, off] < 0):
        raise InstanceError("raw duration must be non-negative")
    travel = _interval_counts(raw, unit_minutes, longest)
    stay = None
    if stay_raw_minutes is not None:
        sraw = np.asarray(stay_raw_minutes, dtype=float)
        if np.any(sraw < 0):
            raise InstanceError("raw duration must be non-negative")
        stay = _interval_counts(sraw, unit_minutes, longest)
    return DurationSeries(travel=travel, stay=stay)


def _interval_counts(minutes: np.ndarray, unit_minutes: float, longest: int) -> np.ndarray:
    if not np.all(np.isfinite(minutes)):
        raise InstanceError("raw duration must be finite")
    with np.errstate(over="ignore"):  # a tiny unit overflows to inf, then clamps
        counts = np.ceil(minutes / unit_minutes - _CEIL_SLACK)
    return np.clip(counts, 1, longest).astype(int)


def apply_priority(costs: CostSeries, weight: float, target_cities: Iterable[int]) -> CostSeries:
    """Scale every leg arriving at a target city by ``weight``.

    The weight must lie strictly between 0 and 1; smaller values make the
    targeted arrivals cheaper and therefore more attractive.
    """
    if not 0.0 < weight < 1.0:
        raise InstanceError(f"priority weight must lie in (0, 1), got {weight}")
    targets = sorted(set(target_cities))
    n = costs.values.shape[1]
    for a in targets:
        if not 1 <= a <= n:
            raise InstanceError(f"priority target city {a} out of range")
    scaled = costs.values.copy()
    for a in targets:
        scaled[:, a - 1, :] *= weight
    return CostSeries(values=scaled)


@dataclass(frozen=True)
class ValidationIssue:
    severity: str  # "warning": structural errors raise on construction
    code: str
    message: str


def validate_instance(inst: Instance) -> list[ValidationIssue]:
    """Warn about windows or capacity data that make part of the problem
    unreachable.  Structural errors never reach this pass: every
    ``Instance`` checks its structure on construction.
    """
    issues: list[ValidationIssue] = []
    t, n = inst.horizon, inst.n_cities
    for v in inst.vehicles:
        if inst.windows.forbids(v.id, 1, v.start_city):
            issues.append(
                ValidationIssue(
                    "warning",
                    "start-window",
                    f"vehicle {v.id}: start conflicts with window at interval 1",
                )
            )
        if v.end_city is not None:
            if all(inst.windows.forbids(v.id, tau, v.end_city) for tau in range(1, t + 1)):
                issues.append(
                    ValidationIssue(
                        "warning",
                        "end-window",
                        f"vehicle {v.id}: end city {v.end_city} lies entirely inside forbidden windows",
                    )
                )
            if not inst.stateful and v.end_city == v.start_city:
                issues.append(
                    ValidationIssue(
                        "warning",
                        "end-equals-start",
                        f"vehicle {v.id}: single-state models cannot revisit the start city, "
                        "so end == start is unsatisfiable",
                    )
                )

    for a in range(1, n + 1):
        if all(
            inst.windows.forbids(i, tau, a)
            for i in range(1, inst.n_vehicles + 1)
            for tau in range(1, t + 1)
        ):
            issues.append(
                ValidationIssue("warning", "city-unvisitable", f"city {a} is unvisitable: every interval is window-forbidden")
            )

    if inst.capacity_dims >= 1:
        issues.extend(_capacity_reachability_issues(inst))
    return issues


def _capacity_reachability_issues(inst: Instance) -> list[ValidationIssue]:
    """Warn when no inbound leg of a city admits an in-bounds capacity status."""
    issues = []
    for v in inst.vehicles:
        lo, hi = v.capacity_lower, v.capacity_upper
        boxes = capacity_box(lo, hi)
        for a in range(1, inst.n_cities + 1):
            if a == v.start_city:
                continue
            reachable = False
            for tau in range(1, inst.horizon):
                for b in range(1, inst.n_cities + 1):
                    if b == a:
                        continue
                    delta = inst.variation(tau, a, b)
                    for c in boxes:
                        arrived = tuple(ci + di for ci, di in zip(c, delta))
                        if all(l <= x <= h for x, l, h in zip(arrived, lo, hi)):
                            reachable = True
                            break
                    if reachable:
                        break
                if reachable:
                    break
            if not reachable:
                issues.append(
                    ValidationIssue(
                        "warning",
                        "capacity-unreachable",
                        f"vehicle {v.id}: city {a} unreachable under capacity bounds",
                    )
                )
    return issues


def capacity_box(lo: Sequence[int], hi: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Every capacity status vector within the bounds, in lexicographic order."""
    return tuple(itertools.product(*(range(l, h + 1) for l, h in zip(lo, hi))))


# ---------------------------------------------------------------------------
# Canonical document format
# ---------------------------------------------------------------------------


def instance_to_document(inst: Instance) -> dict:
    """Render the instance as its canonical 1-based JSON document."""
    dt = inst.grid.unit_minutes
    doc: dict = {
        "index_base": 1,
        "model_kind": inst.model_kind,
        "capacity_dims": inst.capacity_dims,
        "grid": {"T": inst.horizon, "unit_minutes": dt},
        "cities": list(inst.city_labels),
        "vehicles": [],
        "costs": inst.costs.values.tolist(),
        "raw_minutes": (inst.durations.travel * dt).tolist(),
        "windows": [
            {"vehicle": i, "tau": tau, "city": a} for (i, tau, a) in inst.windows.sorted_triples()
        ],
    }
    if inst.grid.origin_label is not None:
        doc["grid"]["origin_label"] = inst.grid.origin_label
    for v in inst.vehicles:
        entry: dict = {"start": v.start_city, "q": list(v.capacity_lower), "Q": list(v.capacity_upper)}
        if v.end_city is not None:
            entry["end"] = v.end_city
        if v.type_tag is not None:
            entry["type"] = v.type_tag
        if v.start_capacity != v.capacity_lower:
            entry["c0"] = list(v.start_capacity)
        doc["vehicles"].append(entry)
    if inst.durations.stay is not None:
        doc["stay_minutes"] = (inst.durations.stay * dt).tolist()
    if inst.variations is not None:
        doc["variations"] = inst.variations.values.tolist()
    return doc


def serialize_instance(inst: Instance) -> str:
    return json.dumps(instance_to_document(inst), indent=2, sort_keys=True)


def _require(doc: dict, key: str):
    if key not in doc:
        raise InstanceError(f"missing required key {key!r}")
    return doc[key]


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise InstanceError(f"{what} must be a JSON object, got {value!r}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise InstanceError(f"{what} must be a JSON list, got {value!r}")
    return value


def _number(value, what: str, integer: bool = False):
    """Read a finite JSON number.  An ``integer`` field takes ``3.0`` as 3
    but rejects any fractional part; booleans and strings are never
    numbers, so nothing is coerced or silently truncated."""
    bad = isinstance(value, bool) or not isinstance(value, (int, float))
    if not bad and integer:
        bad = isinstance(value, float) and not value.is_integer()  # NaN and ±inf too
    elif not bad:
        try:
            bad = not math.isfinite(value)
        except OverflowError:  # an integer beyond the float range
            bad = True
    if bad:
        kind = "an integer" if integer else "a finite number"
        raise InstanceError(f"{what} must be {kind}, got {value!r}")
    return int(value) if integer else float(value)


def _integers(value, what: str) -> tuple[int, ...]:
    return tuple(_number(x, what, integer=True) for x in _list(value, what))


def _dense_array(raw, shape: tuple[int, ...], what: str) -> np.ndarray:
    """Convert nested lists into a dense array, rejecting holes and shape errors.

    Matrices shaped (T-1, N, N, ...) may carry null on the city diagonal,
    which is ignored; any other missing entry is an error, never a default.
    """
    try:
        arr = np.asarray(raw, dtype=object)
    except Exception as exc:
        raise InstanceError(f"{what} is not a well-formed dense array: {exc}") from exc
    if arr.shape != shape:
        raise InstanceError(f"{what} must be a dense array of shape {shape}, got {arr.shape}")
    city_square = len(shape) >= 3 and shape[1] == shape[2]
    flat = arr.reshape(-1)
    out = np.empty(len(flat), dtype=float)
    for pos, value in enumerate(flat):
        if value is None:
            if city_square:
                idx = np.unravel_index(pos, shape)
                if idx[1] == idx[2]:
                    out[pos] = 0.0
                    continue
            raise InstanceError(f"{what} has a missing entry at position {np.unravel_index(pos, shape)}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise InstanceError(f"{what} has a non-numeric entry {value!r}")
        try:
            out[pos] = float(value)
        except OverflowError as exc:
            raise InstanceError(f"{what} has an out-of-range entry {value!r}") from exc
    return out.reshape(shape)


def instance_from_document(doc: dict) -> Instance:
    if not isinstance(doc, dict):
        raise InstanceError("instance document must be a JSON object")
    if doc.get("index_base") != 1:
        raise InstanceError('instance document must declare "index_base": 1')
    grid_doc = _object(_require(doc, "grid"), "grid")
    grid = TimeGrid(
        interval_count=_number(_require(grid_doc, "T"), "grid T", integer=True),
        unit_minutes=_number(_require(grid_doc, "unit_minutes"), "grid unit_minutes"),
        origin_label=grid_doc.get("origin_label"),
    )
    labels = tuple(str(x) for x in _list(_require(doc, "cities"), "cities"))
    n, t = len(labels), grid.interval_count
    model_kind = str(_require(doc, "model_kind"))
    if model_kind not in MODEL_KINDS:
        raise InstanceError(f"unknown model_kind {model_kind!r}")
    m = _number(_require(doc, "capacity_dims"), "capacity_dims", integer=True)
    if m < 0:
        raise InstanceError("capacity_dims must be >= 0")

    vehicles = []
    for slot, vdoc in enumerate(_list(_require(doc, "vehicles"), "vehicles"), start=1):
        what = f"vehicle {slot}"
        vdoc = _object(vdoc, what)
        c0 = vdoc.get("c0")
        end = vdoc.get("end")
        vehicles.append(
            Vehicle(
                id=slot,
                start_city=_number(_require(vdoc, "start"), f"{what} start", integer=True),
                end_city=_number(end, f"{what} end", integer=True) if end is not None else None,
                type_tag=vdoc.get("type"),
                capacity_lower=_integers(vdoc.get("q", []), f"{what} q"),
                capacity_upper=_integers(vdoc.get("Q", []), f"{what} Q"),
                start_capacity=_integers(c0, f"{what} c0") if c0 is not None else None,
            )
        )

    costs = CostSeries(values=_dense_array(_require(doc, "costs"), (t - 1, n, n), "costs"))
    raw = _dense_array(_require(doc, "raw_minutes"), (t - 1, n, n), "raw_minutes")
    off = ~np.eye(n, dtype=bool)
    if np.any(raw[:, off] <= 0):
        raise InstanceError("duration must be ≥ 1: raw_minutes entries must be positive")
    stay_raw = None
    if model_kind in STATEFUL_KINDS:
        if "stay_minutes" not in doc:
            raise InstanceError(f"{model_kind} requires stay_minutes")
        stay_raw = _dense_array(doc["stay_minutes"], (t - 1, n), "stay_minutes")
        if np.any(stay_raw <= 0):
            raise InstanceError("duration must be ≥ 1: stay_minutes entries must be positive")
    elif "stay_minutes" in doc:
        raise InstanceError(f"{model_kind} does not accept stay_minutes")
    durations = discretize_durations(raw, grid.unit_minutes, stay_raw)

    variations = None
    if m >= 1:
        if "variations" not in doc:
            raise InstanceError("capacity_dims >= 1 requires a variations array")
        var_arr = _dense_array(doc["variations"], (t - 1, n, n, m), "variations")
        if np.any(var_arr[:, off, :] != np.round(var_arr[:, off, :])):
            raise InstanceError("variation entries must be integers")
        variations = VariationSeries(values=var_arr.astype(int))
    elif "variations" in doc:
        raise InstanceError("variations present but capacity_dims = 0")

    triples = set()
    for w in _list(doc.get("windows", []), "windows"):
        w = _object(w, "window")
        fields = ("vehicle", "tau", "city")
        triples.add(tuple(_number(_require(w, f), f"window {f}", integer=True) for f in fields))

    return Instance(
        grid=grid,
        city_labels=labels,
        vehicles=tuple(vehicles),
        costs=costs,
        durations=durations,
        variations=variations,
        windows=WindowSet(frozenset(triples)),
        model_kind=model_kind,
        capacity_dims=m,
    )


def parse_instance(text: str) -> Instance:
    """Parse the canonical JSON instance document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceError(f"malformed document: {exc}") from exc
    return instance_from_document(doc)


def read_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def write_json(path, doc: dict) -> None:
    """Write a document as the project's canonical sorted, indented JSON."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
