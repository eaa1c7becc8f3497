"""Decode bitstrings to route plans and check them against the instance.

The checker works directly on the instance data, independently of the
QUBO, and distinguishes *hard* violations (those the penalty terms
encode, e.g. a revisit or an early arrival) from *soft* ones that the
energy landscape only discourages (an unvisited customer, a missed end
city, an unforced late arrival).  A plan is feasible only when both
lists are empty.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .instance import Instance, _integers, _list, _number, _object, _require
from .qubo import (
    ARRIVAL,
    DEPARTURE,
    FIXED_ZERO,
    PLAIN,
    STATES_PLAIN,
    STATES_TWO,
    VariableCatalogue,
    VariableKey,
)
from .samplers import SampleSet

MODE_STRICT = "strict"
MODE_WINDOW_TOLERANT = "window-tolerant"
MODES = (MODE_STRICT, MODE_WINDOW_TOLERANT)
STATES = STATES_PLAIN + STATES_TWO


class Violation(NamedTuple):
    """One broken rule.

    ``hard`` marks violations that mirror a penalty term one-to-one;
    whether a given kind is hard can depend on context (for example a
    capacity handover is penalty-priced only at the nominal gap).
    """

    kind: str
    detail: str
    hard: bool


class DecodeError(ValueError):
    """A bitstring does not decode to one event per vehicle-interval."""

    def __init__(self, violations: Sequence[Violation]):
        self.violations = tuple(violations)
        super().__init__("; ".join(f"{v.kind}: {v.detail}" for v in violations))


class Event(NamedTuple):
    tau: int
    city: int
    state: str
    capacity: tuple[int, ...]


@dataclass(frozen=True)
class RoutePlan:
    """Per-vehicle timelines of (interval, city, state, capacity) events."""

    events: dict[int, tuple[Event, ...]]

    def __post_init__(self) -> None:
        ordered = {
            i: tuple(sorted(evts, key=lambda e: e.tau)) for i, evts in sorted(self.events.items())
        }
        object.__setattr__(self, "events", ordered)

    def canonical(self) -> tuple:
        return tuple(
            (i, tuple((e.tau, e.city, e.state, e.capacity) for e in evts))
            for i, evts in self.events.items()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RoutePlan):
            return NotImplemented
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    def travel_legs(self) -> list[tuple[int, int, int, int, int]]:
        """(vehicle, depart_tau, from_city, arrive_tau, to_city) per leg."""
        legs = []
        for i, evts in self.events.items():
            for prev, nxt in zip(evts, evts[1:]):
                if prev.city != nxt.city:
                    legs.append((i, prev.tau, prev.city, nxt.tau, nxt.city))
        return legs

    def stay_spans(self) -> list[tuple[int, int, int, int]]:
        """(vehicle, city, arrive_tau, depart_tau) per arrival->departure pair."""
        spans = []
        for i, evts in self.events.items():
            for prev, nxt in zip(evts, evts[1:]):
                if prev.state == ARRIVAL and nxt.state == DEPARTURE and prev.city == nxt.city:
                    spans.append((i, prev.city, prev.tau, nxt.tau))
        return spans

    def to_document(self) -> dict:
        return {
            "vehicles": [
                {
                    "vehicle": i,
                    "events": [
                        {
                            "tau": e.tau,
                            "city": e.city,
                            "state": e.state,
                            "capacity": list(e.capacity),
                        }
                        for e in evts
                    ],
                }
                for i, evts in self.events.items()
            ]
        }

    @classmethod
    def from_document(cls, doc) -> "RoutePlan":
        """Read a plan document; a malformed field raises ``ValueError``."""
        events: dict[int, tuple[Event, ...]] = {}
        for entry in _list(_require(_object(doc, "plan"), "vehicles"), "plan vehicles"):
            entry = _object(entry, "plan vehicle")
            i = _number(_require(entry, "vehicle"), "plan vehicle", integer=True)
            if i in events:
                raise ValueError(f"plan lists vehicle {i} twice")
            evts = []
            for e in _list(_require(entry, "events"), f"vehicle {i} events"):
                what = f"vehicle {i} event"
                e = _object(e, what)
                state = _require(e, "state")
                if state not in STATES:
                    raise ValueError(f"{what} state must be one of {STATES}, got {state!r}")
                tau, city = (_number(_require(e, f), f"{what} {f}", integer=True) for f in ("tau", "city"))
                evts.append(Event(tau, city, state, _integers(e.get("capacity", []), f"{what} capacity")))
            events[i] = tuple(evts)
        return cls(events=events)


@dataclass(frozen=True)
class FeasibilityReport:
    violations: tuple[Violation, ...]

    @property
    def feasible(self) -> bool:
        return not self.violations

    @property
    def hard(self) -> tuple[Violation, ...]:
        return tuple(v for v in self.violations if v.hard)


def decode(bits: Sequence[int], catalogue: VariableCatalogue) -> RoutePlan:
    """Turn set bits (plus fixed-to-one keys) into per-vehicle timelines.

    Two set keys in one (vehicle, interval) cell cannot be ordered into a
    timeline; that is reported as a decode failure, never resolved
    silently.
    """
    if len(bits) != catalogue.n_free:
        raise ValueError(f"expected {catalogue.n_free} bits, got {len(bits)}")
    chosen: list[VariableKey] = [key for key, value in catalogue.fixed.items() if value == 1]
    for idx, bit in enumerate(bits):
        if bit:
            chosen.append(catalogue.free_keys[idx])

    clashes = []
    cells: dict[tuple[int, int], list[VariableKey]] = {}
    for key in chosen:
        cells.setdefault((key.vehicle, key.tau), []).append(key)
    for (vehicle, tau), keys in sorted(cells.items()):
        if len(keys) > 1:
            clashes.append(
                Violation(
                    "MULTI_CITY_SAME_TIME",
                    f"vehicle {vehicle} has {len(keys)} events in interval {tau}",
                    True,
                )
            )
    if clashes:
        raise DecodeError(clashes)

    events: dict[int, list[Event]] = {v.id: [] for v in catalogue.instance.vehicles}
    for key in chosen:
        events[key.vehicle].append(Event(key.tau, key.city, key.state, key.capacity))
    return RoutePlan(events={i: tuple(evts) for i, evts in events.items()})


def encode_plan(plan: RoutePlan, catalogue: VariableCatalogue) -> np.ndarray:
    """Inverse of :func:`decode`: a plan's bits over the free variables."""
    bits = np.zeros(catalogue.n_free, dtype=int)
    for i, evts in plan.events.items():
        for e in evts:
            key = VariableKey(i, e.tau, e.city, e.capacity, e.state)
            slot = catalogue.slot(key)
            if slot == FIXED_ZERO:
                raise ValueError(f"plan uses a slot fixed to zero: {key}")
            if slot >= 0:
                bits[slot] = 1
    return bits


# ---------------------------------------------------------------------------
# Feasibility
# ---------------------------------------------------------------------------


def check_feasibility(
    plan: RoutePlan,
    inst: Instance,
    mode: str = MODE_WINDOW_TOLERANT,
) -> FeasibilityReport:
    """Check a plan against the instance (never against the QUBO).

    In ``window-tolerant`` mode a longer-than-nominal leg or stay is
    accepted exactly when a window forbids the on-time slot; ``strict``
    mode demands nominal spacing everywhere.  Vehicles may share a depot
    in the same interval; any other shared city is a violation.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    v: list[Violation] = []
    for i in plan.events:
        if not 1 <= i <= inst.n_vehicles:
            v.append(Violation("UNKNOWN_VEHICLE", f"the instance has no vehicle {i}", True))
    for vehicle in inst.vehicles:
        v.extend(_vehicle_checks(plan.events.get(vehicle.id, ()), vehicle, inst, mode))
    v.extend(_fleet_checks(plan, inst))
    return FeasibilityReport(violations=tuple(v))


def _vehicle_checks(events, vehicle, inst: Instance, mode: str) -> list[Violation]:
    issues: list[Violation] = []
    i = vehicle.id
    t = inst.horizon
    two_state = inst.stateful
    start_state = DEPARTURE if two_state else PLAIN

    off_map = False
    for e in events:
        if not 1 <= e.city <= inst.n_cities:
            off_map = True
            issues.append(Violation("WINDOW", f"vehicle {i} event at city {e.city} is off the map", True))
        if inst.windows.forbids(i, e.tau, e.city):
            issues.append(
                Violation("WINDOW", f"vehicle {i} occupies forbidden slot ({e.tau}, {e.city})", True)
            )
        if len(e.capacity) != inst.capacity_dims or not all(
            l <= x <= h for x, l, h in zip(e.capacity, vehicle.capacity_lower, vehicle.capacity_upper)
        ):
            issues.append(
                Violation("CAPACITY_BOUNDS", f"vehicle {i} carries {e.capacity} at interval {e.tau}", True)
            )
        if not 1 <= e.tau <= t:
            issues.append(Violation("WINDOW", f"vehicle {i} event at interval {e.tau} is off the grid", True))

    expected_start = Event(1, vehicle.start_city, start_state, tuple(vehicle.start_capacity))
    if not events or events[0] != expected_start:
        issues.append(
            Violation(
                "START",
                f"vehicle {i} must open with {expected_start}, found "
                f"{events[0] if events else 'no events'}",
                True,
            )
        )
        return issues  # later checks assume an anchored timeline
    if off_map:
        return issues  # and look every city up in the travel matrices

    for idx, e in enumerate(events):
        if idx > 0 and e.tau == events[idx - 1].tau:
            issues.append(
                Violation("MULTI_CITY_SAME_TIME", f"vehicle {i}: two events in interval {e.tau}", True)
            )
    issues.extend(_timing_checks(events, vehicle, inst, mode))

    # Revisits: one visit per (state, city).  A single-state event counts
    # once whatever its label; a two-state stay touches its city once as
    # an arrival and once as a departure (other labels count with the
    # departures).  A two-state tour may close by arriving back at its
    # own start as the final event.
    closing_ok = vehicle.end_city in (None, vehicle.start_city)
    visits: dict[tuple[bool, int], int] = {}
    for idx, e in enumerate(events):
        arrival = two_state and e.state == ARRIVAL
        visits[arrival, e.city] = visits.get((arrival, e.city), 0) + 1
        if arrival and e.city == vehicle.start_city and not (closing_ok and idx == len(events) - 1):
            # No penalty pair prices this shape (the start slot holds a
            # departure, and unlike-state pairs at one city belong to
            # the stay machinery), so it is discouraged, not priced.
            issues.append(
                Violation("REVISIT", f"vehicle {i} returns to its start city {e.city} mid-route", False)
            )
    for (_, city), count in visits.items():
        if count > 1:
            issues.append(Violation("REVISIT", f"vehicle {i} visits city {city} {count} times", True))

    if vehicle.end_city is not None:
        end = vehicle.end_city
        last = events[-1]
        ends_ok = last.city == end and (
            not two_state or last.state == ARRIVAL or len(events) == 1 and end == vehicle.start_city
        )
        if not ends_ok:
            issues.append(
                Violation("END", f"vehicle {i} ends at {last.city}/{last.state}, wants {end}", False)
            )
        # Activity after reaching the destination: in plain models every
        # later slot is explicitly locked out (hard); in two-state models
        # the departure slot itself is pinned to zero and anything beyond
        # an arrival is merely unreachable under tight horizons (soft).
        for idx, e in enumerate(events):
            if e.city != end:
                continue
            if two_state and e.state == DEPARTURE:
                if e.tau >= 2:
                    issues.append(
                        Violation("END", f"vehicle {i} departs its destination {end} at {e.tau}", True)
                    )
                continue
            for later in events[idx + 1 :]:
                issues.append(
                    Violation(
                        "END",
                        f"vehicle {i} is active at ({later.tau}, {later.city}) after "
                        f"reaching its destination {end}",
                        not two_state,
                    )
                )
            break
    return issues


def _window_blocks(inst: Instance, vehicle_id: int, tau: int, city: int) -> bool:
    return tau > inst.horizon or inst.windows.forbids(vehicle_id, tau, city)


def _timing_checks(events, vehicle, inst: Instance, mode: str) -> list[Violation]:
    """Leg and stay timing of one anchored timeline.

    A single-state event is both an arrival and a departure, so one leg
    rule serves every model kind; the transit, stay-block and stay rules
    apply only where a stay separates a city's arrival from its departure.
    """
    issues: list[Violation] = []
    i = vehicle.id
    last = inst.horizon - 1  # the last interval a leg or a stay can start in
    two_state = inst.stateful
    if two_state:
        deps = [e for e in events if e.state == DEPARTURE]
        arrs = [e for e in events if e.state == ARRIVAL]
    else:
        deps = arrs = events

    # Hard layer: pairwise rules mirroring the penalty families.  Leaving
    # d forbids reaching any other city before the nominal travel time
    # has elapsed, and at exactly the nominal gap the capacity status must
    # follow the leg's variation vector.  Two-state travel also blocks
    # departures in transit; fresh arrivals block further arrivals and
    # their own departure for the stay.
    for d in deps:
        if d.tau > last:
            continue
        for a in arrs:
            if a.city == d.city or a.tau <= d.tau:
                continue
            nominal = inst.duration(d.tau, a.city, d.city)
            gap = a.tau - d.tau
            if gap < nominal:
                issues.append(
                    Violation(
                        "EARLY_ARRIVAL",
                        f"vehicle {i} reaches {a.city} at {a.tau} only {gap} after "
                        f"leaving {d.city} at {d.tau} (needs {nominal})",
                        True,
                    )
                )
            elif gap == nominal:
                expected = _carried(d.capacity, inst.variation(d.tau, a.city, d.city))
                if a.capacity != expected:
                    issues.append(
                        Violation(
                            "CAPACITY_TRANSITION",
                            f"vehicle {i} leg {d.city}->{a.city} at {d.tau}: capacity "
                            f"{d.capacity}->{a.capacity}, expected {expected}",
                            True,
                        )
                    )
        if not two_state:
            continue
        for d2 in deps:
            if d2.city == d.city or d2.tau <= d.tau:
                continue
            if d2.tau - d.tau <= inst.duration(d.tau, d2.city, d.city):
                issues.append(
                    Violation(
                        "STATE_TRANSITION",
                        f"vehicle {i} departs {d2.city} at {d2.tau} while still in "
                        f"transit out of {d.city} (departed {d.tau})",
                        True,
                    )
                )
    if two_state:
        for a in arrs:
            if a.tau > last:
                continue
            hold = inst.stay(a.tau, a.city)
            for a2 in arrs:
                if a2.city == a.city or a2.tau <= a.tau:
                    continue
                if a2.tau - a.tau <= hold:
                    issues.append(
                        Violation(
                            "STATE_TRANSITION",
                            f"vehicle {i} arrives at {a2.city} at {a2.tau} while still being "
                            f"served at {a.city} (arrived {a.tau})",
                            True,
                        )
                    )
            for d in deps:
                if d.city != a.city or d.tau <= a.tau:
                    continue
                gap = d.tau - a.tau
                if gap < hold:
                    issues.append(
                        Violation(
                            "STAY_DURATION",
                            f"vehicle {i} leaves {a.city} after {gap} intervals (needs {hold})",
                            True,
                        )
                    )
                elif gap == hold and d.capacity != a.capacity:
                    issues.append(
                        Violation(
                            "CAPACITY_TRANSITION",
                            f"vehicle {i} stay at {a.city} changes capacity "
                            f"{a.capacity}->{d.capacity}",
                            True,
                        )
                    )

    # Soft layer: timeline shapes the energy merely discourages.  Legs
    # and stays longer than nominal carry no penalty pair; they are
    # acceptable only under window pressure, and their capacity handover,
    # while physically required, is not energy-priced.
    for prev, nxt in zip(events, events[1:]):
        if two_state and prev.state == nxt.state:
            if prev.city != nxt.city:  # the in-window cases were flagged above
                issues.append(
                    Violation(
                        "STATE_TRANSITION",
                        f"vehicle {i}: consecutive {prev.state} events at intervals "
                        f"{prev.tau}, {nxt.tau}",
                        False,
                    )
                )
        elif not two_state or prev.state == DEPARTURE:
            if prev.city == nxt.city:
                if two_state:  # a single-state repeat is a REVISIT
                    issues.append(
                        Violation(
                            "STATE_TRANSITION",
                            f"vehicle {i} departs and re-arrives at city {prev.city} without traveling",
                            False,
                        )
                    )
                continue
            if prev.tau > last:
                continue
            nominal = inst.duration(prev.tau, nxt.city, prev.city)
            gap = nxt.tau - prev.tau
            if gap <= nominal:
                continue
            if mode == MODE_STRICT or not _window_blocks(inst, i, prev.tau + nominal, nxt.city):
                issues.append(
                    Violation(
                        "LATE_ARRIVAL",
                        f"vehicle {i} takes {gap} intervals from {prev.city} to {nxt.city} "
                        f"(nominal {nominal}, departing {prev.tau})",
                        False,
                    )
                )
            expected = _carried(prev.capacity, inst.variation(prev.tau, nxt.city, prev.city))
            if nxt.capacity != expected:
                issues.append(
                    Violation(
                        "CAPACITY_TRANSITION",
                        f"vehicle {i} overtime leg {prev.city}->{nxt.city}: capacity "
                        f"{prev.capacity}->{nxt.capacity}, expected {expected}",
                        False,
                    )
                )
        elif prev.city != nxt.city:
            issues.append(
                Violation(
                    "STATE_TRANSITION",
                    f"vehicle {i} arrives at {prev.city} but departs from {nxt.city}",
                    False,
                )
            )
        elif prev.tau <= last:
            hold = inst.stay(prev.tau, prev.city)
            gap = nxt.tau - prev.tau
            if gap <= hold:
                continue
            if mode == MODE_STRICT or not _window_blocks(inst, i, prev.tau + hold, prev.city):
                issues.append(
                    Violation(
                        "LATE_DEPARTURE",
                        f"vehicle {i} overstays at {prev.city}: {gap} intervals (nominal {hold})",
                        False,
                    )
                )
            if nxt.capacity != prev.capacity:
                issues.append(
                    Violation(
                        "CAPACITY_TRANSITION",
                        f"vehicle {i} overtime stay at {prev.city} changes capacity",
                        False,
                    )
                )
    return issues


def _carried(capacity: tuple[int, ...], variation: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(c + d for c, d in zip(capacity, variation))


def _fleet_checks(plan: RoutePlan, inst: Instance) -> list[Violation]:
    issues: list[Violation] = []
    depots = inst.depot_cities
    by_city: dict[int, list[tuple[int, int]]] = {}
    for i, evts in plan.events.items():
        for e in evts:
            by_city.setdefault(e.city, []).append((i, e.tau))
    for city, hits in sorted(by_city.items()):
        vehicles = {i for i, _ in hits}
        if len(vehicles) < 2:
            continue
        for x in range(len(hits)):
            for y in range(x + 1, len(hits)):
                (vi, ti), (vj, tj) = hits[x], hits[y]
                if vi == vj:
                    continue
                if ti == tj and city in depots:
                    continue
                issues.append(
                    Violation(
                        "SHARED_CITY_ACROSS_VEHICLES",
                        f"city {city} hosts vehicle {vi} (interval {ti}) and vehicle {vj} (interval {tj})",
                        True,
                    )
                )
    visited = set()
    for i, evts in plan.events.items():
        for e in evts:
            if inst.stateful and e.state != ARRIVAL:
                continue
            visited.add(e.city)
    for city in inst.customer_cities:
        if city not in visited:
            issues.append(Violation("UNVISITED_CITY", f"customer city {city} is never visited", False))
    return issues


# ---------------------------------------------------------------------------
# Costs and statistics
# ---------------------------------------------------------------------------


class InfeasiblePlanError(ValueError):
    def __init__(self, report: FeasibilityReport):
        self.report = report
        super().__init__(f"plan is infeasible: {[v.kind for v in report.violations]}")


def route_cost(plan: RoutePlan, inst: Instance, check: bool = True, mode: str = MODE_WINDOW_TOLERANT) -> float:
    """Total travel cost, priced at each leg's departure interval.

    Stays contribute nothing; an infeasible plan is rejected unless
    ``check`` is disabled by a caller that already vetted it.
    """
    if check:
        report = check_feasibility(plan, inst, mode=mode)
        if not report.feasible:
            raise InfeasiblePlanError(report)
    total = 0.0
    for _, depart_tau, from_city, _, to_city in plan.travel_legs():
        total += inst.cost(depart_tau, to_city, from_city)
    return total


@dataclass(frozen=True)
class SolveStats:
    total_samples: int
    feasible_count: int
    feasible_rate: float
    best_energy: float | None
    best_feasible_cost: float | None
    energy_histogram: tuple[tuple[float, int], ...]
    rows: tuple[tuple[float, bool, float | None, int], ...] = ()

    def to_document(self) -> dict:
        return {
            "total_samples": self.total_samples,
            "feasible_count": self.feasible_count,
            "feasible_rate": self.feasible_rate,
            "best_energy": self.best_energy,
            "best_feasible_cost": self.best_feasible_cost,
            "energy_histogram": [[e, c] for e, c in self.energy_histogram],
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["energy", "feasible", "cost", "multiplicity"])
        for energy, feasible, cost, multiplicity in self.rows:
            writer.writerow([repr(energy), int(feasible), "" if cost is None else repr(cost), multiplicity])
        return buf.getvalue()


def evaluate_bits(
    bits: Sequence[int],
    catalogue: VariableCatalogue,
    inst: Instance,
    mode: str = MODE_WINDOW_TOLERANT,
) -> tuple[RoutePlan | None, FeasibilityReport]:
    """Decode and check in one step; decode clashes become the report."""
    try:
        plan = decode(bits, catalogue)
    except DecodeError as exc:
        return None, FeasibilityReport(violations=exc.violations)
    return plan, check_feasibility(plan, inst, mode=mode)


def stats(
    samples: SampleSet,
    catalogue: VariableCatalogue,
    inst: Instance,
    mode: str = MODE_WINDOW_TOLERANT,
) -> SolveStats:
    """Decode and grade every record, weighting by multiplicity."""
    total = 0
    feasible = 0
    best_energy: float | None = None
    best_cost: float | None = None
    histogram: dict[float, int] = {}
    rows = []
    for record in samples.records:
        total += record.multiplicity
        if best_energy is None or record.energy < best_energy:
            best_energy = record.energy
        histogram[round(record.energy, 9)] = (
            histogram.get(round(record.energy, 9), 0) + record.multiplicity
        )
        plan, report = evaluate_bits(record.bits, catalogue, inst, mode)
        ok = report.feasible
        cost = None
        if ok and plan is not None:
            feasible += record.multiplicity
            cost = route_cost(plan, inst, check=False)
            if best_cost is None or cost < best_cost:
                best_cost = cost
        rows.append((record.energy, ok, cost, record.multiplicity))
    return SolveStats(
        total_samples=total,
        feasible_count=feasible,
        feasible_rate=(feasible / total) if total else 0.0,
        best_energy=best_energy,
        best_feasible_cost=best_cost,
        energy_histogram=tuple(sorted(histogram.items())),
        rows=tuple(rows),
    )


def read_plan(path, index: int = 0) -> RoutePlan:
    """Read a plan document; an optimal-plans file selects by index."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = _object(json.load(fh), "plan document")
    if "plans" not in doc:
        return RoutePlan.from_document(doc)
    plans = _list(doc["plans"], "plans")
    if not 0 <= index < len(plans):
        raise ValueError(f"plan index {index} is outside the file's {len(plans)} plans")
    return RoutePlan.from_document(plans[index])
