"""Brute-force route enumeration, independent of the QUBO encoding.

Each distinct vehicle signature (start and end city, capacity box,
start load and the vehicle's own forbidden slots) has its timelines
generated once, city by city under the instance's durations, windows
and capacity bounds, against the full customer set.  The generator
offers a late leg or stay only where a window or the horizon blocks the
nominal slot, and ends a two-state tour once it is back at its start,
since the per-vehicle checker rejects every extension past either; that
checker still vets each timeline, and one it rejects is dropped.  The
search then joins one timeline per vehicle, in vehicle id order, by
branch and bound: each vehicle tries its timelines cheapest first, skips
those that claim a customer an earlier vehicle took, and stops once the
partial cost plus the cheapest timeline of every later vehicle exceeds
the best plan so far by more than ``_TIE_TOL``.

The optimum is the cheapest feasible plan's cost, and the optimal plans
are every feasible plan within ``_TIE_TOL`` of it, the rule
:func:`~tsvrp.samplers.exhaustive_solve` applies to energies.

Vehicles that share a timeline list are interchangeable, adjacent in id
order or not, so the join meets each plan once up to their relabelling:
within such a group each vehicle takes a timeline at or after the
previous member's position in the sorted list (at, too, since two
vehicles may both take a timeline that claims no customer).  After the
join, each canonical plan within ``_TIE_TOL`` of the cheapest is
expanded into every distinct relabelling.  Every complete plan is vetted
by the same checks used for decoded samples, so oracle and checker can
never drift apart: the per-vehicle checks vetted each timeline of the
table, and the fleet checks run on each plan.

The node budget counts one node per timeline extension step, one per
join node (a timeline placed into a partial plan) and one per expanded
relabelling.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

from .decoder import (
    MODE_STRICT,
    MODE_WINDOW_TOLERANT,
    MODES,
    Event,
    RoutePlan,
    _fleet_checks,
    _vehicle_checks,
    _window_blocks,
    route_cost,
)
from .instance import Instance, Vehicle
from .qubo import ARRIVAL, DEPARTURE, PLAIN

_TIE_TOL = 1e-9

#: Search nodes (timeline extension steps plus join nodes) a route search
#: may take before it refuses.
DEFAULT_MAX_NODES = 5_000_000


class SearchCapExceeded(RuntimeError):
    """The exhaustive route search outgrew its node budget."""


@dataclass
class _Search:
    inst: Instance
    mode: str
    cap: int
    nodes: int = 0

    def tick(self) -> None:
        self.nodes += 1
        if self.nodes > self.cap:
            raise SearchCapExceeded(f"route enumeration exceeded its node cap of {self.cap}")


def _slot_choices(search: _Search, vehicle: Vehicle, city: int, nominal: int) -> list[int]:
    """Open intervals for the vehicle's next event at ``city``.

    An open nominal slot is the only choice: the checker rejects a late
    leg or stay unless a window or the horizon blocks the nominal slot
    (``_window_blocks``).  A blocked one gives the later open slots up to
    T in window-tolerant mode and nothing in strict mode.
    """
    inst = search.inst
    if not _window_blocks(inst, vehicle.id, nominal, city):
        return [nominal]
    if search.mode == MODE_STRICT:
        return []
    later = range(nominal + 1, inst.horizon + 1)
    return [tau for tau in later if not inst.windows.forbids(vehicle.id, tau, city)]


def _timelines(search: _Search, vehicle: Vehicle, bit: dict[int, int]):
    """Yield (events, claimed, cost) for one vehicle, ``claimed`` a mask
    over the customers' bits in ``bit``.

    Every event is one search node.  A single-state timeline chains legs
    between plain events; a two-state timeline puts a stay between each
    arrival and the next departure, and its legs run from departures.
    Only what the per-vehicle checker can admit is generated: legs and
    stays take the slots of :func:`_slot_choices`, and a two-state tour
    that closes at its start city ends there.  Extensions only append
    events, so each pruned subtree keeps the late pair or the mid-route
    return that the checker rejects.
    """
    inst = search.inst
    t = inst.horizon
    e = vehicle.end_city
    lo, hi = vehicle.capacity_lower, vehicle.capacity_upper
    stateful = inst.stateful
    arrival = ARRIVAL if stateful else PLAIN

    def extend(events: list[Event], claimed: int, cost: float):
        search.tick()
        tau, city, state, capacity = events[-1]
        if state == DEPARTURE:
            if e is None:
                yield tuple(events), claimed, cost  # driver clocks out mid-road
            elif e == vehicle.start_city and len(events) == 1:
                yield tuple(events), claimed, cost  # home vehicle that never moves
        else:
            if e is None or city == e:
                yield tuple(events), claimed, cost
            if city == e or state == ARRIVAL and city == vehicle.start_city:
                return  # the trip ends at the destination, or the tour closed
        if tau >= t:
            return
        if stateful and state == ARRIVAL:
            hold = inst.stay(tau, city)
            for dep in _slot_choices(search, vehicle, city, tau + hold):
                events.append(Event(dep, city, DEPARTURE, capacity))
                yield from extend(events, claimed, cost)
                events.pop()
            return
        targets = {a for a, b in bit.items() if not claimed & b}
        if e is not None:
            targets.add(e)
        elif stateful:
            targets.add(vehicle.start_city)  # optional tour closure
        for a in sorted(targets):
            if a == city:
                continue
            nominal = inst.duration(tau, a, city)
            cap = tuple(c + d for c, d in zip(capacity, inst.variation(tau, a, city)))
            if not all(l <= x <= h for x, l, h in zip(cap, lo, hi)):
                continue
            leg_cost = inst.cost(tau, a, city)
            for arr in _slot_choices(search, vehicle, a, tau + nominal):
                events.append(Event(arr, a, arrival, cap))
                yield from extend(events, claimed | bit.get(a, 0), cost + leg_cost)
                events.pop()

    start_state = DEPARTURE if stateful else PLAIN
    start = Event(1, vehicle.start_city, start_state, tuple(vehicle.start_capacity))
    yield from extend([start], 0, 0.0)


class _Timeline(NamedTuple):
    cost: float
    order: int  # position in generation order, the sort's tie-break
    claimed: int  # bitmask over the instance's customer cities
    events: tuple[Event, ...]


def _signature(inst: Instance, vehicle: Vehicle) -> tuple:
    """Everything :func:`_timelines` and the per-vehicle checks read of a
    vehicle; vehicles that share it share their timeline list."""
    slots = frozenset((tau, city) for i, tau, city in inst.windows.forbidden if i == vehicle.id)
    return (
        vehicle.start_city,
        vehicle.end_city,
        vehicle.capacity_lower,
        vehicle.capacity_upper,
        vehicle.start_capacity,
        slots,
    )


def _timeline_table(search: _Search) -> list[list[_Timeline]]:
    """Each vehicle's admissible timelines, cheapest first.

    Timelines are generated once per signature against the full customer
    set: a timeline never revisits a customer and customers exclude
    depots, so the timelines a vehicle has under a smaller set of open
    customers are exactly those whose claimed set lies inside it.
    """
    inst = search.inst
    bit = {city: 1 << k for k, city in enumerate(inst.customer_cities)}
    shared: dict[tuple, list[_Timeline]] = {}
    table = []
    for vehicle in inst.vehicles:
        key = _signature(inst, vehicle)
        if key not in shared:
            timelines = []
            for order, (events, claimed, cost) in enumerate(_timelines(search, vehicle, bit)):
                if _vehicle_checks(events, vehicle, inst, search.mode):
                    continue  # any plan holding this timeline is infeasible
                timelines.append(_Timeline(cost, order, claimed, events))
            timelines.sort()
            shared[key] = timelines
        table.append(shared[key])
    return table


def _distinct_permutations(items: Iterable[int]):
    """Each distinct ordering of ``items`` once, in lexicographic order."""
    p = sorted(items)
    while True:
        yield tuple(p)
        i = len(p) - 2
        while i >= 0 and p[i] >= p[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(p) - 1
        while p[j] <= p[i]:
            j -= 1
        p[i], p[j] = p[j], p[i]
        p[i + 1 :] = reversed(p[i + 1 :])


def _relabellings(picks: list[int], groups: Collection[list[int]]):
    """Every distinct reassignment of a plan's timeline positions among
    the slots of each group."""
    per_group = [list(_distinct_permutations(picks[slot] for slot in slots)) for slots in groups]
    for choice in product(*per_group):
        relabelled = list(picks)
        for slots, positions in zip(groups, choice):
            for slot, pos in zip(slots, positions):
                relabelled[slot] = pos
        yield relabelled


def enumerate_optimal_routes(
    inst: Instance,
    mode: str = MODE_WINDOW_TOLERANT,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> tuple[float | None, tuple[RoutePlan, ...]]:
    """Exhaustively search all routings; return the cheapest feasible plans.

    Returns the cheapest feasible plan's cost and every feasible plan,
    each relabelling of identical vehicles included, whose cost lies
    within ``_TIE_TOL`` of it.  Vehicles take one precomputed timeline
    each, in id order, by branch and bound over disjoint customer sets,
    each plan once up to the relabelling of vehicles that share a
    timeline list; every complete candidate and every relabelling of a
    near-optimal one is validated with the checks behind
    :func:`check_feasibility` before it counts.  Returns ``(None, ())``
    when nothing feasible exists; raises :class:`SearchCapExceeded` past
    ``max_nodes`` search nodes, counting every timeline extension step,
    every join node and every expanded relabelling.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    search = _Search(inst=inst, mode=mode, cap=max_nodes)
    table = _timeline_table(search)
    last = len(table) - 1
    # floor[k]: the cheapest cost vehicles k.. can add, a bound for the cut.
    floor = [0.0] * (len(table) + 1)
    for slot in range(last, -1, -1):
        if not table[slot]:
            return None, ()
        floor[slot] = floor[slot + 1] + table[slot][0].cost
    # The slots that share one timeline list, and each slot's previous
    # member in its group (None for the first).
    groups: dict[int, list[int]] = {}
    previous: list[int | None] = []
    for slot, timelines in enumerate(table):
        members = groups.setdefault(id(timelines), [])
        previous.append(members[-1] if members else None)
        members.append(slot)

    def plan_of(picks: list[int]) -> RoutePlan:
        return RoutePlan(events={slot + 1: table[slot][pos].events for slot, pos in enumerate(picks)})

    best: float | None = None
    canonical: list[tuple[list[int], float]] = []
    picks: list[int] = []

    def join(slot: int, remaining: int, acc_cost: float) -> None:
        nonlocal best
        rest = floor[slot + 1]
        timelines = table[slot]
        first = 0 if previous[slot] is None else picks[previous[slot]]
        for pos in range(first, len(timelines)):
            timeline = timelines[pos]
            if best is not None and acc_cost + timeline.cost + rest > best + _TIE_TOL:
                break  # sorted by cost: every later timeline is cut too
            if timeline.claimed & ~remaining:
                continue
            if slot == last and timeline.claimed != remaining:
                continue  # a customer would stay unvisited
            search.tick()
            picks.append(pos)
            if slot < last:
                join(slot + 1, remaining & ~timeline.claimed, acc_cost + timeline.cost)
            else:
                plan = plan_of(picks)
                if not _fleet_checks(plan, inst):  # the table vetted each timeline
                    cost = route_cost(plan, inst, check=False)
                    if best is None or cost < best:
                        best = cost
                    canonical.append((list(picks), cost))
            picks.pop()

    join(0, (1 << len(inst.customer_cities)) - 1, 0.0)
    if best is None:
        return None, ()

    # Relabelling may reorder the float sum of a plan's legs, so each
    # expanded plan is priced on its own.
    found: list[tuple[float, RoutePlan]] = []
    for positions, cost in canonical:
        if cost > best + _TIE_TOL:
            continue
        for relabelled in _relabellings(positions, groups.values()):
            search.tick()
            plan = plan_of(relabelled)
            if not _fleet_checks(plan, inst):
                found.append((route_cost(plan, inst, check=False), plan))
    best = min(cost for cost, _ in found)
    plans = sorted((plan for cost, plan in found if cost <= best + _TIE_TOL), key=lambda p: p.canonical())
    return best, tuple(plans)
