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
the best plan so far.  Every complete plan is vetted by the same
feasibility checker used for decoded samples, so oracle and checker can
never drift apart.

The node budget counts one node per timeline extension step and one per
join node (a timeline placed into a partial plan).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .decoder import (
    MODE_STRICT,
    MODE_WINDOW_TOLERANT,
    Event,
    RoutePlan,
    _vehicle_checks,
    _window_blocks,
    check_feasibility,
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


def _timelines(search: _Search, vehicle: Vehicle, remaining: frozenset[int]):
    """Yield (events, claimed_customers, cost) for one vehicle.

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

    def extend(events: list[Event], claimed: frozenset[int], cost: float):
        search.tick()
        tau, city, state, capacity = events[-1]
        if state == DEPARTURE:
            if e is None:
                yield list(events), claimed, cost  # driver clocks out mid-road
            elif e == vehicle.start_city and len(events) == 1:
                yield list(events), claimed, cost  # home vehicle that never moves
        else:
            if e is None or city == e:
                yield list(events), claimed, cost
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
        targets = set(remaining - claimed)
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
                newly = claimed | {a} if a in remaining else claimed
                yield from extend(events, newly, cost + leg_cost)
                events.pop()

    start_state = DEPARTURE if stateful else PLAIN
    start = Event(1, vehicle.start_city, start_state, tuple(vehicle.start_capacity))
    yield from extend([start], frozenset(), 0.0)


class _Timeline(NamedTuple):
    cost: float
    order: int  # position in generation order, which fixes tie-breaking
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
    customers = inst.customer_cities
    bit = {city: 1 << k for k, city in enumerate(customers)}
    shared: dict[tuple, list[_Timeline]] = {}
    table = []
    for vehicle in inst.vehicles:
        key = _signature(inst, vehicle)
        if key not in shared:
            timelines = []
            for order, (events, claimed, cost) in enumerate(
                _timelines(search, vehicle, frozenset(customers))
            ):
                events = tuple(events)
                if _vehicle_checks(events, vehicle, inst, search.mode):
                    continue  # any plan holding this timeline is infeasible
                mask = sum(bit[city] for city in claimed)
                timelines.append(_Timeline(cost, order, mask, events))
            timelines.sort()
            shared[key] = timelines
        table.append(shared[key])
    return table


def enumerate_optimal_routes(
    inst: Instance,
    mode: str = MODE_WINDOW_TOLERANT,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> tuple[float | None, tuple[RoutePlan, ...]]:
    """Exhaustively search all routings; return the cheapest feasible plans.

    Vehicles take one precomputed timeline each, in id order, by branch
    and bound over disjoint customer sets; every complete candidate is
    validated with :func:`check_feasibility` before it may enter the
    optimum set.  Returns ``(None, ())`` when nothing feasible exists;
    raises :class:`SearchCapExceeded` past ``max_nodes`` search nodes,
    counting every timeline extension step and every join node.
    """
    search = _Search(inst=inst, mode=mode, cap=max_nodes)
    table = _timeline_table(search)
    last = len(table) - 1
    # floor[k]: the cheapest cost vehicles k.. can add, a bound for the cut.
    floor = [0.0] * (len(table) + 1)
    for slot in range(last, -1, -1):
        if not table[slot]:
            return None, ()
        floor[slot] = floor[slot + 1] + table[slot][0].cost

    best: float | None = None
    found: list[tuple[tuple[int, ...], float, RoutePlan]] = []

    def join(slot: int, remaining: int, acc: list[_Timeline], acc_cost: float) -> None:
        nonlocal best
        rest = floor[slot + 1]
        for timeline in table[slot]:
            if best is not None and acc_cost + timeline.cost + rest > best + _TIE_TOL:
                break  # sorted by cost: every later timeline is cut too
            if timeline.claimed & ~remaining:
                continue
            if slot == last and timeline.claimed != remaining:
                continue  # a customer would stay unvisited
            search.tick()
            acc.append(timeline)
            if slot < last:
                join(slot + 1, remaining & ~timeline.claimed, acc, acc_cost + timeline.cost)
            else:
                plan = RoutePlan(events={i + 1: t.events for i, t in enumerate(acc)})
                if check_feasibility(plan, inst, mode=mode).feasible:
                    cost = route_cost(plan, inst, check=False)
                    if best is None or cost < best:
                        best = cost
                    found.append((tuple(t.order for t in acc), cost, plan))
            acc.pop()

    join(0, (1 << len(inst.customer_cities)) - 1, [], 0.0)

    # Replay the candidates in the order a depth-first search over the
    # generation order meets them, so near-ties resolve the same way.
    best_cost: float | None = None
    best_plans: set[RoutePlan] = set()
    for _, cost, plan in sorted(found, key=lambda item: item[0]):
        if best_cost is None or cost < best_cost - _TIE_TOL:
            best_cost = cost
            best_plans = {plan}
        elif abs(cost - best_cost) <= _TIE_TOL:
            best_plans.add(plan)
    ordered = tuple(sorted(best_plans, key=lambda p: p.canonical()))
    return best_cost, ordered
