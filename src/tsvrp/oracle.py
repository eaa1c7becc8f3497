"""Brute-force route enumeration, independent of the QUBO encoding.

Candidate timelines are generated city by city under the instance's
durations, windows and capacity bounds, then every complete assignment
is vetted by the same feasibility checker used for decoded samples, so
oracle and checker can never drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

from .decoder import (
    MODE_STRICT,
    MODE_WINDOW_TOLERANT,
    Event,
    RoutePlan,
    check_feasibility,
    route_cost,
)
from .instance import Instance, Vehicle
from .qubo import ARRIVAL, DEPARTURE, PLAIN

_TIE_TOL = 1e-9

#: Extension steps a route search may take before it refuses; enough for
#: the reference delivery scenario.
DEFAULT_MAX_NODES = 5_000_000


class SearchCapExceeded(RuntimeError):
    """The exhaustive route search outgrew its node budget."""


@dataclass
class _Search:
    inst: Instance
    mode: str
    budget: int

    def tick(self) -> None:
        self.budget -= 1
        if self.budget < 0:
            raise SearchCapExceeded("route enumeration exceeded its node cap")


def _slot_choices(search: _Search, nominal: int, latest: int) -> range:
    """Candidate intervals for the next event: exactly the nominal slot in
    strict mode, the nominal slot or any later one otherwise."""
    if search.mode == MODE_STRICT and nominal <= latest:
        return range(nominal, nominal + 1)
    if search.mode == MODE_STRICT:
        return range(0)
    return range(nominal, latest + 1)


def _timelines(search: _Search, vehicle: Vehicle, remaining: frozenset[int]):
    """Yield (events, claimed_customers, cost) for one vehicle.

    Every event is one search node.  A single-state timeline chains legs
    between plain events; a two-state timeline puts a stay between each
    arrival and the next departure, and its legs run from departures.
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
            if city == e:
                return  # the trip ends at the destination
        if tau >= t:
            return
        if stateful and state == ARRIVAL:
            hold = inst.stay(tau, city)
            for dep in _slot_choices(search, tau + hold, t):
                if inst.windows.forbids(vehicle.id, dep, city):
                    continue
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
            for arr in _slot_choices(search, tau + nominal, t):
                if inst.windows.forbids(vehicle.id, arr, a):
                    continue
                events.append(Event(arr, a, arrival, cap))
                newly = claimed | {a} if a in remaining else claimed
                yield from extend(events, newly, cost + leg_cost)
                events.pop()

    start_state = DEPARTURE if stateful else PLAIN
    start = Event(1, vehicle.start_city, start_state, tuple(vehicle.start_capacity))
    yield from extend([start], frozenset(), 0.0)


def enumerate_optimal_routes(
    inst: Instance,
    mode: str = MODE_WINDOW_TOLERANT,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> tuple[float | None, tuple[RoutePlan, ...]]:
    """Exhaustively search all routings; return the cheapest feasible plans.

    Vehicles claim customers depth-first in id order; every complete
    candidate is validated with :func:`check_feasibility` before it may
    enter the optimum set.  Returns ``(None, ())`` when nothing feasible
    exists; raises :class:`SearchCapExceeded` past ``max_nodes``
    extension steps.
    """
    search = _Search(inst=inst, mode=mode, budget=max_nodes)
    customers = frozenset(inst.customer_cities)

    best_cost: float | None = None
    best_plans: set[RoutePlan] = set()

    def assign(vehicle_slot: int, remaining: frozenset[int], acc: list, acc_cost: float):
        nonlocal best_cost
        if best_cost is not None and acc_cost > best_cost + _TIE_TOL:
            return
        if vehicle_slot == len(inst.vehicles):
            if remaining:
                return
            plan = RoutePlan(events={i + 1: tuple(evts) for i, evts in enumerate(acc)})
            report = check_feasibility(plan, inst, mode=mode)
            if not report.feasible:
                return
            cost = route_cost(plan, inst, check=False)
            if best_cost is None or cost < best_cost - _TIE_TOL:
                best_cost = cost
                best_plans.clear()
                best_plans.add(plan)
            elif abs(cost - best_cost) <= _TIE_TOL:
                best_plans.add(plan)
            return
        vehicle = inst.vehicles[vehicle_slot]
        for events, claimed, cost in _timelines(search, vehicle, remaining):
            acc.append(events)
            assign(vehicle_slot + 1, remaining - claimed, acc, acc_cost + cost)
            acc.pop()

    assign(0, customers, [], 0.0)
    ordered = tuple(sorted(best_plans, key=lambda p: p.canonical()))
    return best_cost, ordered
