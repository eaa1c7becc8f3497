"""The route oracle against the generator and the search it replaced.

``_reference_timelines`` is the generator before its two prunes: it
offers every slot from the nominal one to T in window-tolerant mode, and
its two-state tours go on past an arrival back at the start.  Filtered
by the per-vehicle checker, it must give exactly the oracle's timeline
table, in the same relative order.  ``_reference_search`` is a brute
force over that generator: for every assignment of vehicles 1..k it
regenerates the timelines of vehicle k+1 under the customers still open,
collects every feasible complete plan, and keeps the cheapest cost and
every plan within ``_TIE_TOL`` of it.  The join must return the same
optimal cost and the same plans, also on fleets of identical vehicles,
whose relabellings it expands after the search, and where plan costs
chain less than ``_TIE_TOL`` apart.  Hand-built instances pin each prune
in both modes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from tsvrp import (
    CostSeries,
    DurationSeries,
    Instance,
    TimeGrid,
    Vehicle,
    WindowSet,
    check_feasibility,
    enumerate_optimal_routes,
    route_cost,
)
from tsvrp.decoder import MODE_STRICT, MODE_WINDOW_TOLERANT, Event, RoutePlan, _vehicle_checks
from tsvrp.demo import delivery_demo_instance
from tsvrp.oracle import (
    _TIE_TOL,
    DEFAULT_MAX_NODES,
    SearchCapExceeded,
    _Search,
    _slot_choices,
    _timeline_table,
    _timelines,
)
from tsvrp.qubo import ARRIVAL, DEPARTURE, PLAIN

from cases import _costs, _durations, _instance, _stays, load_cases
from strategies import random_instance

MODES = (MODE_STRICT, MODE_WINDOW_TOLERANT)


def _reference_timelines(inst, mode, vehicle, remaining):
    """Yield (events, claimed_customers, cost) as the unpruned generator did."""
    t = inst.horizon
    e = vehicle.end_city
    lo, hi = vehicle.capacity_lower, vehicle.capacity_upper
    stateful = inst.stateful
    arrival = ARRIVAL if stateful else PLAIN

    def slots(nominal):
        if mode == MODE_STRICT:
            return range(nominal, nominal + 1) if nominal <= t else range(0)
        return range(nominal, t + 1)

    def extend(events, claimed, cost):
        tau, city, state, capacity = events[-1]
        if state == DEPARTURE:
            if e is None or e == vehicle.start_city and len(events) == 1:
                yield list(events), claimed, cost
        else:
            if e is None or city == e:
                yield list(events), claimed, cost
            if city == e:
                return
        if tau >= t:
            return
        if stateful and state == ARRIVAL:
            for dep in slots(tau + inst.stay(tau, city)):
                if not inst.windows.forbids(vehicle.id, dep, city):
                    events.append(Event(dep, city, DEPARTURE, capacity))
                    yield from extend(events, claimed, cost)
                    events.pop()
            return
        targets = set(remaining - claimed)
        if e is not None:
            targets.add(e)
        elif stateful:
            targets.add(vehicle.start_city)
        for a in sorted(targets - {city}):
            cap = tuple(c + d for c, d in zip(capacity, inst.variation(tau, a, city)))
            if not all(l <= x <= h for x, l, h in zip(cap, lo, hi)):
                continue
            for arr in slots(tau + inst.duration(tau, a, city)):
                if not inst.windows.forbids(vehicle.id, arr, a):
                    events.append(Event(arr, a, arrival, cap))
                    newly = claimed | {a} if a in remaining else claimed
                    yield from extend(events, newly, cost + inst.cost(tau, a, city))
                    events.pop()

    start = Event(1, vehicle.start_city, DEPARTURE if stateful else PLAIN, tuple(vehicle.start_capacity))
    yield from extend([start], frozenset(), 0.0)


def _reference_search(inst, mode):
    feasible: list[tuple[float, RoutePlan]] = []

    def assign(vehicle_slot, remaining, acc):
        if vehicle_slot == len(inst.vehicles):
            plan = RoutePlan(events={i + 1: tuple(evts) for i, evts in enumerate(acc)})
            if not remaining and check_feasibility(plan, inst, mode=mode).feasible:
                feasible.append((route_cost(plan, inst, check=False), plan))
            return
        vehicle = inst.vehicles[vehicle_slot]
        for events, claimed, _ in _reference_timelines(inst, mode, vehicle, remaining):
            acc.append(events)
            assign(vehicle_slot + 1, remaining - claimed, acc)
            acc.pop()

    assign(0, frozenset(inst.customer_cities), [])
    if not feasible:
        return None, ()
    best = min(cost for cost, _ in feasible)
    plans = sorted((plan for cost, plan in feasible if cost <= best + _TIE_TOL), key=lambda p: p.canonical())
    return best, tuple(plans)


def _same_result(inst, mode):
    best, plans = enumerate_optimal_routes(inst, mode=mode)
    ref_best, ref_plans = _reference_search(inst, mode)
    assert best == ref_best
    assert [p.canonical() for p in plans] == [p.canonical() for p in ref_plans]
    return plans


def _same_table(inst, mode):
    """The oracle's table, in generation order, is the checker-filtered reference."""
    table = _timeline_table(_Search(inst=inst, mode=mode, cap=DEFAULT_MAX_NODES))
    bit = {city: 1 << k for k, city in enumerate(inst.customer_cities)}
    for vehicle, timelines in zip(inst.vehicles, table):
        reference = [
            (cost, sum(bit[city] for city in claimed), tuple(events))
            for events, claimed, cost in _reference_timelines(inst, mode, vehicle, frozenset(bit))
            if not _vehicle_checks(tuple(events), vehicle, inst, mode)
        ]
        generated = [(t.cost, t.claimed, t.events) for t in sorted(timelines, key=lambda t: t.order)]
        assert generated == reference


@pytest.mark.parametrize("mode", MODES)
def test_timeline_table_matches_filtered_reference(mode):
    for case in load_cases():
        _same_table(case.instance, mode)
    for seed in range(100):
        _same_table(random_instance(seed, max_cities=6, max_intervals=6, max_vehicles=2), mode)
    _same_table(delivery_demo_instance(), mode)


@pytest.mark.parametrize("mode", MODES)
def test_join_matches_reference_on_case_suite(mode):
    for case in load_cases():
        _same_result(case.instance, mode)


@pytest.mark.parametrize("mode", MODES)
def test_join_matches_reference_on_random_instances(mode):
    for seed in range(100):
        inst = random_instance(seed, max_cities=6, max_intervals=6, max_vehicles=2)
        _same_result(inst, mode)


def _plain_instance(costs, vehicles, windows=()):
    t, n = costs.shape[0] + 1, costs.shape[1]
    return Instance(
        grid=TimeGrid(t, 10.0),
        city_labels=tuple(f"c{a}" for a in range(1, n + 1)),
        vehicles=vehicles,
        costs=CostSeries(costs),
        durations=DurationSeries(np.ones(costs.shape, dtype=int)),
        variations=None,
        windows=WindowSet(frozenset(windows)),
        model_kind="TS_VRP",
        capacity_dims=0,
    )


def test_near_tie_resolves_in_generation_order():
    # 1->2->3 costs 0.1 + 0.2 = 0.30000000000000004 and is generated
    # first; 1->3->2 costs 0.3 + 0.0.  Both are optimal within the tie
    # tolerance, and the reported optimum is the cheaper cost whatever
    # the generation order.
    costs = np.full((2, 3, 3), 5.0)
    costs[0, 1, 0], costs[1, 2, 1] = 0.1, 0.2
    costs[0, 2, 0], costs[1, 1, 2] = 0.3, 0.0
    inst = _plain_instance(costs, (Vehicle(id=1, start_city=1),))
    best, plans = enumerate_optimal_routes(inst)
    assert best == 0.3
    assert len(plans) == 2
    _same_result(inst, MODE_WINDOW_TOLERANT)


@pytest.mark.parametrize("mode", MODES)
def test_plans_within_the_tolerance_of_the_cheapest_are_optimal(mode):
    # Three routes chain 0.9e-9 apart: 1-2-4-3 costs 3, 1-2-3-4 costs
    # 3 + 0.9e-9 and is generated first, 1-3-2-4 costs 3 + 1.8e-9.  Only
    # the first two lie within the tolerance of the cheapest.
    costs = np.full((3, 4, 4), 10.0)
    costs[0, 1, 0] = costs[0, 2, 0] = 1.0
    costs[1, 2, 1] = costs[1, 3, 1] = costs[1, 1, 2] = 1.0
    costs[2, 3, 2], costs[2, 2, 3], costs[2, 3, 1] = 1.0 + 0.9e-9, 1.0, 1.0 + 1.8e-9
    inst = _plain_instance(costs, (Vehicle(id=1, start_city=1),))
    best, plans = enumerate_optimal_routes(inst, mode=mode)
    assert best == 3.0
    assert [[e.city for e in plan.events[1]] for plan in plans] == [[1, 2, 3, 4], [1, 2, 4, 3]]
    _same_result(inst, mode)


def test_vehicles_differing_only_in_windows_keep_their_own_timelines():
    # Vehicle 1 may not be at the customer in interval 2; vehicle 2 may.
    costs = np.full((1, 2, 2), 3.0)
    vehicles = (Vehicle(id=1, start_city=1), Vehicle(id=2, start_city=1))
    inst = _plain_instance(costs, vehicles, windows={(1, 2, 2)})
    best, plans = enumerate_optimal_routes(inst)
    assert best == 3.0
    assert [evts[-1].city for evts in plans[0].events.values()] == [1, 2]
    _same_result(inst, MODE_WINDOW_TOLERANT)


def _identical_fleet(inst, k):
    """``inst`` with its first vehicle, forbidden slots included, as k identical vehicles."""
    first = inst.vehicles[0]
    slots = {(tau, city) for i, tau, city in inst.windows.forbidden if i == first.id}
    vehicles = tuple(dataclasses.replace(first, id=i) for i in range(1, k + 1))
    windows = WindowSet(frozenset((i, tau, city) for i in range(1, k + 1) for tau, city in slots))
    return dataclasses.replace(inst, vehicles=vehicles, windows=windows)


@pytest.mark.parametrize("k", (3, 4, 5))
@pytest.mark.parametrize("mode", MODES)
def test_join_matches_reference_on_identical_fleets(mode, k):
    relabelled = 0
    for seed in range(40):
        inst = _identical_fleet(random_instance(seed, max_cities=4, max_intervals=5, max_vehicles=1), k)
        relabelled += len(_same_result(inst, mode)) > 1
    assert relabelled  # some optima come in several relabellings


@pytest.mark.parametrize("mode", MODES)
def test_join_matches_reference_on_a_non_adjacent_group(mode):
    # Vehicles 1 and 3 are identical; vehicle 2 may never be at customer
    # 2, so it keeps a list of its own between them.
    costs = np.full((3, 4, 4), 4.0)
    costs[0, 1:, 0] = 1.0, 2.0, 3.0
    vehicles = tuple(Vehicle(id=i, start_city=1) for i in (1, 2, 3))
    inst = _plain_instance(costs, vehicles, windows={(2, tau, 2) for tau in (2, 3, 4)})
    table = _timeline_table(_Search(inst=inst, mode=mode, cap=DEFAULT_MAX_NODES))
    assert table[0] is table[2] and table[1] is not table[0]
    best, plans = enumerate_optimal_routes(inst, mode=mode)
    assert best == 6.0
    assert len(plans) == 4  # customer 2 goes to vehicle 1 or 3, the rest either way
    _same_result(inst, mode)


@pytest.mark.parametrize("mode", MODES)
def test_identical_vehicles_may_share_a_timeline_that_claims_no_customer(mode):
    # One customer and three identical vehicles: two of them stay at the depot.
    costs = np.full((1, 2, 2), 2.0)
    vehicles = tuple(Vehicle(id=i, start_city=1) for i in (1, 2, 3))
    inst = _plain_instance(costs, vehicles)
    best, plans = enumerate_optimal_routes(inst, mode=mode)
    assert best == 2.0
    assert len(plans) == 3
    for plan in plans:
        assert sorted(len(evts) for evts in plan.events.values()) == [1, 1, 2]
    _same_result(inst, mode)


@pytest.mark.parametrize("mode", MODES)
def test_a_dozen_identical_vehicles_expand_only_distinct_relabellings(mode):
    # One customer and twelve identical vehicles: eleven stay at the depot,
    # so each optimum has 12 distinct relabellings, not 12! orderings.
    costs = np.full((1, 2, 2), 2.0)
    vehicles = tuple(Vehicle(id=i, start_city=1) for i in range(1, 13))
    inst = _plain_instance(costs, vehicles)
    best, plans = enumerate_optimal_routes(inst, mode=mode, max_nodes=100)
    assert best == 2.0
    assert len(plans) == 12
    _same_result(inst, mode)


def test_an_unknown_mode_is_refused():
    with pytest.raises(ValueError, match="unknown mode 'lenient'"):
        enumerate_optimal_routes(delivery_demo_instance(), mode="lenient")


def test_join_nodes_count_against_the_cap():
    inst = delivery_demo_instance()
    search = _Search(inst=inst, mode=MODE_WINDOW_TOLERANT, cap=DEFAULT_MAX_NODES)
    _timeline_table(search)
    # The demo's three identical vehicles share one timeline list.  The join
    # meets each plan once up to their relabelling, and still needs
    # thousands of nodes on top of generating the list; the 18 optima are
    # relabellings of its canonical plans, one node each.
    assert search.nodes == 322
    with pytest.raises(SearchCapExceeded, match="node cap of 3193"):
        enumerate_optimal_routes(inst, max_nodes=3_193)
    best, plans = enumerate_optimal_routes(inst, max_nodes=3_194)
    assert best == pytest.approx(24.5)
    assert len(plans) == 18


# -- the generator's prunes, on hand-built two-city instances -----------------


def _two_city(kind, t, end_city=None, durations=None, windows=()):
    return _instance(
        kind, t, 2,
        [Vehicle(id=1, start_city=1, end_city=end_city)],
        _costs(t, 2, {(2, 1): 1.0, (1, 2): 1.0}),
        _durations(t, 2, durations),
        stays=_stays(t, 2) if kind == "TS_SVRP" else None,
        windows=windows,
    )


def _generated(inst, mode):
    search = _Search(inst=inst, mode=mode, cap=DEFAULT_MAX_NODES)
    vehicle = inst.vehicles[0]
    bit = {city: 1 << k for k, city in enumerate(inst.customer_cities)}
    return [events for events, _, _ in _timelines(search, vehicle, bit)]


def _pruned(inst, mode):
    """Reference timelines the generator no longer yields, with their rejections."""
    kept = set(_generated(inst, mode))
    vehicle = inst.vehicles[0]
    rejected = {}
    for events, _, _ in _reference_timelines(inst, mode, vehicle, frozenset(inst.customer_cities)):
        events = tuple(events)
        if events not in kept:
            rejected[events] = {v.kind for v in _vehicle_checks(events, vehicle, inst, mode)}
    return rejected


def _plain(tau, city):
    return Event(tau, city, PLAIN, ())


def _dep(tau, city):
    return Event(tau, city, DEPARTURE, ())


def _arr(tau, city):
    return Event(tau, city, ARRIVAL, ())


@pytest.mark.parametrize("mode", MODES)
def test_an_open_nominal_slot_is_the_only_choice(mode):
    leg = _two_city("TS_VRP", 4)
    assert _generated(leg, mode) == [(_plain(1, 1),), (_plain(1, 1), _plain(2, 2))]
    stay = _two_city("TS_SVRP", 5, end_city=1)
    assert _generated(stay, mode) == [(_dep(1, 1),), (_dep(1, 1), _arr(2, 2), _dep(3, 2), _arr(4, 1))]
    late = {**_pruned(leg, mode), **_pruned(stay, mode)}
    if mode == MODE_STRICT:
        assert late == {}
    else:
        # The leg's arrivals at 3 and 4, and the three tours that reach
        # home at 5 instead of 4: each carries a late leg or a late stay.
        assert len(late) == 5
        assert all(kinds & {"LATE_ARRIVAL", "LATE_DEPARTURE"} for kinds in late.values())


@pytest.mark.parametrize("mode", MODES)
def test_a_forbidden_nominal_slot_opens_the_later_ones_when_tolerant(mode):
    tolerant = mode == MODE_WINDOW_TOLERANT
    # Interval 3 is forbidden too, so the later open slots are 4 and 5.
    leg = _two_city("TS_VRP", 5, windows={(1, 2, 2), (1, 3, 2)})
    later_arrivals = [(_plain(1, 1), _plain(tau, 2)) for tau in (4, 5)] if tolerant else []
    assert _generated(leg, mode) == [(_plain(1, 1),), *later_arrivals]
    stay = _two_city("TS_SVRP", 5, end_city=1, windows={(1, 3, 2)})
    later_stays = [(_dep(1, 1), _arr(2, 2), _dep(4, 2), _arr(5, 1))] if tolerant else []
    assert _generated(stay, mode) == [(_dep(1, 1),), *later_stays]
    assert _pruned(leg, mode) == _pruned(stay, mode) == {}


@pytest.mark.parametrize("mode", MODES)
def test_a_nominal_slot_past_the_horizon_ends_the_timeline(mode):
    # The leg 1->2 takes 4 intervals from interval 1, so it would arrive
    # at 5 > T; every later slot lies past the horizon too.
    inst = _two_city("TS_VRP", 4, durations={(2, 1): 4})
    assert _slot_choices(_Search(inst=inst, mode=mode, cap=1), inst.vehicles[0], 2, 5) == []
    assert _generated(inst, mode) == [(_plain(1, 1),)]
    assert _pruned(inst, mode) == {}


@pytest.mark.parametrize("mode", MODES)
def test_a_closing_tour_ends_at_the_start(mode):
    inst = _two_city("TS_SVRP", 7)
    tour = (_dep(1, 1), _arr(2, 2), _dep(3, 2), _arr(4, 1))
    generated = _generated(inst, mode)
    assert generated == [tour[:k] for k in range(1, 5)]
    pruned = _pruned(inst, mode)
    # Past the closing arrival the reference departs the start again, at
    # any later slot when tolerant; each such tour revisits its start.
    departures = (5, 6, 7) if mode == MODE_WINDOW_TOLERANT else (5,)
    past_closure = [events for events in pruned if events[:4] == tour]
    assert past_closure == [(*tour, _dep(tau, 1)) for tau in departures]
    assert all("REVISIT" in pruned[events] for events in past_closure)
