"""The route oracle's branch-and-bound join against the search it replaced.

``_reference_search`` is the earlier per-partial-assignment search: for
every assignment of vehicles 1..k it regenerates the timelines of
vehicle k+1 under the customers still open, and folds every feasible
complete plan into the optimum set in depth-first order.  The join must
return the same optimal cost and the same plans.
"""

from __future__ import annotations

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
from tsvrp.decoder import MODE_STRICT, MODE_WINDOW_TOLERANT, RoutePlan
from tsvrp.demo import delivery_demo_instance
from tsvrp.oracle import (
    _TIE_TOL,
    DEFAULT_MAX_NODES,
    SearchCapExceeded,
    _Search,
    _timeline_table,
    _timelines,
)

from cases import load_cases
from strategies import random_instance

MODES = (MODE_STRICT, MODE_WINDOW_TOLERANT)


def _reference_search(inst, mode):
    search = _Search(inst=inst, mode=mode, budget=DEFAULT_MAX_NODES)
    best_cost = None
    best_plans: set[RoutePlan] = set()

    def assign(vehicle_slot, remaining, acc, acc_cost):
        nonlocal best_cost
        if best_cost is not None and acc_cost > best_cost + _TIE_TOL:
            return
        if vehicle_slot == len(inst.vehicles):
            if remaining:
                return
            plan = RoutePlan(events={i + 1: tuple(evts) for i, evts in enumerate(acc)})
            if not check_feasibility(plan, inst, mode=mode).feasible:
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

    assign(0, frozenset(inst.customer_cities), [], 0.0)
    return best_cost, tuple(sorted(best_plans, key=lambda p: p.canonical()))


def _same_result(inst, mode):
    best, plans = enumerate_optimal_routes(inst, mode=mode)
    ref_best, ref_plans = _reference_search(inst, mode)
    assert best == ref_best
    assert [p.canonical() for p in plans] == [p.canonical() for p in ref_plans]


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
    # first; 1->3->2 costs 0.3 + 0.0 and sorts first by cost.  Both are
    # optimal within the tie tolerance, and the reported optimum is the
    # cost of the plan a depth-first search meets first.
    costs = np.full((2, 3, 3), 5.0)
    costs[0, 1, 0], costs[1, 2, 1] = 0.1, 0.2
    costs[0, 2, 0], costs[1, 1, 2] = 0.3, 0.0
    inst = _plain_instance(costs, (Vehicle(id=1, start_city=1),))
    best, plans = enumerate_optimal_routes(inst)
    assert best == 0.1 + 0.2
    assert len(plans) == 2
    _same_result(inst, MODE_WINDOW_TOLERANT)


def test_vehicles_differing_only_in_windows_keep_their_own_timelines():
    # Vehicle 1 may not be at the customer in interval 2; vehicle 2 may.
    costs = np.full((1, 2, 2), 3.0)
    vehicles = (Vehicle(id=1, start_city=1), Vehicle(id=2, start_city=1))
    inst = _plain_instance(costs, vehicles, windows={(1, 2, 2)})
    best, plans = enumerate_optimal_routes(inst)
    assert best == 3.0
    assert [evts[-1].city for evts in plans[0].events.values()] == [1, 2]
    _same_result(inst, MODE_WINDOW_TOLERANT)


def test_join_nodes_count_against_the_cap():
    inst = delivery_demo_instance()
    search = _Search(inst=inst, mode=MODE_WINDOW_TOLERANT, budget=DEFAULT_MAX_NODES)
    _timeline_table(search)
    enumeration_steps = DEFAULT_MAX_NODES - search.budget
    # The demo's three identical vehicles share one timeline list, and the
    # join needs thousands of nodes on top of generating it.
    with pytest.raises(SearchCapExceeded):
        enumerate_optimal_routes(inst, max_nodes=enumeration_steps + 100)
    best, plans = enumerate_optimal_routes(inst)
    assert best == pytest.approx(24.5)
    assert len(plans) == 18
