"""Curated small instances for exhaustive cross-checks.

Each case stays at or below 22 free variables so the full assignment
space can be enumerated, and is shaped so that the feasible optimum is
strictly separated from everything else (tight horizons, no slack for
penalty-free junk).  ``EXHAUSTIVE_CASES`` is the suite the acceptance
criteria run over.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from tsvrp import (
    CostSeries,
    DurationSeries,
    Instance,
    TimeGrid,
    VariationSeries,
    Vehicle,
    WindowSet,
    apply_priority,
)


class Case(NamedTuple):
    name: str
    instance: Instance
    lam: float


def _costs(t: int, n: int, entries: dict[tuple[int, int], float] | None = None, base: float = 0.0):
    """Interval-invariant cost matrix from {(to, frm): cost} entries."""
    arr = np.full((t - 1, n, n), base, dtype=float)
    for (a, b), value in (entries or {}).items():
        arr[:, a - 1, b - 1] = value
    np.einsum("tii->ti", arr)[:] = 0.0
    return arr


def _durations(t: int, n: int, entries: dict[tuple[int, int], int] | None = None):
    arr = np.ones((t - 1, n, n), dtype=int)
    for (a, b), value in (entries or {}).items():
        arr[:, a - 1, b - 1] = value
    return arr


def _instance(
    kind: str,
    t: int,
    n: int,
    vehicles,
    costs,
    durations,
    stays=None,
    variations=None,
    windows=(),
) -> Instance:
    return Instance(
        grid=TimeGrid(interval_count=t, unit_minutes=10.0),
        city_labels=tuple(f"city{i}" for i in range(1, n + 1)),
        vehicles=tuple(vehicles),
        costs=CostSeries(np.asarray(costs, dtype=float)),
        durations=DurationSeries(
            np.asarray(durations, dtype=int),
            None if stays is None else np.asarray(stays, dtype=int),
        ),
        variations=None if variations is None else VariationSeries(np.asarray(variations, dtype=int)),
        windows=WindowSet(frozenset(windows)),
        model_kind=kind,
        capacity_dims=0 if variations is None else np.asarray(variations).shape[3],
    )


def _delivery_variations(t: int, n: int, deltas: dict[int, int]):
    """Variation tensor whose change depends only on the arrival city."""
    arr = np.zeros((t - 1, n, n, 1), dtype=int)
    for city, delta in deltas.items():
        arr[:, city - 1, :, 0] = delta
    return arr


# ---------------------------------------------------------------------------
# Single-state cases
# ---------------------------------------------------------------------------


def two_city_plain() -> Case:
    inst = _instance(
        "TS_VRP", 2, 2,
        [Vehicle(id=1, start_city=1)],
        _costs(2, 2, {(2, 1): 5.0, (1, 2): 7.0}),
        _durations(2, 2),
    )
    return Case("two_city_plain", inst, 2.0)


def no_free_variables() -> Case:
    """T = 2 with both interval-2 slots forbidden: only the pinned start
    is left, so the model has no free variable and city 2 goes unvisited."""
    inst = _instance(
        "TS_VRP", 2, 2,
        [Vehicle(id=1, start_city=1)],
        _costs(2, 2, {(2, 1): 5.0, (1, 2): 7.0}),
        _durations(2, 2),
        windows=[(1, 2, 1), (1, 2, 2)],
    )
    return Case("no_free_variables", inst, 2.0)


def three_city_dense() -> Case:
    inst = _instance(
        "TS_VRP", 3, 3,
        [Vehicle(id=1, start_city=1)],
        _costs(3, 3, {
            (2, 1): 3.0, (3, 1): 4.0,
            (1, 2): 5.5, (3, 2): 2.5,
            (1, 3): 6.0, (2, 3): 3.5,
        }),
        _durations(3, 3),
    )
    return Case("three_city_dense", inst, 1.0)


def four_city_dense() -> Case:
    # Narrow cost band with a unique minimum and expensive deadhead legs
    # into the depot keeps every junk configuration strictly above the
    # honest optimum.
    entries = {}
    value = 4.2
    for a in range(2, 5):
        for b in range(1, 5):
            if a != b:
                entries[(a, b)] = round(value, 2)
                value += 0.08
    entries[(2, 1)] = 4.0
    for b in (2, 3, 4):
        entries[(1, b)] = 5.0
    inst = _instance(
        "TS_VRP", 4, 4,
        [Vehicle(id=1, start_city=1)],
        _costs(4, 4, entries),
        _durations(4, 4),
    )
    return Case("four_city_dense", inst, 2.0)


def three_city_time_varying() -> Case:
    costs = _costs(3, 3, {
        (2, 1): 3.0, (3, 1): 3.2, (1, 2): 4.0,
        (3, 2): 2.2, (1, 3): 4.4, (2, 3): 2.6,
    })
    costs[1] += 0.5 * (costs[1] > 0)  # rush pricing in the second interval
    inst = _instance(
        "TS_VRP", 3, 3,
        [Vehicle(id=1, start_city=1)],
        costs,
        _durations(3, 3),
    )
    return Case("three_city_time_varying", inst, 1.5)


def three_city_end() -> Case:
    inst = _instance(
        "TS_VRP", 4, 3,
        [Vehicle(id=1, start_city=1, end_city=3)],
        _costs(4, 3, {
            (2, 1): 2.0, (3, 1): 3.6, (1, 2): 3.0,
            (3, 2): 2.4, (1, 3): 3.4, (2, 3): 2.8,
        }),
        _durations(4, 3),
    )
    return Case("three_city_end", inst, 2.0)


def three_city_window_order() -> Case:
    # The cheap order would reach city 3 in interval 2; its window forbids
    # that, so the optimum must serve city 2 first.
    inst = _instance(
        "TS_VRP", 3, 3,
        [Vehicle(id=1, start_city=1)],
        _costs(3, 3, {
            (2, 1): 4.0, (3, 1): 2.0, (1, 2): 5.0,
            (3, 2): 3.0, (1, 3): 5.5, (2, 3): 2.5,
        }),
        _durations(3, 3),
        windows=[(1, 2, 3)],
    )
    return Case("three_city_window_order", inst, 2.0)


def two_vehicles_shared_depot() -> Case:
    # City 4 opens only in the last interval; the dead arrival slot hosts
    # a sentinel cost that pins the bottom of the range, so every usable
    # coefficient stays strictly inside it.
    costs = _costs(3, 4, {
        (2, 1): 2.0, (3, 1): 2.4, (4, 1): 4.0,
        (3, 2): 1.6, (4, 2): 2.2, (2, 3): 2.8,
        (4, 3): 1.8, (2, 4): 3.0, (3, 4): 3.2,
        (1, 2): 3.4, (1, 3): 3.6, (1, 4): 3.8,
    })
    costs[1, 2 - 1, 4 - 1] = 1.0  # departures from city 4 in interval 2 cannot happen
    inst = _instance(
        "TS_VRP", 3, 4,
        [Vehicle(id=1, start_city=1), Vehicle(id=2, start_city=1)],
        costs,
        _durations(3, 4),
        windows=[(1, 2, 4), (2, 2, 4)],
    )
    return Case("two_vehicles_shared_depot", inst, 2.0)


def two_vehicles_ends() -> Case:
    # The single shared customer (city 3) may only be served in interval
    # 2; its dead interval-3 slot carries the sentinel minimum cost.
    costs = _costs(3, 5, {
        (3, 1): 2.0, (3, 2): 2.1, (4, 1): 2.9, (5, 2): 2.8,
        (4, 3): 1.8, (5, 3): 2.0, (4, 2): 3.1, (5, 1): 3.2,
        (1, 3): 3.3, (2, 3): 3.4, (3, 4): 3.5, (3, 5): 3.6,
        (1, 2): 3.7, (2, 1): 3.8, (1, 4): 3.9, (2, 5): 4.0,
        (4, 5): 4.1, (5, 4): 4.2, (1, 5): 4.3, (2, 4): 4.4,
    })
    costs[1, 3 - 1, 1 - 1] = 1.0  # arrival at city 3 in interval 3: window-dead
    inst = _instance(
        "TS_VRP", 3, 5,
        [
            Vehicle(id=1, start_city=1, end_city=4),
            Vehicle(id=2, start_city=2, end_city=5),
        ],
        costs,
        _durations(3, 5),
        windows=[(1, 3, 3), (2, 3, 3)],
    )
    return Case("two_vehicles_ends", inst, 2.0)


def three_city_priority() -> Case:
    base = three_city_dense().instance
    prioritized = apply_priority(base.costs, 0.5, {3})
    inst = Instance(
        grid=base.grid,
        city_labels=base.city_labels,
        vehicles=base.vehicles,
        costs=prioritized,
        durations=base.durations,
        variations=None,
        windows=base.windows,
        model_kind=base.model_kind,
        capacity_dims=0,
    )
    return Case("three_city_priority", inst, 1.0)


def three_city_slow_leg() -> Case:
    # Travel between cities 2 and 3 takes two intervals either way.
    inst = _instance(
        "TS_VRP", 4, 3,
        [Vehicle(id=1, start_city=1)],
        _costs(4, 3, {
            (2, 1): 2.0, (3, 1): 2.6, (1, 2): 3.0,
            (3, 2): 2.2, (1, 3): 3.2, (2, 3): 2.4,
        }),
        _durations(4, 3, {(3, 2): 2, (2, 3): 2}),
    )
    return Case("three_city_slow_leg", inst, 2.0)


def degenerate_costs() -> Case:
    # A flat cost matrix prices every move at exactly -lam; the two-city
    # grid leaves no room for the tie games flat costs invite elsewhere.
    inst = _instance(
        "TS_VRP", 2, 2,
        [Vehicle(id=1, start_city=1)],
        _costs(2, 2, base=7.0),
        _durations(2, 2),
    )
    return Case("degenerate_costs", inst, 1.0)


# ---------------------------------------------------------------------------
# Capacitated cases (one capacity dimension)
# ---------------------------------------------------------------------------


def mc_pickup_chain() -> Case:
    # Pickup at city 2, delivery at city 3; starting empty forces the
    # pickup first even though the reverse order is priced cheaper.
    inst = _instance(
        "TS_MCVRP", 3, 3,
        [Vehicle(id=1, start_city=1, capacity_lower=(0,), capacity_upper=(1,))],
        _costs(3, 3, {
            (2, 1): 3.5, (3, 1): 3.0, (1, 2): 4.0,
            (3, 2): 3.2, (1, 3): 4.2, (2, 3): 3.1,
        }),
        _durations(3, 3),
        variations=_delivery_variations(3, 3, {2: +1, 3: -1}),
    )
    return Case("mc_pickup_chain", inst, 2.0)


def mc_delivery_run() -> Case:
    # Start loaded with two units and drop one at each customer.
    inst = _instance(
        "TS_MCVRP", 3, 3,
        [
            Vehicle(
                id=1,
                start_city=1,
                capacity_lower=(0,),
                capacity_upper=(2,),
                start_capacity=(2,),
            )
        ],
        _costs(3, 3, {
            (2, 1): 2.0, (3, 1): 2.5, (1, 2): 3.0,
            (3, 2): 1.8, (1, 3): 3.1, (2, 3): 2.2,
        }),
        _durations(3, 3),
        variations=_delivery_variations(3, 3, {2: -1, 3: -1}),
    )
    return Case("mc_delivery_run", inst, 2.0)


def mc_bounds_block() -> Case:
    # The cheap order would drive the load below its lower bound, so the
    # optimum must take the expensive-but-admissible order.
    inst = _instance(
        "TS_MCVRP", 3, 3,
        [Vehicle(id=1, start_city=1, capacity_lower=(0,), capacity_upper=(1,))],
        _costs(3, 3, {
            (2, 1): 3.6, (3, 1): 3.0, (1, 2): 4.0,
            (3, 2): 3.3, (1, 3): 4.1, (2, 3): 3.05,
        }),
        _durations(3, 3),
        variations=_delivery_variations(3, 3, {2: +1, 3: -1}),
    )
    return Case("mc_bounds_block", inst, 2.0)


def mc_two_vehicles() -> Case:
    # Two depots, one pickup customer each; unit capacity keeps each
    # vehicle to a single pickup.
    inst = _instance(
        "TS_MCVRP", 2, 4,
        [
            Vehicle(id=1, start_city=1, capacity_lower=(0,), capacity_upper=(1,)),
            Vehicle(id=2, start_city=2, capacity_lower=(0,), capacity_upper=(1,)),
        ],
        _costs(2, 4, {
            (3, 1): 2.0, (4, 2): 2.2, (4, 1): 2.9, (3, 2): 2.7,
            (1, 3): 3.0, (2, 4): 3.1, (1, 4): 3.2, (2, 3): 3.3,
            (2, 1): 3.4, (1, 2): 3.5, (4, 3): 3.6, (3, 4): 3.7,
        }),
        _durations(2, 4),
        variations=_delivery_variations(2, 4, {3: +1, 4: +1}),
    )
    return Case("mc_two_vehicles", inst, 2.0)


# ---------------------------------------------------------------------------
# Two-state cases
# ---------------------------------------------------------------------------


def _stays(t: int, n: int, entries: dict[int, int] | None = None):
    arr = np.ones((t - 1, n), dtype=int)
    for city, value in (entries or {}).items():
        arr[:, city - 1] = value
    return arr


def svrp_minimal() -> Case:
    inst = _instance(
        "TS_SVRP", 2, 2,
        [Vehicle(id=1, start_city=1, end_city=2)],
        _costs(2, 2, {(2, 1): 5.0, (1, 2): 7.0}),
        _durations(2, 2),
        stays=_stays(2, 2),
    )
    return Case("svrp_minimal", inst, 2.0)


def svrp_three_city() -> Case:
    inst = _instance(
        "TS_SVRP", 4, 3,
        [Vehicle(id=1, start_city=1, end_city=3)],
        _costs(4, 3, {
            (2, 1): 2.0, (3, 1): 3.4, (1, 2): 3.0,
            (3, 2): 2.2, (1, 3): 3.1, (2, 3): 2.6,
        }),
        _durations(4, 3),
        stays=_stays(4, 3),
    )
    return Case("svrp_three_city", inst, 2.0)


def svrp_stay_two() -> Case:
    # Serving city 2 takes two intervals before the vehicle may leave.
    inst = _instance(
        "TS_SVRP", 5, 3,
        [Vehicle(id=1, start_city=1, end_city=3)],
        _costs(5, 3, {
            (2, 1): 2.0, (3, 1): 3.4, (1, 2): 3.0,
            (3, 2): 2.2, (1, 3): 3.1, (2, 3): 2.6,
        }),
        _durations(5, 3),
        stays=_stays(5, 3, {2: 2}),
    )
    return Case("svrp_stay_two", inst, 2.0)


def svrp_closure() -> Case:
    # The return leg is the cheap one, so closing the tour is strictly
    # better than stopping mid-road.
    inst = _instance(
        "TS_SVRP", 4, 2,
        [Vehicle(id=1, start_city=1, end_city=1)],
        _costs(4, 2, {(2, 1): 6.0, (1, 2): 4.0}),
        _durations(4, 2),
        stays=_stays(4, 2),
    )
    return Case("svrp_closure", inst, 2.0)


def svrp_window_order() -> Case:
    # City 3 cannot be entered in interval 2, forcing city 2 first.
    inst = _instance(
        "TS_SVRP", 4, 3,
        [Vehicle(id=1, start_city=1, end_city=3)],
        _costs(4, 3, {
            (2, 1): 4.0, (3, 1): 2.0, (1, 2): 5.0,
            (3, 2): 3.0, (1, 3): 5.5, (2, 3): 2.5,
        }),
        _durations(4, 3),
        stays=_stays(4, 3),
        windows=[(1, 2, 3)],
    )
    return Case("svrp_window_order", inst, 2.0)


def mcsvrp_two_city() -> Case:
    # One pickup customer; the capacity status must ride along unchanged
    # through the stay.
    inst = _instance(
        "TS_MCSVRP", 4, 2,
        [
            Vehicle(
                id=1, start_city=1, end_city=1,
                capacity_lower=(0,), capacity_upper=(1,),
            )
        ],
        _costs(4, 2, {(2, 1): 6.0, (1, 2): 4.0}),
        _durations(4, 2),
        stays=_stays(4, 2),
        variations=_delivery_variations(4, 2, {2: +1, 1: -1}),
    )
    return Case("mcsvrp_two_city", inst, 2.0)


PLAIN_CASES = (
    two_city_plain,
    three_city_dense,
    four_city_dense,
    three_city_time_varying,
    three_city_end,
    three_city_window_order,
    two_vehicles_shared_depot,
    two_vehicles_ends,
    three_city_priority,
    three_city_slow_leg,
    degenerate_costs,
)
CAPACITATED_CASES = (mc_pickup_chain, mc_delivery_run, mc_bounds_block, mc_two_vehicles)
TWO_STATE_CASES = (svrp_minimal, svrp_three_city, svrp_stay_two, svrp_closure, svrp_window_order)
EXTRA_CASES = (mcsvrp_two_city,)

EXHAUSTIVE_CASES = PLAIN_CASES + CAPACITATED_CASES + TWO_STATE_CASES + EXTRA_CASES


def load_cases() -> list[Case]:
    return [factory() for factory in EXHAUSTIVE_CASES]
