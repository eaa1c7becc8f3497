"""The QUBO builder for the four routing model kinds.

TS-VRP, TS-MCVRP, TS-SVRP and TS-MCSVRP are one time-table model: the
kind only decides which states and capacity statuses the catalogue
enumerates, so one builder emits them all.  Each of the 14 term families
is one broadcast over a vehicle's code grid ``g[tau, city, state,
capacity]`` (or over a pair of vehicles' grids), masked to the slots the
family relates, and goes into the model as one block of code arrays.
Travel and stay moves carry negatively shifted cost coefficients
``(d - mu) / rho`` so that every allowed move is rewarded; every
forbidden qubit pair carries exactly ``+lam``.  Penalty pairs are
deduplicated per family with one ``np.unique``, so a pair that a model
description would generate twice (for instance once directly and once
with arrival/departure roles toggled) still receives a single ``+lam``.
All costs enter the model before any penalty.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from .instance import CostSeries, Instance, Vehicle
from .qubo import BuildError, QuboModel, VariableCatalogue, build_catalogue

COST_FAMILIES = ("travel_cost", "stay_cost")
PENALTY_FAMILIES = (
    "early_arrival",
    "wrong_capacity",
    "capacity_clash",
    "early_departure",
    "transit_block",
    "stay_block",
    "state_clash",
    "city_clash",
    "revisit_clash",
    "cross_vehicle_clash",
    "simultaneous_clash",
    "end_lock",
)


@dataclass(frozen=True)
class PenaltyParameters:
    """Cost shift mu, scale rho, penalty weight lam, baseline shift delta.

    ``uniform_cost`` marks the degenerate case of a flat cost matrix:
    the shift formula would reduce every coefficient to 0/0, so each
    cost term is priced at exactly ``-lam`` instead.
    """

    lam: float
    mu: float
    rho: float
    delta: float = 0.0
    uniform_cost: bool = False

    def __post_init__(self) -> None:
        # Written so that NaN fails each test.
        if not 0 < self.lam < math.inf:
            raise BuildError(f"lam must be positive and finite, got {self.lam}")
        if not 0 <= self.delta < math.inf:
            raise BuildError(f"delta must be non-negative and finite, got {self.delta}")
        if not 0 < self.rho < math.inf:
            raise BuildError(f"rho must be positive and finite, got {self.rho}")
        if not math.isfinite(self.mu):
            raise BuildError(f"mu must be finite, got {self.mu}")

    def cost_coefficient(self, d):
        """Coefficient of a move of cost ``d``, a number or an array of costs."""
        if self.uniform_cost:
            return -self.lam
        return (d - self.mu) / self.rho


def standard_parameters(costs: CostSeries, lam: float, delta: float = 0.0) -> PenaltyParameters:
    """Pick mu and rho so cost coefficients span exactly [-lam - delta, 0].

    ``mu`` is the largest cost; ``rho`` stretches the cost range onto the
    penalty scale.  A flat cost matrix has no range to stretch, so it
    falls back to the uniform ``-lam`` pricing.
    """
    lo, mu = costs.min_max()
    # The flat pricing comes first, so lam and delta are checked before they divide.
    flat = PenaltyParameters(lam=lam, mu=mu, rho=lam, delta=delta, uniform_cost=True)
    if mu == lo:
        return flat
    return replace(flat, rho=(mu - lo) / (lam + delta), uniform_cost=False)


def _window(start: np.ndarray, length: np.ndarray, horizon: int) -> np.ndarray:
    """Per row, the 0-based intervals t with start < t <= start + length."""
    t = np.arange(horizon)
    return (t > start[:, None]) & (t <= (start + length)[:, None])


def _key_order(grids: list[np.ndarray]) -> np.ndarray:
    """Rank of every code in VariableKey order, where capacity precedes state.

    Each penalty pair is stored with its lower key first.
    """
    return np.concatenate([
        g.flat[0] + np.arange(g.size).reshape(g.shape[:2] + g.shape[:1:-1]).swapaxes(2, 3).ravel()
        for g in grids
    ])


def build_model(
    inst: Instance, params: PenaltyParameters, *, catalogue: VariableCatalogue | None = None
) -> QuboModel:
    """Build the QUBO of the instance's model kind.

    Every kind emits the travel block; two-state kinds add the stay
    block.  A single-state leg is the two-state leg with arrival and
    departure on one event.  Only single-state vehicles lock their
    destination; two-state vehicles lose its departure slots in the
    catalogue instead.  A given ``catalogue`` must have been built from
    this very ``inst`` object.
    """
    cat = catalogue if catalogue is not None else build_catalogue(inst)
    if cat.instance is not inst:
        raise BuildError("catalogue belongs to a different instance")
    model = QuboModel(cat, params=params)
    pairs = {f: [np.empty((2, 0), dtype=np.int64)] for f in PENALTY_FAMILIES}

    def cost(family, key_a, key_b, d, mask) -> None:
        key_a, key_b, d, mask = np.broadcast_arrays(key_a, key_b, d, mask)
        model.add_block(family, key_a[mask], key_b[mask], params.cost_coefficient(d[mask]))

    def pen(family, key_a, key_b, mask=True) -> None:
        key_a, key_b, mask = np.broadcast_arrays(key_a, key_b, mask)
        pairs[family].append(np.stack([key_a[mask], key_b[mask]]))

    grids = [cat.grid(v.id) for v in inst.vehicles]
    for v, g in zip(inst.vehicles, grids):
        caps = np.array(cat.capacity_blocks[v.id], dtype=int).reshape(g.shape[3], -1)
        _travel_block(inst, v, g, caps, cost, pen)
        if inst.stateful:
            _stay_block(inst, g, cost, pen)
        _exclusions(g, pen)
    # Across vehicles a city hosts one vehicle; simultaneous depot slots
    # are exempt so fleets can share a home base.
    t, n = inst.horizon, inst.n_cities
    shared = np.isin(np.arange(1, n + 1), list(inst.depot_cities))
    for gi, gj in combinations(grids, 2):
        fi, fj = gi.reshape(t, n, -1), gj.reshape(t, n, -1)
        pen("simultaneous_clash", fi[:, :, :, None], fj[:, :, None, :], ~shared[:, None, None])
        pen(
            "cross_vehicle_clash",
            fi[:, None, :, :, None],
            fj[None, :, :, None, :],
            ~np.eye(t, dtype=bool)[:, :, None, None, None],
        )

    order, total = _key_order(grids), cat.n_total
    for family in PENALTY_FAMILIES:
        a, b = np.concatenate(pairs[family], axis=1)
        first = order[a] <= order[b]
        codes = np.unique(np.where(first, a, b) * total + np.where(first, b, a))
        model.add_block(family, codes // total, codes % total, params.lam)
    return model.finalize()


def _travel_block(inst: Instance, v: Vehicle, g: np.ndarray, caps: np.ndarray, cost, pen) -> None:
    """Legs from city b at interval tau to city a, arriving at tau + duration.

    A leg rewards the arrival that carries the varied capacity status and
    penalizes every other arrival status, any arrival before the leg's
    duration has passed, and (two-state) any departure while in transit.
    A single-state vehicle with an end city does not leave it: every
    later slot at any other city clashes with sitting there now.
    """
    t, n, s, _ = g.shape
    arr, dep = g[:, :, 0], g[:, :, s - 1]  # the one plain grid twice in single-state kinds
    lock = None if inst.stateful else v.end_city
    legs = np.ones((t - 1, n, n), dtype=bool) & ~np.eye(n, dtype=bool)
    if lock is not None:
        legs[:, :, lock - 1] = False
    tau, a, b = np.nonzero(legs)  # 0-based departure interval, to, from
    dur = inst.durations.travel[tau, a, b]
    lands = tau + dur <= t - 1
    lo, hi = np.array(v.capacity_lower, dtype=int), np.array(v.capacity_upper, dtype=int)
    if inst.variations is None:
        delta = np.zeros((len(tau), caps.shape[1]), dtype=int)
    else:
        delta = inst.variations.values[tau, a, b]
    target = caps[None] + delta[:, None, :]
    ok = np.all((target >= lo) & (target <= hi), axis=2)
    stride = np.array([np.prod(hi[m + 1:] - lo[m + 1:] + 1) for m in range(len(lo))], dtype=int)
    target_index = np.where(ok, ((target - lo) * stride).sum(axis=2), 0)

    departs = dep[tau, b]  # [leg, capacity]
    arrives = arr[np.where(lands, tau + dur, 0), a]  # [leg, capacity], on landing
    cost(
        "travel_cost",
        np.take_along_axis(arrives, target_index, axis=1),
        departs,
        inst.costs.values[tau, a, b][:, None],
        lands[:, None] & ok,
    )
    right = ok[:, :, None] & (target_index[:, :, None] == np.arange(len(caps)))
    pen("wrong_capacity", arrives[:, None, :], departs[:, :, None], lands[:, None, None] & ~right)
    pen(
        "early_arrival",
        arr[:, a].swapaxes(0, 1)[:, :, None, :],
        departs[:, None, :, None],
        _window(tau, dur - 1, t)[:, :, None, None],
    )
    if inst.stateful:
        pen(
            "transit_block",
            dep[:, a].swapaxes(0, 1)[:, :, None, :],
            departs[:, None, :, None],
            _window(tau, dur, t)[:, :, None, None],
        )
    if lock is not None:
        later = np.triu(np.ones((t, t), dtype=bool), 1)  # [tau, later tau]
        away = np.arange(n) != lock - 1
        pen(
            "end_lock",
            arr[None, :, :, None, :],
            arr[:, lock - 1][:, None, None, :, None],
            later[:, :, None, None, None] & away[:, None, None],
        )


def _stay_block(inst: Instance, g: np.ndarray, cost, pen) -> None:
    """Stays: an arrival at tau is followed by the departure at tau + stay.

    The stay hands the capacity status over unchanged, no departure comes
    earlier, and no second arrival comes while a fresh one is served.
    """
    t, n, _, c = g.shape
    arr, dep = g[:, :, 0], g[:, :, 1]
    tau, a = np.nonzero(np.ones((t - 1, n), dtype=bool))
    hold = inst.durations.stay[tau, a]
    here = arr[tau, a]  # [stay, capacity]
    done = tau + hold <= t - 1
    leaves = dep[np.where(done, tau + hold, 0), a]
    cost("stay_cost", leaves, here, 0.0, done[:, None])
    pen("wrong_capacity", leaves[:, None, :], here[:, :, None], done[:, None, None] & ~np.eye(c, dtype=bool))
    pen(
        "early_departure",
        dep[:, a].swapaxes(0, 1)[:, :, None, :],
        here[:, None, :, None],
        _window(tau, hold - 1, t)[:, :, None, None],
    )
    elsewhere = np.arange(n) != a[:, None]
    pen(
        "stay_block",
        arr[None, :, :, None, :],
        here[:, None, None, :, None],
        _window(tau, hold, t)[:, :, None, None, None] & elsewhere[:, None, :, None, None],
    )


def _exclusions(g: np.ndarray, pen) -> None:
    """Constraint pairs within one vehicle, shared by every model kind.

    No two cities in one interval and no second visit to a city.  Two-state
    models quantify every family over both states, except that the
    second-visit family pairs only like states: an arrival/departure pair
    at one city is the stay transition, and its discipline belongs to the
    stay block.
    """
    t, n, s, c = g.shape
    if s == 2:
        pen("state_clash", g[:, :, 0, :, None], g[:, :, 1, None, :])
    pen("capacity_clash", g[..., :, None], g[..., None, :], np.triu(np.ones((c, c), dtype=bool), 1))
    flat = g.reshape(t, n, s * c)
    pen(
        "city_clash",
        flat[:, :, None, :, None],
        flat[:, None, :, None, :],
        np.triu(np.ones((n, n), dtype=bool), 1)[:, :, None, None],
    )
    pen(
        "revisit_clash",
        g[:, None, :, :, :, None],
        g[None, :, :, :, None, :],
        np.triu(np.ones((t, t), dtype=bool), 1)[:, :, None, None, None, None],
    )


def term_summary(model: QuboModel) -> dict[str, int]:
    """Emission counts per term family, zero-filled for absent families."""
    summary = {f: 0 for f in COST_FAMILIES + PENALTY_FAMILIES}
    summary.update(model.term_counts)
    return summary
