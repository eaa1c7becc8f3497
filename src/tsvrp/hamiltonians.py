"""The QUBO builder for the four routing model kinds.

TS-VRP, TS-MCVRP, TS-SVRP and TS-MCSVRP are one time-table model: the
kind only decides which states and capacity statuses the catalogue
enumerates, so one emission engine builds them all.  Travel and stay
moves carry negatively shifted cost coefficients ``(d - mu) / rho`` so
that every allowed move is rewarded; every forbidden qubit pair carries
exactly ``+lam``.  Penalty pairs are deduplicated per family, so a pair that a
model description would generate twice (for instance once directly and
once with arrival/departure roles toggled) still receives a single
``+lam``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .instance import CostSeries, Instance
from .qubo import (
    ARRIVAL,
    DEPARTURE,
    PLAIN,
    BuildError,
    QuboModel,
    VariableCatalogue,
    VariableKey,
    build_catalogue,
)

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
        if self.lam <= 0:
            raise BuildError(f"lam must be positive, got {self.lam}")
        if self.rho <= 0:
            raise BuildError(f"rho must be positive, got {self.rho}")
        if self.delta < 0:
            raise BuildError(f"delta must be non-negative, got {self.delta}")

    def cost_coefficient(self, d: float) -> float:
        if self.uniform_cost:
            return -self.lam
        return (d - self.mu) / self.rho


def standard_parameters(
    costs: CostSeries | Instance,
    lam: float,
    delta: float = 0.0,
    focus_max: float | None = None,
) -> PenaltyParameters:
    """Pick mu and rho so cost coefficients span exactly [-lam - delta, 0].

    ``mu`` is the largest cost (or ``focus_max``, turning pricier legs
    into penalty-positive territory); ``rho`` stretches the remaining
    range onto the penalty scale.  A flat cost matrix has no range to
    stretch, so it falls back to the uniform ``-lam`` pricing.
    """
    if lam <= 0:
        raise BuildError(f"lam must be positive, got {lam}")
    if delta < 0:
        raise BuildError(f"delta must be non-negative, got {delta}")
    series = costs.costs if isinstance(costs, Instance) else costs
    lo, hi = series.min_max()
    mu = hi if focus_max is None else float(focus_max)
    if mu < lo:
        raise BuildError(f"focus_max {mu} lies below the smallest cost {lo}")
    span = mu - lo
    if span == 0.0:
        return PenaltyParameters(lam=lam, mu=mu, rho=lam, delta=delta, uniform_cost=True)
    return PenaltyParameters(lam=lam, mu=mu, rho=span / (lam + delta), delta=delta)


class _Assembler:
    """Shared emission machinery for all model kinds."""

    def __init__(
        self,
        inst: Instance,
        params: PenaltyParameters,
        catalogue: VariableCatalogue | None,
    ):
        self.inst = inst
        self.params = params
        self.catalogue = catalogue if catalogue is not None else build_catalogue(inst)
        if self.catalogue.instance is not inst:
            raise BuildError("catalogue belongs to a different instance")
        self.model = QuboModel(self.catalogue, params=params)
        self._pairs: dict[str, set[tuple[VariableKey, VariableKey]]] = {
            f: set() for f in PENALTY_FAMILIES
        }

    def cost(self, family: str, key_a: VariableKey, key_b: VariableKey, d: float) -> None:
        self.model.add_quadratic(key_a, key_b, self.params.cost_coefficient(d), family)

    def pen(self, family: str, key_a: VariableKey, key_b: VariableKey) -> None:
        if key_a == key_b:
            raise BuildError(f"penalty pair degenerates to a single key: {key_a}")
        pair = (key_a, key_b) if key_a <= key_b else (key_b, key_a)
        self._pairs[family].add(pair)

    def flush_penalties(self) -> None:
        lam = self.params.lam
        for family in PENALTY_FAMILIES:
            for key_a, key_b in sorted(self._pairs[family]):
                self.model.add_quadratic(key_a, key_b, lam, family)

    # -- shared exclusion block -----------------------------------------
    def exclusions(self) -> None:
        """Constraint pairs shared by every model kind.

        Within a vehicle: no two cities in one interval and no second
        visit to a city.  Across vehicles: a city may host only one
        vehicle, where simultaneous depot slots are exempt so fleets can
        share a home base.  Two-state models quantify every family over
        both states, except that the second-visit family pairs only like
        states: an arrival/departure pair at one city is the stay
        transition, and its discipline belongs to the stay block.
        """
        inst, cat = self.inst, self.catalogue
        states = cat.states
        depots = inst.depot_cities
        t, n = inst.horizon, inst.n_cities
        for v in inst.vehicles:
            caps = cat.capacity_blocks[v.id]
            for tau in range(1, t + 1):
                for a in range(1, n + 1):
                    if len(states) == 2:
                        for ca in caps:
                            for cb in caps:
                                self.pen(
                                    "state_clash",
                                    VariableKey(v.id, tau, a, ca, ARRIVAL),
                                    VariableKey(v.id, tau, a, cb, DEPARTURE),
                                )
                    for state in states:
                        for x in range(len(caps)):
                            for y in range(x + 1, len(caps)):
                                self.pen(
                                    "capacity_clash",
                                    VariableKey(v.id, tau, a, caps[x], state),
                                    VariableKey(v.id, tau, a, caps[y], state),
                                )
                    for b in range(a + 1, n + 1):
                        for sa in states:
                            for sb in states:
                                for ca in caps:
                                    for cb in caps:
                                        self.pen(
                                            "city_clash",
                                            VariableKey(v.id, tau, a, ca, sa),
                                            VariableKey(v.id, tau, b, cb, sb),
                                        )
            for a in range(1, n + 1):
                for tau in range(1, t + 1):
                    for tau2 in range(tau + 1, t + 1):
                        for state in states:
                            for ca in caps:
                                for cb in caps:
                                    self.pen(
                                        "revisit_clash",
                                        VariableKey(v.id, tau, a, ca, state),
                                        VariableKey(v.id, tau2, a, cb, state),
                                    )
        for x in range(len(inst.vehicles)):
            for y in range(x + 1, len(inst.vehicles)):
                vi, vj = inst.vehicles[x], inst.vehicles[y]
                caps_i, caps_j = cat.capacity_blocks[vi.id], cat.capacity_blocks[vj.id]
                for a in range(1, n + 1):
                    for tau in range(1, t + 1):
                        for tau2 in range(1, t + 1):
                            if tau == tau2 and a in depots:
                                continue
                            family = (
                                "simultaneous_clash" if tau == tau2 else "cross_vehicle_clash"
                            )
                            for sa in states:
                                for sb in states:
                                    for ca in caps_i:
                                        for cb in caps_j:
                                            self.pen(
                                                family,
                                                VariableKey(vi.id, tau, a, ca, sa),
                                                VariableKey(vj.id, tau2, a, cb, sb),
                                            )


def _in_bounds(c: tuple[int, ...], lo, hi) -> bool:
    return all(l <= x <= h for x, l, h in zip(c, lo, hi))


def _shift(c: tuple[int, ...], delta: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x + d for x, d in zip(c, delta))


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
    asm = _Assembler(inst, params, catalogue)
    t, n = inst.horizon, inst.n_cities
    stateful = inst.stateful
    arrival, departure = (ARRIVAL, DEPARTURE) if stateful else (PLAIN, PLAIN)
    for v in inst.vehicles:
        caps = asm.catalogue.capacity_blocks[v.id]
        lo, hi = v.capacity_lower, v.capacity_upper
        lock = None if stateful else v.end_city
        for tau in range(1, t):
            for b in range(1, n + 1):
                for a in range(1, n + 1):
                    if a == b:
                        continue
                    if b == lock:
                        # Travel out of the destination is replaced by a
                        # lock: every later slot at any other city clashes
                        # with sitting at the destination now.
                        for dt in range(1, t - tau + 1):
                            for c in caps:
                                for c2 in caps:
                                    asm.pen(
                                        "end_lock",
                                        VariableKey(v.id, tau + dt, a, c2, PLAIN),
                                        VariableKey(v.id, tau, lock, c, PLAIN),
                                    )
                        continue
                    dur = inst.duration(tau, a, b)
                    d = inst.cost(tau, a, b)
                    delta = inst.variation(tau, a, b)
                    arrive = tau + dur
                    for c in caps:
                        target = _shift(c, delta)
                        ok = _in_bounds(target, lo, hi)
                        dep = VariableKey(v.id, tau, b, c, departure)
                        if arrive <= t:
                            if ok:
                                asm.cost(
                                    "travel_cost",
                                    VariableKey(v.id, arrive, a, target, arrival),
                                    dep,
                                    d,
                                )
                            for c2 in caps:
                                if ok and c2 == target:
                                    continue
                                asm.pen(
                                    "wrong_capacity",
                                    VariableKey(v.id, arrive, a, c2, arrival),
                                    dep,
                                )
                        for dt in range(1, min(dur - 1, t - tau) + 1):
                            for c2 in caps:
                                asm.pen(
                                    "early_arrival",
                                    VariableKey(v.id, tau + dt, a, c2, arrival),
                                    dep,
                                )
                        if not stateful:
                            continue
                        # No departure anywhere else while in transit.
                        for dt in range(1, min(dur, t - tau) + 1):
                            for c2 in caps:
                                asm.pen(
                                    "transit_block",
                                    VariableKey(v.id, tau + dt, a, c2, DEPARTURE),
                                    dep,
                                )
            if not stateful:
                continue
            for a in range(1, n + 1):
                hold = inst.stay(tau, a)
                for c in caps:
                    arr = VariableKey(v.id, tau, a, c, ARRIVAL)
                    if tau + hold <= t:
                        asm.cost(
                            "stay_cost",
                            VariableKey(v.id, tau + hold, a, c, DEPARTURE),
                            arr,
                            0.0,
                        )
                        # The stay hands the capacity status over unchanged.
                        for c2 in caps:
                            if c2 == c:
                                continue
                            asm.pen(
                                "wrong_capacity",
                                VariableKey(v.id, tau + hold, a, c2, DEPARTURE),
                                arr,
                            )
                    for dt in range(1, min(hold - 1, t - tau) + 1):
                        for c2 in caps:
                            asm.pen(
                                "early_departure",
                                VariableKey(v.id, tau + dt, a, c2, DEPARTURE),
                                arr,
                            )
            # No second arrival while a fresh arrival is still being served.
            for b in range(1, n + 1):
                hold = inst.stay(tau, b)
                for a in range(1, n + 1):
                    if a == b:
                        continue
                    for dt in range(1, min(hold, t - tau) + 1):
                        for c in caps:
                            for c2 in caps:
                                asm.pen(
                                    "stay_block",
                                    VariableKey(v.id, tau + dt, a, c2, ARRIVAL),
                                    VariableKey(v.id, tau, b, c, ARRIVAL),
                                )
    asm.exclusions()
    asm.flush_penalties()
    return asm.model.finalize()


def term_summary(model: QuboModel) -> dict[str, int]:
    """Emission counts per term family, zero-filled for absent families."""
    summary = {f: 0 for f in COST_FAMILIES + PENALTY_FAMILIES}
    summary.update(model.term_counts)
    return summary
