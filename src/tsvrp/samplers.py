"""Samplers: exhaustive ground-truth enumeration and simulated annealing.

Both backends return a :class:`SampleSet` whose energies are re-derived
from the model, so a disagreement between a sampler's bookkeeping and
the model itself cannot go unnoticed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .instance import write_json
from .qubo import QuboModel

ENERGY_TOL = 1e-9
IMPORT_TOL = 1e-6

# Per-chain random tapes are materialized in chunks; this bounds the
# memory of one chunk (bytes).
_TAPE_BUDGET = 200_000_000


class SamplerError(RuntimeError):
    """Uniform wrapper for backend failures."""


class SampleRecord(NamedTuple):
    bits: tuple[int, ...]
    energy: float
    multiplicity: int


@dataclass(frozen=True)
class SampleSet:
    """Bitstrings with energies and multiplicities, sorted by energy."""

    records: tuple[SampleRecord, ...]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.records, key=lambda r: (r.energy, r.bits)))
        object.__setattr__(self, "records", ordered)

    @property
    def total_samples(self) -> int:
        return sum(r.multiplicity for r in self.records)

    @property
    def best(self) -> SampleRecord:
        if not self.records:
            raise SamplerError("sample set is empty")
        return self.records[0]

    def verify(self, model: QuboModel, tol: float = ENERGY_TOL) -> None:
        for r in self.records:
            actual = model.energy(r.bits)
            if abs(actual - r.energy) > tol:
                raise SamplerError(
                    f"record energy {r.energy} disagrees with model energy {actual}"
                )

    def to_document(self) -> dict:
        return {
            "records": [["".join(map(str, r.bits)), r.energy, r.multiplicity] for r in self.records],
            "metadata": self.metadata,
        }


def _merge_records(bits_list: Sequence[tuple[int, ...]], energies: Sequence[float]) -> tuple[SampleRecord, ...]:
    counts: dict[tuple[int, ...], tuple[float, int]] = {}
    for bits, energy in zip(bits_list, energies):
        old = counts.get(bits)
        counts[bits] = (energy, old[1] + 1 if old else 1)
    return tuple(SampleRecord(bits, e, m) for bits, (e, m) in counts.items())


@dataclass(frozen=True)
class AnnealSchedule:
    """Geometric inverse-temperature ramp for single-flip Metropolis.

    ``beta_start``/``beta_end`` default to 0.1/lam and 10/lam of the model
    being solved, which keeps the acceptance profile invariant under a
    total rescaling of the Hamiltonian.  Each one left unset takes its
    own default.
    """

    sweeps: int = 1000
    beta_start: float | None = None
    beta_end: float | None = None
    restarts: int = 32
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sweeps < 1:
            raise SamplerError(f"sweeps must be >= 1, got {self.sweeps}")
        if self.restarts < 1:
            raise SamplerError(f"restarts must be >= 1, got {self.restarts}")
        if self.beta_start is not None and self.beta_end is not None:
            _check_betas(self.beta_start, self.beta_end)

    def resolved_betas(self, model: QuboModel) -> tuple[float, float]:
        lam = getattr(model.params, "lam", None) or 1.0
        b0 = 0.1 / lam if self.beta_start is None else self.beta_start
        b1 = 10.0 / lam if self.beta_end is None else self.beta_end
        _check_betas(b0, b1)
        return b0, b1

    def betas(self, model: QuboModel) -> np.ndarray:
        b0, b1 = self.resolved_betas(model)
        if self.sweeps == 1:
            return np.array([b0])
        return b0 * (b1 / b0) ** (np.arange(self.sweeps) / (self.sweeps - 1))


def _check_betas(beta_start: float, beta_end: float) -> None:
    if beta_start <= 0 or beta_end <= 0:
        raise SamplerError("betas must be positive")
    if not beta_start < beta_end:
        raise SamplerError(f"beta_start {beta_start} must be below beta_end {beta_end}")


def exhaustive_solve(model: QuboModel, cap: int = 25) -> SampleSet:
    """Enumerate every assignment; return all minimum-energy bitstrings.

    The metadata carries a histogram of the lowest energy levels plus the
    enumeration size.  Intended as the ground-truth oracle for small
    models; refuses anything above ``cap`` free variables.
    """
    n = model.n_vars
    if n > cap:
        raise SamplerError(f"exhaustive enumeration capped at {cap} variables, model has {n}")
    total = 1 << n
    chunk = min(total, 1 << 16)
    shifts = np.arange(n, dtype=np.uint64)

    best = np.inf
    histogram: dict[float, int] = {}
    kept_vals: list[np.ndarray] = []
    kept_energies: list[np.ndarray] = []
    for base in range(0, total, chunk):
        vals = np.arange(base, min(base + chunk, total), dtype=np.uint64)
        energies = model.energies(((vals[:, None] >> shifts) & 1).astype(float))
        best = min(best, float(energies.min()))
        for e, count in zip(*np.unique(np.round(energies, 9), return_counts=True)):
            histogram[float(e)] = histogram.get(float(e), 0) + int(count)
        # Rows above the running best cannot be minima; the final best
        # filters what is left.
        hit = energies <= best + ENERGY_TOL
        kept_vals.append(vals[hit])
        kept_energies.append(energies[hit])

    vals, energies = np.concatenate(kept_vals), np.concatenate(kept_energies)
    hit = energies <= best + ENERGY_TOL
    minima_bits = [tuple(int(x) for x in row) for row in (vals[hit, None] >> shifts) & 1]
    minima_energy = energies[hit].tolist()

    levels = sorted(histogram.items())[:64]
    records = _merge_records(minima_bits, minima_energy)
    return SampleSet(
        records=records,
        metadata={
            "sampler": "exhaustive",
            "model_ref": model.fingerprint(),
            "n_enumerated": total,
            "min_energy": best,
            "energy_histogram": [[e, c] for e, c in levels],
        },
    )


def simulated_anneal(
    model: QuboModel, schedule: AnnealSchedule, track_chains: bool = False
) -> SampleSet:
    """Independent single-flip Metropolis chains under a geometric ramp.

    Chain ``r`` derives all of its randomness from ``seed + r``: first its
    starting bits, then one uniform per (sweep, variable) step, consumed
    in that order.  Chains are executed in vectorized lockstep, which
    changes nothing observable because they never interact.  Each chain
    reports its best-ever state; identical states merge into one record
    with a multiplicity.
    """
    n = model.n_vars
    lin, coupling = model.dense_arrays()
    betas = schedule.betas(model)
    sweeps, restarts = schedule.sweeps, schedule.restarts

    best_bits_all: list[np.ndarray] = []
    trajectory: list[np.ndarray] = []

    if n == 0:
        records = (SampleRecord((), model.constant, restarts),)
        b0, b1 = schedule.resolved_betas(model)
        return SampleSet(records=records, metadata=_sa_metadata(model, schedule, b0, b1))

    chunk = max(1, min(restarts, _TAPE_BUDGET // (sweeps * n * 8)))
    for base in range(0, restarts, chunk):
        size = min(chunk, restarts - base)
        bits = np.empty((size, n))
        tape = np.empty((sweeps, n, size))
        for r in range(size):
            rng = np.random.Generator(np.random.PCG64(schedule.seed + base + r))
            bits[r] = rng.integers(0, 2, n)
            tape[:, :, r] = rng.random((sweeps, n))

        field_now = bits @ coupling + lin
        cur = model.energies(bits)
        best = cur.copy()
        best_bits = bits.copy()
        chunk_traj = [best.copy()]

        for t in range(sweeps):
            beta = betas[t]
            for j in range(n):
                de = field_now[:, j] * (1.0 - 2.0 * bits[:, j])
                accept = de <= 0.0
                uphill = ~accept
                if uphill.any():
                    accept[uphill] = tape[t, j, uphill] < np.exp(-beta * de[uphill])
                rows = np.nonzero(accept)[0]
                if rows.size:
                    sign = 1.0 - 2.0 * bits[rows, j]
                    bits[rows, j] += sign
                    field_now[rows] += sign[:, None] * coupling[j]
                    cur[rows] += de[rows]
                    improved = rows[cur[rows] < best[rows]]
                    if improved.size:
                        best[improved] = cur[improved]
                        best_bits[improved] = bits[improved]
            chunk_traj.append(best.copy())
        best_bits_all.append(best_bits)
        trajectory.append(np.stack(chunk_traj, axis=0))

    stacked = np.vstack(best_bits_all).astype(int)
    energies = model.energies(stacked.astype(float))
    records = _merge_records([tuple(map(int, row)) for row in stacked], energies.tolist())
    b0, b1 = schedule.resolved_betas(model)
    metadata = _sa_metadata(model, schedule, b0, b1)
    full_trajectory = np.concatenate(trajectory, axis=1)
    metadata["best_energy_per_sweep"] = full_trajectory.min(axis=1).tolist()
    if track_chains:
        metadata["chain_best_per_sweep"] = full_trajectory.T.tolist()
    return SampleSet(records=records, metadata=metadata)


def _sa_metadata(model: QuboModel, schedule: AnnealSchedule, b0: float, b1: float) -> dict:
    return {
        "sampler": "sa",
        "model_ref": model.fingerprint(),
        "seed": schedule.seed,
        "sweeps": schedule.sweeps,
        "restarts": schedule.restarts,
        "beta_start": b0,
        "beta_end": b1,
    }


def write_sample_set(sample_set: SampleSet, path, extra: dict | None = None) -> None:
    write_json(path, {**sample_set.to_document(), **(extra or {})})


def read_sample_set(path, model: QuboModel | None = None, tol: float = IMPORT_TOL) -> SampleSet:
    """Load a sample-set document, re-verifying energies against a model.

    Records that are not a 0/1 string of the model's length with a
    positive integer multiplicity, or whose stored energy disagrees with
    the model by more than ``tol``, are rejected (dropped); the number of
    rejections lands in the metadata so silent corruption stays visible.
    A malformed document raises ``ValueError`` or ``TypeError``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("a sample-set document must be a JSON object")
    records = []
    rejected = 0
    for bitstring, energy, multiplicity in doc.get("records", []):
        energy = float(energy)
        if (
            not isinstance(bitstring, str)
            or not set(bitstring) <= {"0", "1"}
            or (model is not None and len(bitstring) != model.n_vars)
            or type(multiplicity) is not int
            or multiplicity < 1
        ):
            rejected += 1
            continue
        bits = tuple(int(ch) for ch in bitstring)
        if model is not None:
            actual = model.energy(bits)
            if abs(actual - energy) > tol:
                rejected += 1
                continue
            energy = actual
        records.append(SampleRecord(bits, energy, multiplicity))
    metadata = dict(doc.get("metadata", {}))
    if model is not None:
        metadata["rejected_records"] = rejected
    return SampleSet(records=tuple(records), metadata=metadata)
