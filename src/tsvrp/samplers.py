"""Samplers: exhaustive ground-truth enumeration and simulated annealing.

Both backends return a :class:`SampleSet` whose every energy is the
model's own ``QuboModel.energy`` of the record's bits, so no sampler's
bookkeeping reaches a stored energy.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import threading
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .instance import write_json
from .qubo import QuboModel

ENERGY_TOL = 1e-9
IMPORT_TOL = 1e-6

# Per-chain random tapes are drawn in blocks of sweeps; one group of
# chains keeps its state and one tape block within this many bytes.
_TAPE_BUDGET = 16_000_000

# Chains go to a process pool only when every shard gets this many.
_MIN_SHARD_CHAINS = 512

# What one chain's generator takes, about 1 kB for a PCG64 under numpy 2.
_GENERATOR_BYTES = 1_024


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

    def verify(self, model: QuboModel) -> None:
        for r in self.records:
            actual = model.energy(r.bits)
            if abs(actual - r.energy) > ENERGY_TOL:
                raise SamplerError(
                    f"record energy {r.energy} disagrees with model energy {actual}"
                )

    def to_document(self) -> dict:
        return {
            "records": [["".join(map(str, r.bits)), r.energy, r.multiplicity] for r in self.records],
            "metadata": self.metadata,
        }


def _records(model: QuboModel, rows, multiplicities) -> tuple[SampleRecord, ...]:
    """One record per distinct bit row, with the model's own energy."""
    return tuple(SampleRecord(b, model.energy(b), m) for b, m in zip(map(tuple, rows), multiplicities))


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
        if self.seed < 0:
            raise SamplerError(f"seed must be non-negative, got {self.seed}")
        for name, beta in (("beta_start", self.beta_start), ("beta_end", self.beta_end)):
            if beta is not None and not 0 < beta < math.inf:
                raise SamplerError(f"{name} must be positive and finite, got {beta}")
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
    # An infinite beta turns a zero-cost step's -beta * dE into NaN,
    # which the acceptance compare would reject.
    if not (0 < beta_start < math.inf and 0 < beta_end < math.inf):
        raise SamplerError(f"betas must be positive and finite, got {beta_start} and {beta_end}")
    if not beta_start < beta_end:
        raise SamplerError(f"beta_start {beta_start} must be below beta_end {beta_end}")
    # The ramp's last step, beta_start * (beta_end / beta_start).
    if not math.isfinite(beta_start * (beta_end / beta_start)):
        raise SamplerError(f"beta_end / beta_start overflows: {beta_end} / {beta_start}")


def exhaustive_solve(model: QuboModel, cap: int = 25) -> SampleSet:
    """Enumerate every assignment; return all minimum-energy bitstrings.

    Batch energies pick the minima; each record holds ``model.energy``.
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
    kept_vals, kept_energies = [], []
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
    minima = (vals[energies <= best + ENERGY_TOL, None] >> shifts) & 1
    records = _records(model, minima.tolist(), repeat(1))
    return SampleSet(
        records=records,
        metadata={
            "sampler": "exhaustive",
            "model_ref": model.fingerprint(),
            "n_enumerated": total,
            "min_energy": min(r.energy for r in records),
            "energy_histogram": [[e, c] for e, c in sorted(histogram.items())[:64]],
        },
    )


def simulated_anneal(
    model: QuboModel, schedule: AnnealSchedule, track_chains: bool = False
) -> SampleSet:
    """Independent single-flip Metropolis chains under a geometric ramp.

    Chain ``r`` derives all of its randomness from ``seed + r``: first its
    starting bits, then one uniform ``u`` per (sweep, variable) step,
    consumed in that order; a step flips its variable when
    ``u < exp(-beta * dE)``, so every downhill step flips.  Chains run in
    vectorized lockstep, in groups and across processes, which changes
    nothing observable because they never interact.  Each chain reports
    its best-ever state; identical states merge into one record with a
    multiplicity and the model's ``energy``.
    """
    n = model.n_vars
    b0, b1 = schedule.resolved_betas(model)
    metadata = _sa_metadata(model, schedule, b0, b1)
    if n == 0:
        records = (SampleRecord((), model.constant, schedule.restarts),)
        per_sweep = [model.constant] * (schedule.sweeps + 1)
        metadata["best_energy_per_sweep"] = per_sweep
        if track_chains:
            metadata["chain_best_per_sweep"] = [per_sweep[:] for _ in range(schedule.restarts)]
        return SampleSet(records=records, metadata=metadata)

    # Both orientations of every coupling, by row, then column: ascending neighbours.
    rows, cols = np.concatenate([model.q_i, model.q_j]), np.concatenate([model.q_j, model.q_i])
    order = np.lexsort((cols, rows))
    edges = np.cumsum(np.bincount(rows, minlength=n))[:-1]
    weights = np.concatenate([model.q_c, model.q_c])[order]
    neighbours = tuple(zip(np.split(cols[order], edges), np.split(weights, edges)))
    lin = np.zeros(n)
    lin[model.lin_index] = model.lin_coeff
    job = _AnnealJob(model, schedule.seed, schedule.betas(model), lin, neighbours, track_chains)
    ranges = _shard_ranges(schedule.restarts)
    parts = _run_sharded(job, ranges) if len(ranges) > 1 else [_anneal_range(job, *ranges[0])]

    distinct, counts = np.unique(np.concatenate([bits for bits, _ in parts]), axis=0, return_counts=True)
    records = _records(model, distinct.tolist(), counts.tolist())
    if track_chains:
        trajectory = np.concatenate([traj for _, traj in parts], axis=1)
        metadata["best_energy_per_sweep"] = trajectory.min(axis=1).tolist()
        metadata["chain_best_per_sweep"] = trajectory.T.tolist()
    else:
        metadata["best_energy_per_sweep"] = np.min([traj for _, traj in parts], axis=0).tolist()
    return SampleSet(records=records, metadata=metadata)


class _AnnealJob(NamedTuple):
    """What every chain of one annealing call shares."""

    model: QuboModel
    seed: int
    betas: np.ndarray
    lin: np.ndarray
    # Per variable: its neighbours' indices and couplings.
    neighbours: tuple[tuple[np.ndarray, np.ndarray], ...]
    track: bool


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _shard_ranges(restarts: int) -> list[tuple[int, int]]:
    """Contiguous chain ranges, one per shard, as even as they come.

    Without ``fork``, or in a process with other threads, all chains
    stay here: ``fork`` copies only the calling thread, and a lock
    another thread holds stays held in the child.
    """
    shards = max(1, min(_available_cpus(), restarts // _MIN_SHARD_CHAINS))
    if threading.active_count() > 1 or "fork" not in multiprocessing.get_all_start_methods():
        shards = 1
    edges = [restarts * k // shards for k in range(shards + 1)]
    return list(zip(edges, edges[1:]))


def _run_sharded(job: _AnnealJob, ranges: list[tuple[int, int]]) -> list:
    """Run the first range here and each other one in a forked child.

    Every child is joined before this returns or raises.  A child runs
    one range and sends it back; if the caller is gone by then, the send
    fails on the closed pipe and the child exits, so no child outlives
    its range even when the caller is killed.
    """
    context = multiprocessing.get_context("fork")
    shards = []
    try:
        for lo, hi in ranges[1:]:
            reader, writer = context.Pipe(duplex=False)
            child = context.Process(target=_shard_child, args=(job, lo, hi, reader, writer))
            child.start()
            writer.close()
            shards.append((child, reader))
        parts = [_anneal_range(job, *ranges[0])]
        for child, reader in shards:
            try:
                failed, part = reader.recv()
            except EOFError:
                child.join()
                raise SamplerError(f"annealing shard exited with code {child.exitcode}") from None
            if failed:
                raise part
            parts.append(part)
        return parts
    except BaseException:
        for child, _ in shards:
            child.terminate()
        raise
    finally:
        for child, reader in shards:
            reader.close()
            child.join()


def _shard_child(job: _AnnealJob, lo: int, hi: int, reader, writer) -> None:
    reader.close()
    try:
        outcome = (False, _anneal_range(job, lo, hi))
    except Exception as exc:  # handed to the caller, which raises it
        outcome = (True, exc)
    writer.send(outcome)


def _chain_bytes(n: int, sweeps: int) -> int:
    """One chain's share of its group's state: its generator, at most
    eight ``n``-sized rows at once and its best energy per sweep."""
    return 8 * (8 * n + sweeps + 9) + _GENERATOR_BYTES


def _group_plan(n: int, sweeps: int, chains: int) -> tuple[int, int]:
    """Chains per group, as even as they come, and sweeps per tape block.

    A group's state takes at most three quarters of ``_TAPE_BUDGET``,
    its tape block the rest.
    """
    state = _chain_bytes(n, sweeps)
    groups = -(-chains // max(1, 3 * _TAPE_BUDGET // (4 * state)))
    group = -(-chains // groups)
    block = max(1, min(sweeps, (_TAPE_BUDGET - group * state) // (8 * n * group)))
    return group, block


def _anneal_range(job: _AnnealJob, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Chains ``lo .. hi - 1``: best bits as ``uint8`` rows, and the best
    energy after each sweep, per chain if the job tracks chains, else
    the minimum over these chains."""
    group, block = _group_plan(job.model.n_vars, len(job.betas), hi - lo)
    bits, trajectories = [], []
    for g0 in range(lo, hi, group):
        seeds = range(job.seed + g0, job.seed + min(g0 + group, hi))
        rngs = [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]
        best_bits, trajectory = _anneal_group(job, rngs, block)
        bits.append(best_bits)
        trajectories.append(trajectory if job.track else trajectory.min(axis=1))
    if job.track:
        return np.concatenate(bits), np.concatenate(trajectories, axis=1)
    return np.concatenate(bits), np.min(trajectories, axis=0)


def _anneal_group(job: _AnnealJob, rngs, block: int):
    """Anneal one group of chains, held chains-last: row ``j`` of ``spin``
    (``1 - 2 * bits``) and of ``field`` is variable ``j`` of every chain.

    Each chain draws its starting bits and switches them on in index
    order, from ``field = lin`` and ``energy = constant``, with the same
    elementwise adds as a flip, so no start depends on the group's shape.
    A flip of ``j`` moves only the fields of ``j``'s neighbours; rejected
    chains add ``w * 0``, which changes no field.  The best state is
    settled once per sweep: the first step that reached the sweep's
    lowest energy, if that beats the best so far, holds the variables up
    to its own from the sweep's end and the rest from the sweep's start,
    because a sweep visits each variable once, in order.
    """
    n, g, sweeps = len(job.lin), len(rngs), len(job.betas)
    spin = np.empty((n, g))
    for c, rng in enumerate(rngs):
        spin[:, c] = rng.integers(0, 2, n)
    field = np.repeat(job.lin[:, None], g, axis=1)
    cur = np.full(g, job.model.constant)
    push = np.empty((max(len(nb) for nb, _ in job.neighbours), g))
    for bit, f, (nb, w) in zip(spin, field, job.neighbours):
        np.add(cur, f, out=cur, where=bit > 0)
        field[nb] += np.einsum("i,j->ij", w, bit, out=push[: len(nb)])
    spin *= -2.0
    spin += 1.0
    best, best_spin = cur.copy(), spin.copy()
    sweep_start = np.empty_like(spin)
    energy_log = np.empty((n, g))
    trajectory = np.empty((sweeps + 1, g))
    trajectory[0] = cur
    tape = np.empty((block, n, g))
    de, x, delta = np.empty(g), np.empty(g), np.empty(g)
    accept = np.empty(g, dtype=bool)
    order, chains = np.arange(n)[:, None], np.arange(g)
    steps = list(zip(spin, field, energy_log, job.neighbours))
    with np.errstate(over="ignore"):
        for t0 in range(0, sweeps, block):
            width = min(block, sweeps - t0)
            for c, rng in enumerate(rngs):
                tape[:width, :, c] = rng.random((width, n))
            for t in range(t0, t0 + width):
                neg_beta = -job.betas[t]
                np.copyto(sweep_start, spin)
                for (s, f, logged, (nb, w)), u in zip(steps, tape[t - t0]):
                    np.multiply(f, s, out=de)
                    np.multiply(de, neg_beta, out=x)
                    np.exp(x, out=x)
                    np.less(u, x, out=accept)
                    np.multiply(s, accept, out=delta)
                    moved = field[nb]
                    moved += np.einsum("i,j->ij", w, delta, out=push[: len(nb)])
                    field[nb] = moved
                    np.negative(s, out=s, where=accept)
                    np.add(cur, de, out=cur, where=accept)
                    logged[...] = cur
                first = energy_log.argmin(axis=0)
                low = energy_log[first, chains]
                improved = low < best
                np.copyto(best, low, where=improved)
                np.copyto(best_spin, np.where(order <= first, spin, sweep_start), where=improved)
                trajectory[t + 1] = best
    return np.ascontiguousarray((best_spin < 0).T, dtype=np.uint8), trajectory


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


def read_sample_set(path, model: QuboModel | None = None) -> SampleSet:
    """Load a sample-set document, re-verifying energies against a model.

    Records that are not a 0/1 string of the model's length with a
    positive integer multiplicity, or whose stored energy disagrees with
    the model by more than ``IMPORT_TOL``, are rejected (dropped); the
    number of rejections lands in the metadata so silent corruption
    stays visible.  Every accepted record takes the model's energy.
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
            if not abs(actual - energy) <= IMPORT_TOL:  # NaN fails too
                rejected += 1
                continue
            energy = actual
        records.append(SampleRecord(bits, energy, multiplicity))
    metadata = dict(doc.get("metadata", {}))
    if model is not None:
        metadata["rejected_records"] = rejected
    return SampleSet(records=tuple(records), metadata=metadata)
