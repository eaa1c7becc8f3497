"""Samplers: exhaustive ground-truth enumeration and simulated annealing.

Both backends return a :class:`SampleSet` whose every energy is the
model's own ``QuboModel.energy`` of the record's bits, so no sampler's
bookkeeping reaches a stored energy.
"""

from __future__ import annotations

import ctypes
import math
import multiprocessing
import os
import shutil
import tempfile
import threading
from dataclasses import dataclass, field
from functools import cache, partial
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .instance import read_json, write_json
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

# The compiled chain kernel: its source, the build command after the
# compiler (no FMA contraction, no fast-math) and the build's time limit.
_KERNEL_SOURCE = Path(__file__).with_name("_anneal.c")
_KERNEL_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_COMPILE_SECONDS = 60

# The exhaustive scan tabulates this many low variables once, scores
# about this many states per chunk and keeps this many histogram levels.
_LOW_BITS = 12
_CHUNK_STATES = 1 << 16
_LEVELS = 64

# The exhaustive scan refuses models with more free variables than this.
EXHAUSTIVE_CAP = 25


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
    # An infinite beta makes every threshold -ln(u) / beta zero, or NaN
    # where u is 0, so no zero-cost step would flip.
    if not (0 < beta_start < math.inf and 0 < beta_end < math.inf):
        raise SamplerError(f"betas must be positive and finite, got {beta_start} and {beta_end}")
    if not beta_start < beta_end:
        raise SamplerError(f"beta_start {beta_start} must be below beta_end {beta_end}")
    # The ramp's last step, beta_start * (beta_end / beta_start).
    if not math.isfinite(beta_start * (beta_end / beta_start)):
        raise SamplerError(f"beta_end / beta_start overflows: {beta_end} / {beta_start}")


def _bit_table(width: int) -> np.ndarray:
    """Every assignment of ``width`` bits as a float row; row ``r`` holds the bits of ``r``."""
    return ((np.arange(1 << width)[:, None] >> np.arange(width)) & 1).astype(float)


def _block_energies(bits: np.ndarray, lin: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Energy of each row of ``bits`` under a linear vector and strictly upper couplings."""
    return bits @ lin + np.einsum("ij,ij->i", bits @ upper, bits)


def _rounding_bound(cut: float) -> float:
    """An energy above the returned bound rounds to 9 places above ``cut``.

    ``np.round`` is monotone, so one rounded value above ``cut`` past the
    bound covers every larger energy; the margin grows until it does.
    """
    margin = 1e-9
    while cut + margin < math.inf and np.round(np.nextafter(cut + margin, math.inf), 9) <= cut:
        margin *= 2
    return cut + margin


def exhaustive_solve(model: QuboModel) -> SampleSet:
    """Enumerate every assignment; return all minimum-energy bitstrings.

    The variables split into a low block of up to ``_LOW_BITS`` and a
    high block of the rest.  The low block's energies, constant included,
    are tabulated once; a chunk of high states then scores every state
    ``(h << k) | l`` as its high energy plus the low energy plus the
    high-low couplings, in the order of the state's integer value.  The
    histogram keeps only the ``_LEVELS`` lowest energies rounded to 9
    places: once that many are known, energies that round above the
    highest of them are never rounded or counted.

    These energies pick the minima; each record holds ``model.energy``.
    The metadata carries the histogram plus the enumeration size.
    Intended as the ground-truth oracle for small models; refuses
    anything above ``EXHAUSTIVE_CAP`` free variables.
    """
    n = model.n_vars
    if n > EXHAUSTIVE_CAP:
        raise SamplerError(f"exhaustive enumeration capped at {EXHAUSTIVE_CAP} variables, model has {n}")
    total = 1 << n
    k = min(n, _LOW_BITS)
    lin = np.zeros(n)
    lin[model.lin_index] = model.lin_coeff
    upper = np.zeros((n, n))
    upper[model.q_i, model.q_j] = model.q_c
    low_bits = _bit_table(k)
    low = model.constant + _block_energies(low_bits, lin[:k], upper[:k, :k])
    high_bits = _bit_table(n - k)
    high = _block_energies(high_bits, lin[k:], upper[k:, k:])
    # Each high state's couplings to every low variable.
    cross = high_bits @ upper[:k, k:].T
    rows = max(1, _CHUNK_STATES >> k)
    shifts = np.arange(n)

    best = np.inf
    levels, counts = np.empty(0), np.empty(0, dtype=np.int64)
    bound = math.inf
    kept_vals, kept_energies = [], []
    for h0 in range(0, len(high), rows):
        energies = (
            high[h0 : h0 + rows, None] + low[None, :] + cross[h0 : h0 + rows] @ low_bits.T
        ).ravel()
        best = min(best, float(energies.min()))
        # A chunk level past its own _LEVELS-th cannot be among the lowest.
        new, new_counts = np.unique(np.round(energies[energies <= bound], 9), return_counts=True)
        levels, where = np.unique(np.concatenate([levels, new[:_LEVELS]]), return_inverse=True)
        counts = np.bincount(where, np.concatenate([counts, new_counts[:_LEVELS]])).astype(np.int64)
        levels, counts = levels[:_LEVELS], counts[:_LEVELS]
        if len(levels) == _LEVELS:
            bound = _rounding_bound(float(levels[-1]))
        # Rows above the running best cannot be minima; the final best
        # filters what is left.
        hit = energies <= best + ENERGY_TOL
        kept_vals.append((h0 << k) + np.flatnonzero(hit))
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
            "energy_histogram": [[e, c] for e, c in zip(levels.tolist(), counts.tolist())],
        },
    )


def simulated_anneal(model: QuboModel, schedule: AnnealSchedule) -> SampleSet:
    """Independent single-flip Metropolis chains under a geometric ramp.

    Chain ``r`` derives all of its randomness from ``seed + r``: first its
    starting bits, then one uniform ``u`` per (sweep, variable) step,
    consumed in that order; a step flips its variable when
    ``dE < -ln(u) / beta``, so every downhill step flips, and so does any
    step whose ``u`` is 0.  A sweep visits the variables in index order;
    after a variable flips, each of its neighbours' fields takes
    ``w * d`` in its own add, ``d`` the variable's spin before the flip.
    The sweeps run chain by chain in the compiled kernel of ``_anneal.c``
    when this process can build it, else row by row in vectorized
    lockstep over groups of chains with numpy.  Both give the same bits,
    and grouping and sharding over processes change nothing observable
    because chains never interact: a run's chain ``r`` is the one-chain
    run at ``seed + r``.  Each chain reports its best-ever
    state; identical states merge into one record with a multiplicity and
    the model's ``energy``.  ``best_energy_per_sweep`` is the lowest best
    over all chains after each sweep, and ``accepted_per_sweep`` counts
    the accepted flips of each sweep over all chains.
    """
    n = model.n_vars
    b0, b1 = schedule.resolved_betas(model)
    metadata = _sa_metadata(model, schedule, b0, b1)
    if n == 0:
        records = (SampleRecord((), model.constant, schedule.restarts),)
        metadata["best_energy_per_sweep"] = [model.constant] * (schedule.sweeps + 1)
        metadata["accepted_per_sweep"] = [0] * schedule.sweeps
        return SampleSet(records=records, metadata=metadata)

    starts, rows, weights = _neighbour_rows(model)
    lin = np.zeros(n)
    lin[model.lin_index] = model.lin_coeff
    # Built before any shard is forked, so that every shard shares it.  The
    # bound pointers keep their arrays alive.
    compiled = _compiled_kernel()
    if compiled is not None:
        pointers = (a.ctypes.data_as(ctypes.c_void_p) for a in (starts, rows, weights))
        compiled = partial(compiled, n, *pointers)
    job = _AnnealJob(
        model,
        schedule.seed,
        schedule.betas(model),
        lin,
        tuple(zip(np.split(rows, starts[1:-1]), np.split(weights, starts[1:-1]))),
        compiled,
    )
    ranges = _shard_ranges(schedule.restarts)
    parts = _run_sharded(job, ranges) if len(ranges) > 1 else [_anneal_range(job, *ranges[0])]

    distinct, counts = np.unique(np.concatenate([bits for bits, _, _ in parts]), axis=0, return_counts=True)
    records = _records(model, distinct.tolist(), counts.tolist())
    metadata["best_energy_per_sweep"] = np.min([traj for _, traj, _ in parts], axis=0).tolist()
    metadata["accepted_per_sweep"] = np.sum([accepted for _, _, accepted in parts], axis=0).tolist()
    return SampleSet(records=records, metadata=metadata)


def _neighbour_rows(model: QuboModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Variable ``j``'s neighbours, ascending, are
    ``rows[starts[j]:starts[j + 1]]``, with their couplings to it in
    ``weights``: both orientations of every coupling, exactly ``2 * nnz``
    entries."""
    own, other = np.concatenate([model.q_i, model.q_j]), np.concatenate([model.q_j, model.q_i])
    order = np.lexsort((other, own))
    starts = np.concatenate([[0], np.cumsum(np.bincount(own, minlength=model.n_vars))])
    return starts, other[order], np.concatenate([model.q_c, model.q_c])[order]


@cache
def _compiled_kernel():
    """``anneal_chain`` of ``_anneal.c``, built at most once per process.

    The compiler is ``cc`` on ``PATH``; the library goes to a private
    temporary directory, which is gone once the library is loaded.  With
    no compiler, a failed or overlong build, or a library that does not
    load, this returns None and the numpy row step runs instead.
    """
    # Imported here, on the first anneal, not by every start of the program.
    import subprocess

    compiler = shutil.which("cc")
    if compiler is None:
        return None
    with tempfile.TemporaryDirectory(prefix="tsvrp-") as scratch:
        library = os.path.join(scratch, "_anneal.so")
        command = [compiler, *_KERNEL_FLAGS, "-o", library, str(_KERNEL_SOURCE)]
        try:
            built = subprocess.run(
                command, stdin=subprocess.DEVNULL, capture_output=True, timeout=_COMPILE_SECONDS
            )
            if built.returncode != 0:
                return None
            function = ctypes.CDLL(library).anneal_chain
        except (OSError, subprocess.SubprocessError):
            return None
    count, pointer = ctypes.c_int64, ctypes.c_void_p
    function.argtypes = [count, *[pointer] * 11, count, count, count]
    function.restype = None
    return function


class _AnnealJob(NamedTuple):
    """What every chain of one annealing call shares."""

    model: QuboModel
    seed: int
    betas: np.ndarray
    # Per variable: its linear term, and its neighbours and their couplings
    # (see ``_neighbour_rows``).
    lin: np.ndarray
    neighbours: tuple[tuple[np.ndarray, np.ndarray], ...]
    # ``anneal_chain`` of ``_anneal.c`` with the neighbour lists bound, or None.
    kernel: partial | None


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


def _chain_bytes(n: int) -> int:
    """One chain's share of its group's state: its generator, at most six
    ``n``-sized rows at once and a few scalars.  The numpy row step holds
    four rows of state (``spin``, ``field``, the best spin and the sweep's
    start), a flip's neighbour update and the gathered neighbour fields it
    is added to; at a sweep's end a boolean mask, an eighth of a row, takes
    the place of the last.  The compiled kernel holds five: the group's
    ``spin`` and ``field``, their chains-first copies and the best spin."""
    return 8 * (6 * n + 10) + _GENERATOR_BYTES


def _group_plan(n: int, sweeps: int, chains: int, compiled: bool = False) -> tuple[int, int]:
    """Chains per group, as even as they come, and sweeps per tape block.

    A group's state, its chains' shares and its lowest best energy and
    accepted flips per sweep, takes at most three quarters of
    ``_TAPE_BUDGET``, its tape block the rest: a block of every chain of
    the group for the numpy step, of one chain for the compiled kernel,
    which runs the group's chains one at a time.
    """
    state, shared = _chain_bytes(n), 16 * (sweeps + 1)
    groups = -(-chains // max(1, (3 * _TAPE_BUDGET // 4 - shared) // state))
    group = -(-chains // groups)
    tape_chains = 1 if compiled else group
    block = max(1, min(sweeps, (_TAPE_BUDGET - shared - group * state) // (8 * n * tape_chains)))
    return group, block


def _anneal_range(job: _AnnealJob, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chains ``lo .. hi - 1``: best bits as ``uint8`` rows, the lowest
    best energy over these chains after each sweep, and the accepted
    flips of each sweep summed over these chains."""
    group, block = _group_plan(job.model.n_vars, len(job.betas), hi - lo, job.kernel is not None)
    bits, trajectories, accepted = [], [], 0
    for g0 in range(lo, hi, group):
        seeds = range(job.seed + g0, job.seed + min(g0 + group, hi))
        rngs = [np.random.Generator(np.random.PCG64(seed)) for seed in seeds]
        best_bits, trajectory, flips = _anneal_group(job, rngs, block)
        bits.append(best_bits)
        trajectories.append(trajectory)
        accepted = accepted + flips
    return np.concatenate(bits), np.min(trajectories, axis=0), accepted


def _thresholds(rng, betas: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with one chain's next ``len(betas)`` sweeps of
    thresholds ``-ln(u) / beta_t``, in variable order.  Both kernels take
    their tape from here, one chain's contiguous block at a time, so both
    see the same values.  ``u = 0`` gives ``+inf``, under the caller's
    ``np.errstate(divide="ignore")``."""
    rng.random(out=out)
    np.log(out, out=out)
    return np.divide(out, -betas[:, None], out=out)


def _anneal_group(job: _AnnealJob, rngs, block: int):
    """Anneal one group of chains: their best bits as ``uint8`` rows, the
    lowest best energy over the group after each sweep and the accepted
    flips of each sweep summed over the group.

    Each chain draws its starting bits and switches them on in index
    order, from ``field = lin`` and ``energy = constant``, with the same
    elementwise adds as a flip, so no start depends on the group's shape.
    The start goes to the compiled kernel when the job has one, else to
    the numpy row step, as ``spin`` (``1 - 2 * bits``) and ``field``
    rows, one per variable, chains last.
    """
    n, g = len(job.lin), len(rngs)
    spin = np.empty((n, g))
    for c, rng in enumerate(rngs):
        spin[:, c] = rng.integers(0, 2, n)
    field = np.repeat(job.lin[:, None], g, axis=1)
    cur = np.full(g, job.model.constant)
    for f, bit, (nb, w) in zip(field, spin, job.neighbours):
        np.add(cur, f, out=cur, where=bit > 0)
        field[nb] += np.multiply.outer(w, bit)
    spin *= -2.0
    spin += 1.0
    run = _numpy_sweeps if job.kernel is None else _compiled_sweeps
    # The log of a uniform of 0 is -inf, a threshold every step passes.
    with np.errstate(divide="ignore"):
        return run(job, rngs, block, spin, field, cur)


def _numpy_sweeps(job: _AnnealJob, rngs, block: int, spin, field, cur):
    """Every sweep of one group in lockstep, the compiled kernel's steps
    row by row over the group's chains; row ``p`` of ``spin`` and of
    ``field`` is variable ``p`` of every chain.

    A step takes ``dE`` of its row in every chain and accepts it against
    the chain's own threshold for that (sweep, variable).  Where some
    chain accepts, the accepted ``dE`` goes into the energy, the sweep's
    first lowest energy is noted, the row flips, and ``w * delta`` goes to
    each neighbour row, ``delta`` the spin before the step times the
    accept flag: one exact product and one rounding, so no field depends
    on the group's shape.  At the sweep's end a chain that went below its
    best takes the rows up to its first lowest from its state and the rest
    from the sweep's start, because a sweep visits each row once, in
    order.  For the same reason the accepted flips of a sweep are the
    entries its end state changed.
    """
    n, g, sweeps = len(job.lin), len(rngs), len(job.betas)
    best, best_spin = cur.copy(), spin.copy()
    sweep_start, first = np.empty_like(spin), np.empty(g, dtype=np.int64)
    trajectory = np.empty(sweeps + 1)
    trajectory[0] = cur.min()
    accepted = np.empty(sweeps, dtype=np.int64)
    tape, draw = np.empty((block, n, g)), np.empty((block, n))
    push = np.empty((max(len(nb) for nb, _ in job.neighbours), g))
    de, delta = np.empty(g), np.empty(g)
    ok, lower = np.empty(g, dtype=bool), np.empty(g, dtype=bool)
    order = np.arange(n)[:, None]
    for t0 in range(0, sweeps, block):
        width = min(block, sweeps - t0)
        for c, rng in enumerate(rngs):
            tape[:width, :, c] = _thresholds(rng, job.betas[t0 : t0 + width], draw[:width])
        for t in range(t0, t0 + width):
            np.copyto(sweep_start, spin)
            # The row where each chain first reached the sweep's lowest
            # energy below its best, or -1.
            first.fill(-1)
            for p, (s, u, (nb, w)) in enumerate(zip(spin, tape[t - t0], job.neighbours)):
                np.multiply(field[p], s, out=de)
                if not np.less(de, u, out=ok).any():
                    continue
                np.add(cur, de, out=cur, where=ok)
                np.less(cur, best, out=lower)
                np.copyto(best, cur, where=lower)
                np.copyto(first, p, where=lower)
                field[nb] += np.einsum("i,j->ij", w, np.multiply(s, ok, out=delta), out=push[: len(nb)])
                np.negative(s, out=s, where=ok)
            np.copyto(best_spin, sweep_start, where=first >= 0)
            np.copyto(best_spin, spin, where=order <= first)
            trajectory[t + 1] = best.min()
            accepted[t] = np.count_nonzero(spin != sweep_start)
    return (best_spin.T < 0).astype(np.uint8), trajectory, accepted


def _compiled_sweeps(job: _AnnealJob, rngs, block: int, spin, field, cur):
    """The sweeps of ``_numpy_sweeps`` in the compiled kernel, one chain
    at a time, on chains-first copies of the state; the tape holds one
    chain's block of thresholds at a time."""
    n, g, sweeps = len(job.lin), len(rngs), len(job.betas)
    spin, field = np.ascontiguousarray(spin.T), np.ascontiguousarray(field.T)
    best_spin = spin.copy()
    # Per chain: the current energy, then the best.
    energy = np.repeat(cur[:, None], 2, axis=1)
    trajectory = np.full(sweeps + 1, np.inf)
    trajectory[0] = cur.min()
    accepted = np.zeros(sweeps, dtype=np.int64)
    tape, start = np.empty((block, n)), np.empty(n)
    arrays = (tape, start, spin, field, best_spin, energy, trajectory, accepted)
    run = partial(job.kernel, *(a.ctypes.data_as(ctypes.c_void_p) for a in arrays))
    for c, rng in enumerate(rngs):
        for t0 in range(0, sweeps, block):
            width = min(block, sweeps - t0)
            _thresholds(rng, job.betas[t0 : t0 + width], tape[:width])
            run(c, t0, width)
    return (best_spin < 0).astype(np.uint8), trajectory, accepted


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


def read_sample_set(path, model: QuboModel) -> SampleSet:
    """Load a sample-set document, re-verifying energies against a model.

    Records that are not a 0/1 string of the model's length with a
    positive integer multiplicity, or whose stored energy is not a JSON
    number (a string or a boolean is not) or disagrees with the model by
    more than ``IMPORT_TOL``, are rejected (dropped); the
    number of rejections lands in the metadata so silent corruption
    stays visible.  Every accepted record takes the model's energy.
    A malformed document raises ``ValueError`` or ``TypeError``.
    """
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ValueError("a sample-set document must be a JSON object")
    records = []
    rejected = 0
    for bitstring, energy, multiplicity in doc.get("records", []):
        energy = float(energy) if type(energy) in (int, float) else math.nan
        if (
            not isinstance(bitstring, str)
            or not set(bitstring) <= {"0", "1"}
            or len(bitstring) != model.n_vars
            or type(multiplicity) is not int
            or multiplicity < 1
        ):
            rejected += 1
            continue
        bits = tuple(int(ch) for ch in bitstring)
        actual = model.energy(bits)
        if not abs(actual - energy) <= IMPORT_TOL:  # NaN fails too
            rejected += 1
            continue
        records.append(SampleRecord(bits, actual, multiplicity))
    metadata = dict(doc.get("metadata", {}))
    metadata["rejected_records"] = rejected
    return SampleSet(records=tuple(records), metadata=metadata)
