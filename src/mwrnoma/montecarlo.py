"""Seeded Monte Carlo estimator for the achievable sum rate.

Reproducibility contract: results are a pure function of (seed, trials).
Trials are grouped into fixed-size chunks; chunk c draws its uniforms
from SFC64 seeded by SeedSequence(seed, spawn_key=(c,)), so every
trial's variates depend only on the seed and its own index, and the
chunks' partial accumulators are merged in chunk order.  Chunks run one
after another on the calling thread.

One engine, ``simulate_sweep``, serves every sweep: chunks run in the
outer loop and sweep points in the inner loop.  Each chunk draws and
sorts its Gamma gains once; every point then applies its own path loss,
SNR and distortion profile to those gains (common random numbers) and
reduces its rates to chunk statistics.  Each point's statistics merge in
chunk order, as a one-point run merges them, so a point's result does not
depend on which other points share the run.  Results are at unit time
share: a point knows no scheme, and only ``simulate_asr`` multiplies its
finished result by a prefactor.  The kernel sees a profile only through its
three distortion terms (``_kernels.distortion_terms``), so points with
equal path loss, SNR and terms share one kernel call and their chunk
statistics: transmitter-only and receiver-only distortion of one level
cost one evaluation.
Only per-point statistics outlive a chunk.  ``sample_moments`` runs the
same chunks and reduces the sorted, path-loss-scaled gains and their
squares instead of rates.

A chunk's sorted gains are a column-major (trials, M) array, one
contiguous column per position.  No (trials, decoders) array of rates
exists: per kernel group, ``_kernels.decoder_totals`` turns the gains
straight into the trials' totals, multiplying each decoder's factor
(1 + its telescoped SINR) into the trial's product left to right while it
is in cache, then taking one log2 per trial, and returns the totals' sum,
which serves both as the check that every total is finite and as the
mean.  Only the totals' mean and M2 (sum of squared deviations) outlive
the chunk, numpy's pairwise sums along its trials, so the bits are those
of a whole-array reduction.  At M = 4 a kernel group takes 26 ufunc
passes over the chunk's trials, 3 of them for M2, and a chunk enters one
``np.errstate``, however many groups it has.
A chunk draws, transforms and sorts its gains in blocks of at most
``UNIFORM_BLOCK`` uniforms (or of one trial, if a trial needs more), so
its memory does not grow with the fading shape alpha.  The transform
(``channel.gamma_from_uniforms``) takes one log per gain, of the product
of its alpha factors 1 - u (one per group of 16 at a larger alpha).  The
chunk loop fills the same blocks, gains, path-loss-scaled gains,
numerators, interference sums and kernel work columns for every chunk, so
a run allocates its arrays once; a short last chunk uses the leading part
of the same memory.  The kernel's scratch is memory the chunk already
has: its two work columns, the numerator array's two scratch columns, and
the spent uniforms block for the totals.

Importing this module does not load ``numpy.random``, so a closed-form
run, which draws nothing, does not pay for it: ``numpy.random`` (and the
OpenSSL library it pulls in) loads at the first chunk's draw.
"""

from __future__ import annotations

import copy
import math
from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import reduce
from itertools import starmap

import numpy as np

from . import _kernels
from .channel import FadingParams, gamma_from_uniforms
from .errors import ConfigurationError, NumericError, SweepPointError
from .rate import AsrResult
from .signal import ImpairmentProfile, NetworkConfig

__all__ = [
    "TrialConfig",
    "SweepPoint",
    "CHUNK_TRIALS",
    "sample_moments",
    "simulate_sweep",
    "simulate_asr",
]

# trials per chunk stream; fixed so that chunk boundaries (and
# therefore accumulation order) depend only on the trial count
CHUNK_TRIALS = 8192

# uniforms drawn per block of a chunk (256 KB); a block holds the whole
# trials that fit, and at least one
UNIFORM_BLOCK = 2**15

_SEED_MAX = 2**64

# most trials a run may ask for: at about 0.2 s per 1M trials at M = 8
# (more at more users), 10^9 trials run for about 200 s
MAX_TRIALS = 10**9


@dataclass(frozen=True)
class TrialConfig:
    """Monte Carlo run size and seed."""

    trials: int
    seed: int

    def __post_init__(self):
        # the stderr needs the ddof=1 variance, undefined for one trial
        if not isinstance(self.trials, int) or self.trials < 2:
            raise ConfigurationError(f"trials must be an integer >= 2, got {self.trials!r}")
        if self.trials > MAX_TRIALS:
            raise ConfigurationError(
                f"at most {MAX_TRIALS} trials, got {self.trials}", field="trials"
            )
        if type(self.seed) is not int or not 0 <= self.seed < _SEED_MAX:  # bool is refused
            raise ConfigurationError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")


def _chunk_stream(seed: int, chunk_index: int) -> np.random.Generator:
    """SFC64 seeded by ``SeedSequence(seed).spawn(chunk_index + 1)[-1]``."""
    from numpy.random import SFC64, Generator, SeedSequence

    return Generator(SFC64(SeedSequence(seed, spawn_key=(chunk_index,))))


class _ChunkBuffers:
    """The arrays of one chunk of ``count`` trials at M users.

    The chunk loop (``_chunks``) keeps one set and refills it for every
    chunk.  At M = 8 they hold a few MB, and allocating them per chunk
    made the allocator hand the pages back to the OS at the end of each
    chunk and fault them in again for the next.  ``uniforms`` and
    ``draws`` hold one block of ``block`` trials, M * alpha uniforms and
    M unsorted gains each; ``gains``, ``rho``, ``suffix`` and ``terms``
    (the numerators of ``_kernels.weighted_sums``) are column-major
    (count, M) arrays, and ``work`` is the kernel's (count, 2)
    column-major work array.  ``totals``, one kernel group's per-trial
    totals, shares the uniforms' memory: a block of UNIFORM_BLOCK / 2 or
    more uniforms (whole trials, at least one) holds a chunk's totals
    already, and only a smaller block is allocated longer.
    """

    def __init__(self, n_users: int, alpha: int, count: int):
        self.count = count
        self.block = max(1, min(count, UNIFORM_BLOCK // (n_users * alpha)))
        # one kernel group's totals take the memory of the uniforms, spent
        # once the chunk's gains are sorted
        size = self.block * n_users * alpha
        spent = np.empty(max(size, count))
        self.uniforms = spent[:size].reshape(self.block, n_users, alpha)
        self.totals = spent[:count]
        self.draws = np.empty((self.block, n_users))
        self.gains, self.rho, self.suffix, self.terms = (
            np.empty((count, n_users), order="F") for _ in range(4)
        )
        self.work = np.empty((count, 2), order="F")

    def head(self, count: int) -> _ChunkBuffers:
        """Buffers for ``count`` <= ``self.count`` trials in the leading
        part of this set's memory, each chunk array column-major and
        contiguous like the full set's, so the kernel copies none of
        them."""
        view = copy.copy(self)
        view.count, view.block = count, min(self.block, count)
        view.totals = self.totals[:count]
        for name in ("gains", "rho", "suffix", "terms", "work"):
            full = getattr(self, name)
            columns = full.shape[1]
            flat = full.reshape(-1, order="F")[: count * columns]
            setattr(view, name, flat.reshape((count, columns), order="F"))
        return view


def _sample_rho_chunk(
    fading: FadingParams, seed: int, chunk_index: int, buffers: _ChunkBuffers
) -> np.ndarray:
    """Sorted Gamma gains, before path loss, for the ``buffers.count``
    trials of one chunk.

    Each trial consumes exactly M * alpha uniforms laid out contiguously,
    so a shorter final chunk reproduces the same per-trial variates.  The
    uniforms are drawn, transformed and sorted ``buffers.block`` trials at
    a time; the stream fills them in order, and every step is row-local,
    so the gains do not depend on the block size.  The gains are returned
    column-major, one contiguous column per position, in
    ``buffers.gains``, which the next draw into the same buffers
    overwrites.
    """
    stream = _chunk_stream(seed, chunk_index)
    gains = buffers.gains
    for start in range(0, buffers.count, buffers.block):
        rows = min(buffers.block, buffers.count - start)
        u = stream.random(out=buffers.uniforms[:rows])
        h = gamma_from_uniforms(u, fading.beta, buffers.draws[:rows])
        h.sort(axis=1)
        gains[start : start + rows] = h
    return gains


def _mean_m2(x, total=None):
    """Two-pass mean and M2 (sum of squared deviations) of x, which is
    overwritten; total is ``np.add.reduce(x)`` if the caller has it."""
    mean = (np.add.reduce(x) if total is None else total) / x.size
    np.subtract(x, mean, out=x)
    np.square(x, out=x)
    return mean, np.add.reduce(x)


def _chunk_stats(buffers: _ChunkBuffers, a, args, aggregates):
    """One kernel group's chunk statistics: the per-trial totals of its
    decoder rates (``_kernels.decoder_totals`` at the kernel arguments
    ``args``, on ``buffers.rho`` and its shared ``aggregates``) and their
    ``(n, mean, m2)``; or, if a total is not finite, the chunk's earliest
    such trial (an int)."""
    totals = buffers.totals
    total = _kernels.decoder_totals(
        buffers.rho, a, *args, out=totals, work=buffers.work, aggregates=aggregates
    )
    if not math.isfinite(total):
        return int(np.argmin(np.isfinite(totals)))
    mean, m2 = _mean_m2(totals, total)
    return buffers.count, float(mean), float(m2)


def _merge_stats(left, right):
    """Combine the ``(n, mean, m2)`` of two disjoint samples (a parallel
    Welford merge); mean and m2 may be arrays."""
    (n1, mu1, m21), (n2, mu2, m22) = left, right
    n = n1 + n2
    delta = mu2 - mu1
    return n, mu1 + delta * (n2 / n), m21 + m22 + delta**2 * (n1 * n2 / n)


@dataclass(frozen=True)
class SweepPoint:
    """One operating point of a Monte Carlo sweep.

    cfg: user count, power split and SNR.  fading: fading law and the
    per-position path loss.  imp: distortion profile.
    """

    cfg: NetworkConfig
    fading: FadingParams
    imp: ImpairmentProfile


def _sweep_plan(points):
    """Group the points by path-loss vector, then by kernel arguments.

    The kernel arguments are the computed floats (1/r1, 1/r2, mac, mix,
    bc), so points whose distortion profiles differ but whose
    ``_kernels.distortion_terms`` are bit-equal fall in one group.  Points
    in one path-loss group share the scaled gains and their aggregates,
    numerator terms included; points in one kernel group share the kernel
    call and the chunk statistics.
    """
    groups: dict = {}
    for i, p in enumerate(points):
        try:
            factors = p.fading.path_loss_factors()
        except NumericError as exc:
            raise SweepPointError(i, str(exc)) from exc
        args = _kernels.kernel_args(p.cfg, p.imp)
        kernels = groups.setdefault(factors.tobytes(), (factors, {}))[1]
        kernels.setdefault(args, []).append(i)
    return list(groups.values())


def _chunks(trials: int, n_users: int, alpha: int):
    """``(chunk_index, buffers)`` of every chunk, in chunk order.  Every
    chunk shares one ``_ChunkBuffers``; a short last chunk takes its
    ``head``."""
    full, rest = divmod(trials, CHUNK_TRIALS)
    buffers = _ChunkBuffers(n_users, alpha, min(trials, CHUNK_TRIALS))
    for c in range(full):
        yield c, buffers
    if rest:
        yield full, buffers.head(rest)


def _merge_parts(parts, n_points: int):
    """Fold per-chunk outputs, in chunk order, into per-point statistics
    and each point's first bad trial (None while all rates are finite)."""
    stats: list = [None] * n_points
    bad_trial: list = [None] * n_points
    for part in parts:
        for i, s in enumerate(part):
            if bad_trial[i] is not None:
                continue
            if isinstance(s, int):
                bad_trial[i] = s
            else:
                stats[i] = s if stats[i] is None else _merge_stats(stats[i], s)
    return stats, bad_trial


def _result(stats) -> AsrResult:
    n, mean, m2 = stats
    return AsrResult(
        per_decoder=None,
        total=float(mean),
        provenance="monte-carlo",
        stderr=math.sqrt(m2 / (n * (n - 1))),
        trials=n,
    )


def simulate_sweep(points: Sequence[SweepPoint], tc: TrialConfig) -> list[AsrResult]:
    """Unit-share Monte Carlo sum rate at every point, from one draw of the gains.

    Chunk outer, point inner: each chunk samples and sorts its gains once,
    then every point scales them by its path loss, evaluates the kernel
    at its (r1, distortion profile) and reduces to chunk statistics.  Each
    point's statistics merge in chunk order, so every result is
    bit-identical to a one-point run at prefactor 1.0.

    The points must share the user count, power split and fading law
    (they may differ in path loss).  A non-finite rate raises
    ``SweepPointError`` for the first failing point in list order, naming
    its first non-finite trial, as separate one-point runs in that order
    would.  A path loss 1 + d^nu that overflows is an input fault: it raises
    ``SweepPointError`` for the first such point before any trial is drawn.
    """
    if not points:
        raise ConfigurationError("need at least one sweep point")
    first = points[0]
    M = first.cfg.n_users
    law = (M, first.cfg.a, first.fading.alpha, first.fading.beta)
    for p in points:
        if p.fading.n_users != p.cfg.n_users:
            raise ConfigurationError(
                f"fading covers {p.fading.n_users} users, config expects {p.cfg.n_users}"
            )
        if (p.cfg.n_users, p.cfg.a, p.fading.alpha, p.fading.beta) != law:
            raise ConfigurationError(
                "sweep points must share the user count, power split and fading law"
            )
    a = np.asarray(first.cfg.a, dtype=np.float64)
    plan = _sweep_plan(points)

    def run_chunk(chunk_index: int, buffers: _ChunkBuffers):
        """Per-point chunk statistics, or the first bad trial of a point."""
        start = chunk_index * CHUNK_TRIALS
        h = _sample_rho_chunk(first.fading, tc.seed, chunk_index, buffers)
        out: list = [None] * len(points)
        # the kernel's overflows are inf, repaired or reported (one entry
        # per chunk, not per kernel group)
        with np.errstate(over="ignore", divide="ignore"):
            for factors, kernels in plan:
                rho = np.multiply(h, factors, out=buffers.rho)
                aggregates = _kernels.weighted_sums(
                    rho, a, out=buffers.suffix, terms=buffers.terms
                )
                for args, members in kernels.items():
                    part = _chunk_stats(buffers, a, args, aggregates)
                    if isinstance(part, int):
                        part += start
                    for i in members:
                        out[i] = part
        return out

    chunks = starmap(run_chunk, _chunks(tc.trials, M, first.fading.alpha))
    stats, bad_trial = _merge_parts(chunks, len(points))
    for i, trial in enumerate(bad_trial):
        if trial is not None:
            raise SweepPointError(i, f"non-finite rate in trial {trial}", trial)
    return [_result(s) for s in stats]


def simulate_asr(
    cfg: NetworkConfig,
    fading: FadingParams,
    imp: ImpairmentProfile,
    tc: TrialConfig,
    prefactor: float = 0.5,
) -> AsrResult:
    """Monte Carlo sum rate: the trial average of prefactor * log2(1 + SINR)
    summed over every decodable pair.

    A one-point ``simulate_sweep``, its total and stderr times prefactor;
    bit-identical output for identical (seed, trials).
    """
    unit = simulate_sweep([SweepPoint(cfg, fading, imp)], tc)[0]
    return replace(unit, total=unit.total * prefactor, stderr=unit.stderr * prefactor)


def sample_moments(fading: FadingParams, tc: TrialConfig) -> tuple[np.ndarray, np.ndarray]:
    """Sampled first and second moments of the ordered effective gains.

    Returns ``(mean, stderr)``, each (2, M): row 0 is rho_i, row 1 is
    rho_i^2, for order positions i = 1..M.  The gains are the engine's
    chunks (same streams as ``simulate_sweep``), scaled by path loss, and
    their statistics merge in chunk order.  Raises ``NumericError`` if the
    mean or M2 of the gains or their squares is not finite, in a chunk or
    after the merge.
    """
    M = fading.n_users
    factors = fading.path_loss_factors()

    def finite(stats, where: str):
        if not (np.isfinite(stats[1]).all() and np.isfinite(stats[2]).all()):
            raise NumericError(f"sampled gain moments are not finite {where}")
        return stats

    def run_chunk(chunk_index: int, buffers: _ChunkBuffers):
        h = _sample_rho_chunk(fading, tc.seed, chunk_index, buffers)
        col = buffers.work[:, 0]
        stats = []
        for i in range(2 * M):
            np.multiply(h[:, i % M], factors[i % M], out=col)
            if i >= M:
                np.square(col, out=col)
            stats.append(_mean_m2(col))
        mean, m2 = map(np.array, zip(*stats))
        return finite((buffers.count, mean, m2), f"in chunk {chunk_index}")

    # an overflow, of a chunk's sums or of the merge, is reported once, as
    # a NumericError
    with np.errstate(over="ignore", invalid="ignore"):
        parts = starmap(run_chunk, _chunks(tc.trials, M, fading.alpha))
        n, mean, m2 = finite(reduce(_merge_stats, parts), "when the chunks merge")
    stderr = np.sqrt(m2 / (n * (n - 1)))
    return mean.reshape(2, M), stderr.reshape(2, M)
