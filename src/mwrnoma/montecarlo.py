"""Seeded Monte Carlo estimator for the achievable sum rate.

Reproducibility contract: results are a pure function of (seed, trials)
regardless of worker count.  Trials are grouped into fixed-size chunks;
chunk c draws its uniforms from a counter-based stream
Philox(key=seed, counter=c << 128), so every trial's variates depend only
on the seed and its own index, any partition of chunks across threads
yields the same numbers, and partial accumulators are merged in chunk
order.  ``derive_trial_stream`` exposes single-trial streams from a
disjoint counter range for callers that need per-trial granularity.

One engine, ``simulate_sweep``, serves every sweep: chunks run in the
outer loop and sweep points in the inner loop.  Each chunk draws and
sorts its Gamma gains once; every point then applies its own path loss,
SNR, distortion profile and prefactor to those gains (common random
numbers) and reduces them to per-point chunk statistics.  Each point's
statistics merge in chunk order, exactly as a one-point run merges them,
so a point's result does not depend on which other points share the run
or on the worker count.  Only per-point statistics outlive a chunk.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import _kernels
from .channel import FadingParams, gamma_variates
from .errors import ConfigurationError, NumericError, SweepPointError
from .rate import AsrResult, pair_indices
from .signal import ImpairmentProfile, NetworkConfig

__all__ = [
    "TrialConfig",
    "SweepPoint",
    "CHUNK_TRIALS",
    "derive_trial_stream",
    "simulate_sweep",
    "simulate_asr",
]

# trials per counter-based stream; fixed so that chunk boundaries (and
# therefore accumulation order) never depend on the worker count
CHUNK_TRIALS = 8192

_SEED_MAX = 2**64


@dataclass(frozen=True)
class TrialConfig:
    """Monte Carlo run size, seed and parallelism hint."""

    trials: int
    seed: int
    workers: int = 1

    def __post_init__(self):
        if not isinstance(self.trials, int) or self.trials < 1:
            raise ConfigurationError(f"trials must be an integer >= 1, got {self.trials!r}")
        if not isinstance(self.seed, int) or not 0 <= self.seed < _SEED_MAX:
            raise ConfigurationError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not isinstance(self.workers, int) or self.workers < 1:
            raise ConfigurationError(f"workers must be an integer >= 1, got {self.workers!r}")


def derive_trial_stream(seed: int, trial_index: int) -> Generator:
    """Deterministic per-trial stream: a pure function of (seed, trial_index).

    Streams occupy disjoint counter ranges (2^128 blocks each) in the top
    half of the Philox counter space, away from the chunk streams used by
    ``simulate_sweep``, so indices never collide across uses.
    """
    if not 0 <= seed < _SEED_MAX:
        raise ConfigurationError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
    if trial_index < 0:
        raise ValueError(f"trial_index must be >= 0, got {trial_index}")
    counter = (1 << 255) | (trial_index << 128)
    return Generator(Philox(key=seed, counter=counter))


def _chunk_stream(seed: int, chunk_index: int) -> Generator:
    return Generator(Philox(key=seed, counter=chunk_index << 128))


def _sample_rho_chunk(
    fading: FadingParams, n_users: int, seed: int, chunk_index: int, count: int
) -> np.ndarray:
    """Sorted Gamma gains, before path loss, for `count` trials of one chunk.

    Each trial consumes exactly M * alpha uniforms laid out contiguously,
    so a shorter final chunk reproduces the same per-trial variates.
    """
    h = gamma_variates(
        fading.alpha, fading.beta, (count, n_users), _chunk_stream(seed, chunk_index)
    )
    h.sort(axis=1)
    return h


def _chunk_stats(rates: np.ndarray):
    """Two-pass mean and sum of squared deviations, per pair and for the
    per-trial totals."""
    n = rates.shape[0]
    mean = rates.mean(axis=0)
    m2 = ((rates - mean) ** 2).sum(axis=0)
    totals = rates.sum(axis=1)
    t_mean = totals.mean()
    t_m2 = float(((totals - t_mean) ** 2).sum())
    return n, mean, m2, float(t_mean), t_m2


def _merge_stats(left, right):
    """Combine two disjoint-sample statistics (parallel Welford merge)."""
    n1, mu1, m21, t1, tm21 = left
    n2, mu2, m22, t2, tm22 = right
    n = n1 + n2
    delta = mu2 - mu1
    mu = mu1 + delta * (n2 / n)
    m2 = m21 + m22 + delta**2 * (n1 * n2 / n)
    tdelta = t2 - t1
    t = t1 + tdelta * (n2 / n)
    tm2 = tm21 + tm22 + tdelta**2 * (n1 * n2 / n)
    return n, mu, m2, t, tm2


@dataclass(frozen=True)
class SweepPoint:
    """One operating point of a Monte Carlo sweep.

    cfg: user count, power split and SNR.  fading: fading law and the
    per-position path loss.  imp: distortion profile.  prefactor: time
    share of each pair rate (1/2 for the two-slot exchange).
    """

    cfg: NetworkConfig
    fading: FadingParams
    imp: ImpairmentProfile
    prefactor: float = 0.5


def _sweep_plan(points):
    """Group the points by path-loss vector, then by kernel arguments.

    Points in one path-loss group share the scaled gains and their
    aggregates; points in one kernel group (they differ only in the
    prefactor) share the kernel call.
    """
    groups: dict = {}
    for i, p in enumerate(points):
        try:
            factors = p.fading.path_loss_factors()
        except NumericError as exc:
            raise SweepPointError(i, str(exc)) from exc
        imp = p.imp
        args = (
            1.0 / p.cfg.r1,
            1.0 / p.cfg.r2,
            imp.kappa_ut**2,
            imp.kappa_ur**2,
            imp.kappa_rt**2,
            imp.kappa_rr**2,
        )
        kernels = groups.setdefault(factors.tobytes(), (factors, {}))[1]
        # kernel output carries the 1/2 prefactor
        kernels.setdefault(args, []).append((i, p.prefactor / 0.5))
    return list(groups.values())


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


def _result(M: int, stats) -> AsrResult:
    n, mean, m2, t_mean, t_m2 = stats
    per_pair = np.zeros((M, M - 1))
    per_pair_stderr = np.zeros((M, M - 1))
    pair_se = np.sqrt(m2 / (n * max(n - 1, 1)))
    for p, (k, nn) in enumerate(pair_indices(M)):
        per_pair[k - 1, nn - 1] = mean[p]
        per_pair_stderr[k - 1, nn - 1] = pair_se[p]
    total_se = math.sqrt(t_m2 / (n * max(n - 1, 1)))
    return AsrResult(
        per_pair=per_pair,
        total=t_mean,
        provenance="monte-carlo",
        stderr=total_se,
        per_pair_stderr=per_pair_stderr,
        trials=n,
    )


def simulate_sweep(points: Sequence[SweepPoint], tc: TrialConfig) -> list[AsrResult]:
    """Monte Carlo sum rate at every point, all from one draw of the gains.

    Chunk outer, point inner: each chunk samples and sorts its gains once,
    then every point scales them by its path loss, evaluates the kernel
    at its (r1, distortion profile) and prefactor, and reduces to chunk
    statistics.  Each point's statistics merge in chunk order, so every
    result is bit-identical to a one-point run and to any worker count.

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
    n_chunks = (tc.trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS

    def run_chunk(chunk_index: int):
        """Per-point chunk statistics, or the first bad trial of a point."""
        start = chunk_index * CHUNK_TRIALS
        count = min(CHUNK_TRIALS, tc.trials - start)
        h = _sample_rho_chunk(first.fading, M, tc.seed, chunk_index, count)
        out: list = [None] * len(points)
        for factors, kernels in plan:
            rho = h * factors
            aggregates = _kernels.weighted_sums(rho, a)
            for args, members in kernels.items():
                base = _kernels.pair_rate_chunk(rho, a, *args, aggregates=aggregates)
                for i, scale in members:
                    rates = base * scale if scale != 1.0 else base
                    if np.all(np.isfinite(rates)):
                        out[i] = _chunk_stats(rates)
                    else:
                        out[i] = start + int(np.argwhere(~np.isfinite(rates))[0][0])
        return out

    if tc.workers == 1 or n_chunks == 1:
        stats, bad_trial = _merge_parts(map(run_chunk, range(n_chunks)), len(points))
    else:
        with ThreadPoolExecutor(max_workers=tc.workers) as pool:
            stats, bad_trial = _merge_parts(pool.map(run_chunk, range(n_chunks)), len(points))
    for i, trial in enumerate(bad_trial):
        if trial is not None:
            raise SweepPointError(i, f"non-finite rate in trial {trial}", trial)
    return [_result(M, s) for s in stats]


def simulate_asr(
    cfg: NetworkConfig,
    fading: FadingParams,
    imp: ImpairmentProfile,
    tc: TrialConfig,
    prefactor: float = 0.5,
) -> AsrResult:
    """Monte Carlo sum rate: average of per-pair prefactor * log2(1 + SINR).

    A one-point ``simulate_sweep``; bit-identical output for identical
    (seed, trials) at any worker count.
    """
    return simulate_sweep([SweepPoint(cfg, fading, imp, prefactor)], tc)[0]

