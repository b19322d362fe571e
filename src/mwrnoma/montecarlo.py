"""Seeded Monte Carlo estimator for the achievable sum rate.

Reproducibility contract: results are a pure function of (seed, trials)
regardless of worker count.  Trials are grouped into fixed-size chunks;
chunk c draws its uniforms from a counter-based stream
Philox(key=seed, counter=c << 128), so every trial's variates depend only
on the seed and its own index, any partition of chunks across threads
yields the same numbers, and partial accumulators are merged in chunk
order.  ``derive_trial_stream`` exposes single-trial streams from a
disjoint counter range for callers that need per-trial granularity.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import _kernels
from .channel import FadingParams
from .errors import ConfigurationError, NumericError
from .rate import AsrResult, pair_indices
from .signal import ImpairmentProfile, NetworkConfig

__all__ = [
    "TrialConfig",
    "McEstimate",
    "CHUNK_TRIALS",
    "derive_trial_stream",
    "simulate_asr",
    "mc_estimate",
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


@dataclass(frozen=True)
class McEstimate:
    """Mean estimate with its standard error."""

    mean: float
    stderr: float
    trials: int

    def __post_init__(self):
        if self.stderr < 0:
            raise ConfigurationError("stderr must be >= 0")
        if self.trials < 1:
            raise ConfigurationError("trials must be >= 1")


def derive_trial_stream(seed: int, trial_index: int) -> Generator:
    """Deterministic per-trial stream: a pure function of (seed, trial_index).

    Streams occupy disjoint counter ranges (2^128 blocks each) in the top
    half of the Philox counter space, away from the chunk streams used by
    ``simulate_asr``, so indices never collide across uses.
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
    """Sorted, path-loss-scaled gains for `count` trials of one chunk.

    Each trial consumes exactly M * alpha uniforms laid out contiguously,
    so a shorter final chunk reproduces the same per-trial variates.
    """
    gen = _chunk_stream(seed, chunk_index)
    u = gen.random((count, n_users, fading.alpha))
    h = -fading.beta * np.log1p(-u).sum(axis=2)
    h.sort(axis=1)
    return h * fading.path_loss_factors()


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


def simulate_asr(
    cfg: NetworkConfig,
    fading: FadingParams,
    imp: ImpairmentProfile,
    tc: TrialConfig,
    prefactor: float = 0.5,
) -> AsrResult:
    """Monte Carlo sum rate: average of per-pair prefactor * log2(1 + SINR).

    Bit-identical output for identical (seed, trials) at any worker count.
    """
    M = cfg.n_users
    if fading.n_users != M:
        raise ConfigurationError(
            f"fading covers {fading.n_users} users, config expects {M}"
        )
    a = np.asarray(cfg.a, dtype=np.float64)
    kappas = (
        imp.kappa_ut**2,
        imp.kappa_ur**2,
        imp.kappa_rt**2,
        imp.kappa_rr**2,
    )
    inv_r1, inv_r2 = 1.0 / cfg.r1, 1.0 / cfg.r2
    rate_scale = prefactor / 0.5  # kernel output carries the 1/2 prefactor

    n_chunks = (tc.trials + CHUNK_TRIALS - 1) // CHUNK_TRIALS

    def run_chunk(chunk_index: int):
        start = chunk_index * CHUNK_TRIALS
        count = min(CHUNK_TRIALS, tc.trials - start)
        rho = _sample_rho_chunk(fading, M, tc.seed, chunk_index, count)
        rates = _kernels.pair_rate_chunk(rho, a, inv_r1, inv_r2, *kappas)
        if rate_scale != 1.0:
            rates = rates * rate_scale
        if not np.all(np.isfinite(rates)):
            bad = int(np.argwhere(~np.isfinite(rates))[0][0])
            raise NumericError(f"non-finite rate in trial {start + bad}")
        return _chunk_stats(rates)

    if tc.workers == 1 or n_chunks == 1:
        partials = [run_chunk(c) for c in range(n_chunks)]
    else:
        with ThreadPoolExecutor(max_workers=tc.workers) as pool:
            partials = list(pool.map(run_chunk, range(n_chunks)))

    stats = partials[0]
    for part in partials[1:]:
        stats = _merge_stats(stats, part)
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


def mc_estimate(result: AsrResult) -> McEstimate:
    """Total-rate estimate of a Monte Carlo result."""
    if result.provenance != "monte-carlo" or result.stderr is None or result.trials is None:
        raise ValueError("mc_estimate needs a monte-carlo AsrResult")
    return McEstimate(mean=result.total, stderr=result.stderr, trials=result.trials)
