"""Closed-form achievable-rate machinery.

Per-pair rates replace the expectation of 1/2 log2(1 + SINR) by the rate
of the moment-substituted SINR (each ordered gain replaced by its mean
psi), which collapses the ergodic rate to an algebraic expression in the
order-statistic moments.  That is the Monte Carlo pair-rate kernel
evaluated on one row of psi per operating point or placement site; the
high-SNR per-pair asymptotes are the same kernel at 1/r1 = 1/r2 = 0.
Distortion enters only through the impairment profile: the ideal
transceiver is the all-zero profile, which is the default.  The affine
high-SNR expansion ASR ~ S (log2 r1 - L), in terms of the high-SNR slope
S and the power offset L, follows in closed form from those limits."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from ._kernels import pair_indices
from .channel import OrderStatMoments
from .errors import ConfigurationError
from .signal import ImpairmentProfile, NetworkConfig

__all__ = [
    "AsrResult",
    "asr",
    "asr_rows",
    "asr_asymptotic",
    "asr_affine",
    "pair_indices",
]


@dataclass(frozen=True, eq=False)
class AsrResult:
    """Per-pair rate matrix and its sum.

    per_pair[k-1, n-1] holds the rate of decoder k for user n
    (zero whenever n >= k); total is the sum over all pairs.  A Monte
    Carlo result also carries the standard error of its total and its
    trial count.
    """

    per_pair: np.ndarray
    total: float
    provenance: str
    stderr: float | None = None
    trials: int | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        per_pair = np.asarray(self.per_pair, dtype=np.float64)
        object.__setattr__(self, "per_pair", per_pair)
        if self.provenance not in ("analytical", "monte-carlo", "asymptotic"):
            raise ConfigurationError(f"unknown provenance {self.provenance!r}")
        error = _result_error(per_pair, self.total, self.provenance)
        if error is not None:
            raise ConfigurationError(error)

    @property
    def n_users(self) -> int:
        return self.per_pair.shape[0]


def _result_error(per_pair: np.ndarray, total: float, provenance: str) -> str | None:
    """Why a per-pair matrix and total are not a valid result, or None."""
    # NaN fails every comparison below, so reject it here; +inf only
    # marks a divergent pair of an asymptote
    if not (np.isfinite(per_pair).all() and math.isfinite(total)):
        if provenance != "asymptotic" or np.isnan(per_pair).any() or math.isnan(total):
            return f"{provenance} rates must be finite, got total {total!r}"
    if np.any(per_pair < 0):
        return "per-pair rates must be >= 0"
    s = float(per_pair.sum())
    if math.isinf(s) or math.isinf(total):
        if s != total:
            return "total does not match per-pair sum"
    elif abs(s - total) > 1e-9 * max(1.0, abs(s)):
        return f"total {total!r} does not match per-pair sum {s!r}"
    return None


def _pair_rates(psi: np.ndarray, a, args) -> np.ndarray:
    """Kernel step of the closed form: the 1/2-prefactored rate of every
    pair at each row of psi, (rows, pairs) in ``pair_indices`` order.

    args: ``_kernels.kernel_args``, one tuple for all rows or one per row.
    """
    if psi.shape[1] != len(a):
        raise ConfigurationError(f"moments cover {psi.shape[1]} users, config expects {len(a)}")
    return _kernels.pair_rate_chunk(psi, a, *np.asarray(args, dtype=np.float64).T)


def _per_pair(rates: np.ndarray, M: int, prefactor) -> np.ndarray:
    """Per-pair matrices (rows, M, M-1) of ``_pair_rates`` output, scaled to
    the prefactor (one for all rows or one per row); rates is left as it
    is, so several prefactors may share it."""
    # kernel output carries the 1/2 prefactor
    scale = np.asarray(prefactor, dtype=np.float64) / 0.5
    if (scale != 1.0).any():
        rates = rates * scale.reshape(-1, 1)
    k, n = zip(*pair_indices(M))
    per_pair = np.zeros((rates.shape[0], M, M - 1))
    per_pair[:, np.array(k) - 1, np.array(n) - 1] = rates
    return per_pair


def _finish_rows(rates: np.ndarray, M: int, prefactor):
    """Finishing step of ``asr_rows``: its ``(per_pair, totals, fault)``
    from the shared ``_pair_rates`` output."""
    per_pair = _per_pair(rates, M, prefactor)
    rows = per_pair.shape[0]
    flat = per_pair.reshape(rows, M * (M - 1))
    totals = flat.sum(axis=1)
    # the rows AsrResult rejects: a non-finite or negative rate or total
    bad = ~(np.isfinite(flat).all(axis=1) & (flat >= 0).all(axis=1) & np.isfinite(totals))
    if not bad.any():
        return per_pair, totals, None
    row = int(bad.argmax())
    error = _result_error(per_pair[row], float(totals[row]), "analytical")
    return per_pair[:row], totals[:row], (row, ConfigurationError(error))


def asr_rows(psi: np.ndarray, a, args, prefactor=0.5):
    """Closed-form sum rate at every row of order-statistic means.

    psi is (rows, M) and a the power split.  args is
    ``_kernels.kernel_args(cfg, imp)``: one tuple for every row, as for a
    relay-placement surface (one row per site), or a (rows, 5) sequence,
    one per row, as for an SNR or distortion sweep.  prefactor is one
    scheme share for every row or one per row.  ``asr`` is the one-row
    case.  Returns ``(per_pair, totals, fault)``: per_pair is (rows, M,
    M-1) and each total is the sum of its matrix.  ``fault`` is None when
    every row is an acceptable ``AsrResult``.  Otherwise it is ``(row,
    error)`` for the first row that is not, and per_pair and totals cover
    only the rows before it.
    """
    rates = _pair_rates(np.asarray(psi, dtype=np.float64), a, args)
    return _finish_rows(rates, len(a), prefactor)


def asr(
    moments: OrderStatMoments,
    cfg: NetworkConfig,
    imp: ImpairmentProfile = ImpairmentProfile(),
    prefactor: float = 0.5,
) -> AsrResult:
    """Achievable sum rate: per-pair matrix plus the total.

    The default profile is distortion-free; the default 1/2 prefactor
    charges the two-slot exchange.
    """
    args = _kernels.kernel_args(cfg, imp)
    per_pair, totals, fault = asr_rows(moments.psi[None, :], cfg.a, args, prefactor)
    if fault is not None:
        raise fault[1]
    return AsrResult(per_pair=per_pair[0], total=float(totals[0]), provenance="analytical")


def asr_asymptotic(
    moments: OrderStatMoments,
    cfg: NetworkConfig,
    imp: ImpairmentProfile = ImpairmentProfile(),
    prefactor: float = 0.5,
) -> AsrResult:
    """High-SNR limit of the sum rate (r1 -> infinity with r2 = c r1).

    Pairs whose limiting denominator is empty have no ceiling: those
    per-pair entries are +inf and the total is flagged divergent.
    """
    with np.errstate(divide="ignore"):
        args = (0.0, 0.0, *_kernels.distortion_terms(imp))
        rates = _pair_rates(moments.psi[None, :], cfg.a, args)
        per_pair = _per_pair(rates, cfg.n_users, prefactor)[0]
    notes = tuple(
        f"pair (k={k}, n={n}) has no interference ceiling: asymptote diverges"
        for k, n in pair_indices(cfg.n_users)
        if math.isinf(per_pair[k - 1, n - 1])
    )
    return AsrResult(
        per_pair=per_pair,
        total=float(per_pair.sum()),
        provenance="asymptotic",
        notes=notes,
    )


def asr_affine(
    moments: OrderStatMoments,
    cfg: NetworkConfig,
    imp: ImpairmentProfile = ImpairmentProfile(),
    prefactor: float = 0.5,
) -> tuple[float, float, float]:
    """High-SNR slope, power offset (3 dB units) and ceiling of the sum rate.

    The affine expansion ASR ~ slope * (log2 r1 - offset) as r1 -> infinity
    with r2 = c r1.  Any distortion bounds every pair: the slope is 0, the
    offset +inf and the ceiling is the ``asr_asymptotic`` total.  Without
    it, only pair (k=M, n=M-1) diverges, its SINR growing as
    r1 * ``_kernels.divergent_pair_gain``: the slope is the prefactor, the
    offset absorbs the bounded pairs' limits and the ceiling is +inf.
    """
    limit = asr_asymptotic(moments, cfg, imp, prefactor)
    if math.isfinite(limit.total):
        return 0.0, math.inf, limit.total
    bounded = float(limit.per_pair[np.isfinite(limit.per_pair)].sum())
    gain = _kernels.divergent_pair_gain(moments.psi[None, :], cfg.a, cfg.c)[0]
    return prefactor, -(bounded + prefactor * math.log2(gain)) / prefactor, math.inf
