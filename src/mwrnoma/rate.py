"""Closed-form achievable-rate machinery.

Per-pair rates replace the expectation of 1/2 log2(1 + SINR) by the rate
of the moment-substituted SINR (each ordered gain replaced by its mean
psi), which collapses the ergodic rate to an algebraic expression in the
order-statistic moments.  That is the Monte Carlo pair-rate kernel
evaluated on one row of psi per operating point or placement site; the
high-SNR per-pair asymptotes are the same kernel at 1/r1 = 1/r2 = 0.
Distortion enters only through the impairment profile: the ideal
transceiver is the all-zero profile, which is the default.  Slope and
power-offset diagnostics are estimated numerically from sampled sum-rate
curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .channel import OrderStatMoments
from .errors import ConfigurationError
from .signal import ImpairmentProfile, NetworkConfig

__all__ = [
    "AsrResult",
    "SLOPE_FLOOR",
    "asr",
    "asr_rows",
    "asr_asymptotic",
    "high_snr_slope",
    "high_snr_offset",
    "pair_indices",
]

# below this many bits/s/Hz per 3 dB the numerical slope is treated as zero
SLOPE_FLOOR = 0.05


@dataclass(frozen=True, eq=False)
class AsrResult:
    """Per-pair rate matrix and its sum.

    per_pair[k-1, n-1] holds the rate of decoder k for user n
    (zero whenever n >= k); total is the sum over all pairs.
    """

    per_pair: np.ndarray
    total: float
    provenance: str
    stderr: float | None = None
    per_pair_stderr: np.ndarray | None = None
    trials: int | None = None
    finite_total: float | None = None
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


def pair_indices(n_users: int) -> list[tuple[int, int]]:
    """Decodable (k, n) pairs, 1-based, in canonical (k, then n) order."""
    return [(k, n) for k in range(2, n_users + 1) for n in range(1, k)]


def _closed_form_pairs(
    psi: np.ndarray,
    cfg: NetworkConfig,
    imp: ImpairmentProfile,
    prefactor: float,
    inv_r1: float,
    inv_r2: float,
) -> np.ndarray:
    """Per-pair matrices (rows, M, M-1) of the shared pair-rate kernel,
    evaluated at each row of psi in one call."""
    if psi.shape[1] != cfg.n_users:
        raise ConfigurationError(
            f"moments cover {psi.shape[1]} users, config expects {cfg.n_users}"
        )
    rates = _kernels.pair_rate_chunk(
        psi,
        cfg.a,
        inv_r1,
        inv_r2,
        imp.kappa_ut**2,
        imp.kappa_ur**2,
        imp.kappa_rt**2,
        imp.kappa_rr**2,
    )
    if prefactor != 0.5:  # kernel output carries the 1/2 prefactor
        rates = rates * (prefactor / 0.5)
    M = cfg.n_users
    k, n = zip(*pair_indices(M))
    per_pair = np.zeros((psi.shape[0], M, M - 1))
    per_pair[:, np.array(k) - 1, np.array(n) - 1] = rates
    return per_pair


def asr_rows(
    psi: np.ndarray,
    cfg: NetworkConfig,
    imp: ImpairmentProfile = ImpairmentProfile(),
    prefactor: float = 0.5,
):
    """Closed-form sum rate at every row of order-statistic means.

    psi is (rows, M); a relay-placement surface passes one row per site
    and ``asr`` is the one-row case.  Returns ``(per_pair, totals, fault)``:
    per_pair is (rows, M, M-1) and each total is the sum of its matrix.
    ``fault`` is None when every row is an acceptable ``AsrResult``.
    Otherwise it is ``(row, error)`` for the first row that is not, and
    per_pair and totals cover only the rows before it.
    """
    per_pair = _closed_form_pairs(
        np.asarray(psi, dtype=np.float64), cfg, imp, prefactor, 1.0 / cfg.r1, 1.0 / cfg.r2
    )
    rows, M, _ = per_pair.shape
    flat = per_pair.reshape(rows, M * (M - 1))
    totals = flat.sum(axis=1)
    # the rows AsrResult rejects: a non-finite or negative rate or total
    bad = ~(np.isfinite(flat).all(axis=1) & (flat >= 0).all(axis=1) & np.isfinite(totals))
    if not bad.any():
        return per_pair, totals, None
    row = int(bad.argmax())
    error = _result_error(per_pair[row], float(totals[row]), "analytical")
    return per_pair[:row], totals[:row], (row, ConfigurationError(error))


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
    per_pair, totals, fault = asr_rows(moments.psi[None, :], cfg, imp, prefactor)
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
    per-pair entries are +inf, the total is flagged divergent, and
    ``finite_total`` carries the sum over the bounded pairs.
    """
    with np.errstate(divide="ignore"):
        per_pair = _closed_form_pairs(
            moments.psi[None, :], cfg, imp, prefactor, 0.0, 0.0
        )[0]
    notes = tuple(
        f"pair (k={k}, n={n}) has no interference ceiling: asymptote diverges"
        for k, n in pair_indices(cfg.n_users)
        if math.isinf(per_pair[k - 1, n - 1])
    )
    return AsrResult(
        per_pair=per_pair,
        total=float(per_pair.sum()),
        provenance="asymptotic",
        finite_total=float(per_pair[np.isfinite(per_pair)].sum()),
        notes=notes,
    )


def _check_curve(r1_grid, asr_values) -> tuple[np.ndarray, np.ndarray]:
    r = np.asarray(r1_grid, dtype=np.float64)
    y = np.asarray(asr_values, dtype=np.float64)
    if r.shape != y.shape or r.ndim != 1:
        raise ValueError("r1 grid and rate samples must be 1-D and equally long")
    if r.size < 3:
        raise ValueError(f"need at least 3 samples, got {r.size}")
    if np.any(np.diff(r) <= 0):
        raise ValueError("r1 grid must be strictly increasing")
    span_db = 10.0 * math.log10(r[-1] / r[0])
    if span_db < 20.0:
        raise ValueError(f"samples must span >= 20 dB, got {span_db:.1f} dB")
    return r, y


def high_snr_slope(r1_grid, asr_values) -> float:
    """Secant estimate of lim rate / log2(r1) from the top of a sampled curve."""
    r, y = _check_curve(r1_grid, asr_values)
    return float((y[-1] - y[-2]) / (math.log2(r[-1]) - math.log2(r[-2])))


def high_snr_offset(r1_grid, asr_values, slope: float) -> float:
    """Power-offset estimate, in 3 dB units (log2 of SNR).

    When the slope estimate sits below ``SLOPE_FLOOR`` the offset diverges
    and +inf is returned.
    """
    r, y = _check_curve(r1_grid, asr_values)
    if abs(slope) < SLOPE_FLOOR:
        return math.inf
    return float(math.log2(r[-1]) - y[-1] / slope)
