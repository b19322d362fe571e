"""Closed-form achievable-rate machinery.

The closed form replaces the expectation of 1/2 log2(1 + SINR) by the
rate of the moment-substituted SINR (each ordered gain replaced by its
mean psi), which collapses the ergodic rate to an algebraic expression in
the order-statistic moments.  That is the Monte Carlo kernel evaluated on
one row of psi per operating point or placement site; the high-SNR
asymptotes are the same kernel at 1/r1 = 1/r2 = 0.  The kernel gives one
rate per decoder, the sum of its successive-decoding pair rates, which
telescope to one logarithm per decoder; ``_kernels.decoder_totals`` takes
a row's total as one logarithm of the decoders' product, and ``asr``
takes its total from the same call on its one row, so the total has the
same bits in ``asr`` and in any batch of ``asr_rows``.
``asr_rows`` gives unit-share totals, which the two sweep drivers scale
once per scheme; the one-point functions multiply their own result by
their prefactor.  Distortion enters only through the impairment profile:
the ideal transceiver is the all-zero profile, which is the default.  The
affine high-SNR expansion ASR ~ S (log2 r1 - L), in terms of the high-SNR
slope S and the power offset L, follows in closed form from those limits."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .channel import OrderStatMoments
from .errors import ConfigurationError
from .signal import ImpairmentProfile, NetworkConfig

__all__ = [
    "AsrResult",
    "asr",
    "asr_rows",
    "asr_asymptotic",
    "asr_affine",
]


@dataclass(frozen=True, eq=False)
class AsrResult:
    """Per-decoder rates and their sum.

    per_decoder[k-2] holds the rate of decoder k = 2..M: the sum of its
    successive-decoding pair rates, users 1..k-1.  total is the sum over
    all decoders.  A Monte Carlo result carries no per-decoder rates
    (None), only its total, the total's standard error and its trial
    count.
    """

    per_decoder: np.ndarray | None
    total: float
    provenance: str
    stderr: float | None = None
    trials: int | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if self.provenance not in ("analytical", "monte-carlo", "asymptotic"):
            raise ConfigurationError(f"unknown provenance {self.provenance!r}")
        rates = () if self.per_decoder is None else np.asarray(self.per_decoder, dtype=np.float64)
        if self.per_decoder is not None:
            object.__setattr__(self, "per_decoder", rates)
        total = self.total
        # NaN fails every comparison below, so reject it here; +inf only
        # marks a divergent decoder of an asymptote
        if not (np.isfinite(rates).all() and math.isfinite(total)):
            if self.provenance != "asymptotic" or np.isnan(rates).any() or math.isnan(total):
                error = f"{self.provenance} rates must be finite, got total {total!r}"
                raise ConfigurationError(error)
        if self.per_decoder is None:
            return
        if np.any(rates < 0):
            raise ConfigurationError("per-decoder rates must be >= 0")
        s = _total(rates)
        if math.isinf(s) or math.isinf(total):
            if s != total:
                raise ConfigurationError("total does not match per-decoder sum")
        elif abs(s - total) > 1e-9 * max(1.0, abs(s)):
            raise ConfigurationError(f"total {total!r} does not match per-decoder sum {s!r}")


def _total(rates: np.ndarray) -> float:
    """The total of one row of decoder rates, added left to right
    (``_kernels.rate_sum``)."""
    return float(_kernels.rate_sum(rates))


def _kernel_args(psi: np.ndarray, a, args) -> np.ndarray:
    """args (``_kernels.kernel_args``, one tuple for all rows or one per
    row) as the kernel's five arguments, each a scalar or a column."""
    if psi.shape[1] != len(a):
        raise ConfigurationError(f"moments cover {psi.shape[1]} users, config expects {len(a)}")
    return np.asarray(args, dtype=np.float64).T


def asr_rows(psi: np.ndarray, a, args):
    """Closed-form unit-share sum rate at every row of order-statistic means.

    psi is (rows, M) and a the power split.  args is
    ``_kernels.kernel_args(cfg, imp)``: one tuple for every row, as for a
    relay-placement surface (one row per site), or a (rows, 5) sequence,
    one per row, as for an SNR or distortion sweep.  Returns
    ``(totals, fault)``: each total is its row's ``_kernels.decoder_totals``
    total, the bits of ``asr`` at prefactor 1.0; a scheme's total is it
    times the scheme's share.  ``fault`` is None when every total is
    finite.  Otherwise it is ``(row, error)`` for the first row whose
    total is not, and totals cover only the rows before it.
    """
    psi = np.asarray(psi, dtype=np.float64)
    totals = np.empty(psi.shape[0])
    work = np.empty((psi.shape[0], 2), order="F")
    with np.errstate(over="ignore", divide="ignore"):
        total = _kernels.decoder_totals(
            psi, a, *_kernel_args(psi, a, args), out=totals, work=work
        )
    if math.isfinite(total):
        return totals, None
    row = int(np.argmin(np.isfinite(totals)))
    error = f"analytical rates must be finite, got total {float(totals[row])!r}"
    return totals[:row], (row, ConfigurationError(error))


def _one_row(moments: OrderStatMoments, cfg: NetworkConfig, args, prefactor, provenance):
    """The ``AsrResult`` of one kernel evaluation at one row of means: its
    unit-share decoder rates and the row's ``_kernels.decoder_totals``
    total, the bits of its ``asr_rows`` row, each times prefactor."""
    psi = moments.psi[None, :]
    kernel_args = _kernel_args(psi, cfg.a, args)
    rates = _kernels.pair_rate_chunk(psi, cfg.a, *kernel_args)[0]
    total = np.empty(1)
    with np.errstate(over="ignore", divide="ignore"):
        _kernels.decoder_totals(
            psi, cfg.a, *kernel_args, out=total, work=np.empty((1, 2), order="F")
        )
    return AsrResult(
        per_decoder=rates * prefactor,
        total=float(total[0]) * prefactor,
        provenance=provenance,
    )


def asr(
    moments: OrderStatMoments,
    cfg: NetworkConfig,
    imp: ImpairmentProfile = ImpairmentProfile(),
    prefactor: float = 0.5,
) -> AsrResult:
    """Achievable sum rate: per-decoder rates plus the total.

    The default profile is distortion-free; the default 1/2 prefactor
    charges the two-slot exchange.
    """
    return _one_row(moments, cfg, _kernels.kernel_args(cfg, imp), prefactor, "analytical")


def asr_asymptotic(
    moments: OrderStatMoments,
    cfg: NetworkConfig,
    imp: ImpairmentProfile = ImpairmentProfile(),
    prefactor: float = 0.5,
) -> AsrResult:
    """High-SNR limit of the sum rate (r1 -> infinity with r2 = c r1).

    A decoder whose limiting denominator is empty (decoder M without
    distortion) has no ceiling: its entry is +inf and the total is
    flagged divergent.
    """
    args = (0.0, 0.0, *_kernels.distortion_terms(imp))
    limit = _one_row(moments, cfg, args, prefactor, "asymptotic")
    notes = tuple(
        f"decoder k={k} has no interference ceiling: asymptote diverges"
        for k, rate in enumerate(limit.per_decoder, start=2)
        if math.isinf(rate)
    )
    return replace(limit, notes=notes)


def asr_affine(
    moments: OrderStatMoments,
    cfg: NetworkConfig,
    imp: ImpairmentProfile = ImpairmentProfile(),
    prefactor: float = 0.5,
) -> tuple[float, float, float]:
    """High-SNR slope, power offset (3 dB units) and ceiling of the sum rate.

    The affine expansion ASR ~ slope * (log2 r1 - offset) as r1 -> infinity
    with r2 = c r1.  Any distortion bounds every decoder: the slope is 0,
    the offset +inf and the ceiling is the ``asr_asymptotic`` total.
    Without it, only decoder M diverges, its telescoped SINR growing as
    r1 * ``_kernels.divergent_decoder_gain``: the slope is the prefactor,
    the offset absorbs the other decoders' limits and the ceiling is +inf.
    """
    limit = asr_asymptotic(moments, cfg, imp, 1.0)
    if math.isfinite(limit.total):
        return 0.0, math.inf, limit.total * prefactor
    bounded = _total(limit.per_decoder[np.isfinite(limit.per_decoder)])
    gain = _kernels.divergent_decoder_gain(moments.psi[None, :], cfg.a, cfg.c)[0]
    return prefactor, -(bounded + math.log2(gain)), math.inf
