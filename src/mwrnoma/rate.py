"""Closed-form achievable-rate machinery.

The closed form replaces the expectation of 1/2 log2(1 + SINR) by the
rate of the moment-substituted SINR (each ordered gain replaced by its
mean psi), which collapses the ergodic rate to an algebraic expression in
the order-statistic moments.  That is the Monte Carlo kernel evaluated on
one row of psi per operating point or placement site; the high-SNR
asymptotes are the same kernel at 1/r1 = 1/r2 = 0.  The kernel gives one
rate per decoder, the sum of its successive-decoding pair rates, which
telescope to one logarithm per decoder.  Distortion enters only through
the impairment profile: the ideal transceiver is the all-zero profile,
which is the default.  The affine high-SNR expansion
ASR ~ S (log2 r1 - L), in terms of the high-SNR slope S and the power
offset L, follows in closed form from those limits."""

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
    all decoders.  A Monte Carlo result also carries the standard error
    of its total and its trial count.
    """

    per_decoder: np.ndarray
    total: float
    provenance: str
    stderr: float | None = None
    trials: int | None = None
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        per_decoder = np.asarray(self.per_decoder, dtype=np.float64)
        object.__setattr__(self, "per_decoder", per_decoder)
        if self.provenance not in ("analytical", "monte-carlo", "asymptotic"):
            raise ConfigurationError(f"unknown provenance {self.provenance!r}")
        error = _result_error(per_decoder, self.total, self.provenance)
        if error is not None:
            raise ConfigurationError(error)

    @property
    def n_users(self) -> int:
        return self.per_decoder.shape[0] + 1


def _result_error(per_decoder: np.ndarray, total: float, provenance: str) -> str | None:
    """Why per-decoder rates and a total are not a valid result, or None."""
    # NaN fails every comparison below, so reject it here; +inf only
    # marks a divergent decoder of an asymptote
    if not (np.isfinite(per_decoder).all() and math.isfinite(total)):
        if provenance != "asymptotic" or np.isnan(per_decoder).any() or math.isnan(total):
            return f"{provenance} rates must be finite, got total {total!r}"
    if np.any(per_decoder < 0):
        return "per-decoder rates must be >= 0"
    s = float(per_decoder.sum())
    if math.isinf(s) or math.isinf(total):
        if s != total:
            return "total does not match per-decoder sum"
    elif abs(s - total) > 1e-9 * max(1.0, abs(s)):
        return f"total {total!r} does not match per-decoder sum {s!r}"
    return None


def _decoder_rates(psi: np.ndarray, a, args) -> np.ndarray:
    """Kernel step of the closed form: the unit-share rate of every
    decoder at each row of psi, (rows, M-1), decoder k in column k-2.

    args: ``_kernels.kernel_args``, one tuple for all rows or one per row.
    """
    if psi.shape[1] != len(a):
        raise ConfigurationError(f"moments cover {psi.shape[1]} users, config expects {len(a)}")
    return _kernels.pair_rate_chunk(psi, a, *np.asarray(args, dtype=np.float64).T)


def _time_share(prefactor, values):
    """Finished unit-share numbers (rates, totals, standard errors) scaled
    to the time share ``prefactor``, one for all or one per row (the first
    axis of ``values``): the one place a share enters a result."""
    scale = np.asarray(prefactor, dtype=np.float64)
    return values * scale.reshape(scale.shape + (1,) * (np.ndim(values) - scale.ndim))


def _finish_rows(rates: np.ndarray, prefactor):
    """Finishing step of ``asr_rows``: its ``(per_decoder, totals, fault)``
    from the ``_decoder_rates`` output, each total the sum of the
    unit-share rates, scaled to the time share ``prefactor``."""
    per_decoder = _time_share(prefactor, rates)
    totals = _time_share(prefactor, rates.sum(axis=1))
    # the rows AsrResult rejects: a non-finite or negative rate or total
    bad = ~(
        np.isfinite(per_decoder).all(axis=1)
        & (per_decoder >= 0).all(axis=1)
        & np.isfinite(totals)
    )
    if not bad.any():
        return per_decoder, totals, None
    row = int(bad.argmax())
    error = _result_error(per_decoder[row], float(totals[row]), "analytical")
    return per_decoder[:row], totals[:row], (row, ConfigurationError(error))


def asr_rows(psi: np.ndarray, a, args, prefactor=0.5):
    """Closed-form sum rate at every row of order-statistic means.

    psi is (rows, M) and a the power split.  args is
    ``_kernels.kernel_args(cfg, imp)``: one tuple for every row, as for a
    relay-placement surface (one row per site), or a (rows, 5) sequence,
    one per row, as for an SNR or distortion sweep.  prefactor is one
    scheme share for every row or one per row (1.0: the kernel's unit
    share), applied to the finished rates and totals.  ``asr`` is the
    one-row case.  Returns ``(per_decoder, totals, fault)``: per_decoder
    is (rows, M-1) and each total is its row's unit-share sum at the
    share.  ``fault`` is None when every row is an acceptable
    ``AsrResult``.  Otherwise it is ``(row, error)`` for the first row
    that is not, and per_decoder and totals cover only the rows before it.
    """
    rates = _decoder_rates(np.asarray(psi, dtype=np.float64), a, args)
    return _finish_rows(rates, prefactor)


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
    args = _kernels.kernel_args(cfg, imp)
    per_decoder, totals, fault = asr_rows(moments.psi[None, :], cfg.a, args, prefactor)
    if fault is not None:
        raise fault[1]
    return AsrResult(per_decoder=per_decoder[0], total=float(totals[0]), provenance="analytical")


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
    with np.errstate(divide="ignore"):
        args = (0.0, 0.0, *_kernels.distortion_terms(imp))
        rates = _decoder_rates(moments.psi[None, :], cfg.a, args)
        per_decoder = _time_share(prefactor, rates[0])
    notes = tuple(
        f"decoder k={k} has no interference ceiling: asymptote diverges"
        for k, rate in enumerate(per_decoder, start=2)
        if math.isinf(rate)
    )
    return AsrResult(
        per_decoder=per_decoder,
        total=float(_time_share(prefactor, rates[0].sum())),
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
    with r2 = c r1.  Any distortion bounds every decoder: the slope is 0,
    the offset +inf and the ceiling is the ``asr_asymptotic`` total.
    Without it, only decoder M diverges, its telescoped SINR growing as
    r1 * ``_kernels.divergent_decoder_gain``: the slope is the prefactor,
    the offset absorbs the other decoders' limits and the ceiling is +inf.
    """
    limit = asr_asymptotic(moments, cfg, imp, 1.0)
    if math.isfinite(limit.total):
        return 0.0, math.inf, float(_time_share(prefactor, limit.total))
    bounded = float(limit.per_decoder[np.isfinite(limit.per_decoder)].sum())
    gain = _kernels.divergent_decoder_gain(moments.psi[None, :], cfg.a, cfg.c)[0]
    return prefactor, -(bounded + math.log2(gain)), math.inf
