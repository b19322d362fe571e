"""Scalar reference formulas that the package's vectorised engine is tested
against.

``sinr_instantaneous`` evaluates the two-phase SINR for one channel
realization, given as the vector of the M effective gains sorted
ascending; the five denominator aggregates are exposed for inspection via
``sinr_terms``.  Decoding at user k proceeds from the weakest user upward;
while decoding user n the still-undecoded superposed users n+1..M-1 remain
as co-channel interference (the strongest user's own contribution is
removed by the successive cancellation chain).  ``pair_indices`` lists
the decodable (k, n) pairs and ``decoder_rates`` sums each decoder's
pair rates.  ``gamma_variates`` draws Gamma variates from
a generator through the engine's own transform.

This is a helper module, not a test module: it is imported by the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from mwrnoma.channel import gamma_from_uniforms
from mwrnoma.errors import ConfigurationError
from mwrnoma.signal import ImpairmentProfile, NetworkConfig


@dataclass(frozen=True)
class SinrTerms:
    """The five denominator aggregates of the per-pair SINR.

    theta1: residual co-channel interference relayed to user k.
    theta2: relay-forwarded distortion (user-tx, relay-rx, relay-tx mixes).
    theta3: user-receive distortion at user k.
    theta4: relay thermal noise forwarded over the second hop.
    theta5: receiver-side noise floor (includes the +1 normalization).
    """

    theta1: float
    theta2: float
    theta3: float
    theta4: float
    theta5: float

    def __post_init__(self):
        for name in ("theta1", "theta2", "theta3", "theta4", "theta5"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be >= 0")
        if self.theta5 < 1.0:
            raise ConfigurationError("theta5 must be >= 1 (contains the noise term)")

    @property
    def total(self) -> float:
        return self.theta1 + self.theta2 + self.theta3 + self.theta4 + self.theta5


def pair_indices(n_users: int) -> list[tuple[int, int]]:
    """Decodable (k, n) pairs, 1-based, in canonical (k, then n) order."""
    return [(k, n) for k in range(2, n_users + 1) for n in range(1, k)]


def _check_inputs(rho, n_users: int, k: int, n: int) -> np.ndarray:
    """The gains as a float array, after checking them and the pair indices."""
    if not 1 <= k <= n_users:
        raise ValueError(f"decoder index k={k} out of range 1..{n_users}")
    if not 1 <= n <= n_users:
        raise ValueError(f"decoded index n={n} out of range 1..{n_users}")
    rho = np.asarray(rho, dtype=np.float64)
    if not np.all(np.isfinite(rho)) or np.any(rho < 0):
        raise ConfigurationError("channel gains must be finite and >= 0")
    if np.any(np.diff(rho) < 0):
        raise ConfigurationError("channel gains must be nondecreasing")
    return rho


def sinr_terms(
    rho,
    cfg: NetworkConfig,
    imp: ImpairmentProfile,
    k: int,
    n: int,
) -> SinrTerms:
    """Assemble the SINR denominator for decoder k decoding user n (n < k).

    rho: the M effective channel gains, sorted ascending.
    """
    rho = _check_inputs(rho, cfg.n_users, k, n)
    a = np.asarray(cfg.a)
    r1, r2 = cfg.r1, cfg.r2
    kut2, kur2 = imp.kappa_ut**2, imp.kappa_ur**2
    krt2, krr2 = imp.kappa_rt**2, imp.kappa_rr**2
    rho_k = float(rho[k - 1])
    mac = 1.0 + kut2 + krr2  # received-power inflation at the relay

    weighted = float(np.dot(rho, a))  # sum_i a_i rho_i
    # undecoded users n+1..M-1 (1-based), i.e. slice n..M-2 (0-based)
    residual = float(np.dot(rho[n : cfg.n_users - 1], a[n : cfg.n_users - 1]))

    theta1 = rho_k * residual * r1 * r2
    theta2 = rho_k * r1 * r2 * weighted * (kut2 + krr2 + krt2 * mac)
    theta3 = kur2 * rho_k * (r1 * r2 * weighted * mac + r2)
    theta4 = r1 * mac * weighted
    theta5 = rho_k * r2 * (1.0 + krt2) + 1.0
    return SinrTerms(theta1, theta2, theta3, theta4, theta5)


def sinr_instantaneous(
    rho,
    cfg: NetworkConfig,
    imp: ImpairmentProfile,
    k: int,
    n: int,
) -> float:
    """Instantaneous SINR at decoder k for user n's signal.

    rho: the M effective channel gains, sorted ascending.  Zero when
    n >= k: the successive decoding order forbids decoding a stronger (or
    own) position before it has been reached.
    """
    rho = _check_inputs(rho, cfg.n_users, k, n)
    if n >= k:
        return 0.0
    numerator = float(rho[k - 1]) * float(rho[n - 1]) * cfg.a[n - 1] * cfg.r1 * cfg.r2
    return numerator / sinr_terms(rho, cfg, imp, k, n).total


def decoder_rates(rho, cfg: NetworkConfig, imp: ImpairmentProfile) -> list[float]:
    """Rate of each decoder k = 2..M: the sum of its pair rates
    1/2 log2(1 + SINR(k, n)) over n < k, each from ``sinr_instantaneous``."""
    half_log2 = 0.5 / math.log(2.0)
    return [
        sum(half_log2 * math.log1p(sinr_instantaneous(rho, cfg, imp, k, n)) for n in range(1, k))
        for k in range(2, cfg.n_users + 1)
    ]


def gamma_variates(alpha: int, beta: float, size, rng: np.random.Generator) -> np.ndarray:
    """Gamma(alpha, beta) draws via the sum of alpha exponentials.

    Exact for integer shape and stable across platforms (no rejection
    sampling), which keeps seeded runs reproducible.  Consumes exactly
    alpha uniforms per variate.
    """
    shape = (size,) if np.isscalar(size) else tuple(size)
    u = rng.random(shape + (int(alpha),))
    return gamma_from_uniforms(u, beta, np.empty(shape))
