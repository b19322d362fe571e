"""Two-phase amplify-and-forward signal model with transceiver distortion.

Phase 1 (multiple access): every user transmits its power-scaled symbol
simultaneously; the relay's received signal picks up user-transmit
distortion (level kappa_ut), relay-receive distortion (kappa_rr) and
thermal noise.  Phase 2 (broadcast): the relay rebroadcasts the
normalized superposition; each receiver adds relay-transmit distortion
(kappa_rt), user-receive distortion (kappa_ur) and noise.

Decoding at user k proceeds from the weakest user upward; while decoding
user n the still-undecoded superposed users n+1..M-1 remain as co-channel
interference (the strongest user's own contribution is removed by the
successive cancellation chain).  ``sinr_instantaneous`` evaluates the
resulting SINR for one channel realization; the five denominator
aggregates are exposed for inspection via ``sinr_terms``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .errors import ConfigurationError

__all__ = [
    "ImpairmentProfile",
    "NetworkConfig",
    "SinrTerms",
    "sinr_terms",
    "sinr_instantaneous",
]


@dataclass(frozen=True)
class ImpairmentProfile:
    """Distortion levels for the four transceiver stages (all in [0, 1))."""

    kappa_ut: float = 0.0
    kappa_ur: float = 0.0
    kappa_rt: float = 0.0
    kappa_rr: float = 0.0

    def __post_init__(self):
        for name in ("kappa_ut", "kappa_ur", "kappa_rt", "kappa_rr"):
            v = getattr(self, name)
            if not (0.0 <= v < 1.0) or not math.isfinite(v):
                raise ConfigurationError(f"{name} must be in [0, 1), got {v}")

    @classmethod
    def ideal(cls) -> "ImpairmentProfile":
        return cls()

    @classmethod
    def uniform(cls, level: float) -> "ImpairmentProfile":
        """Same distortion level at all four stages."""
        return cls(level, level, level, level)

    @property
    def is_ideal(self) -> bool:
        return self == ImpairmentProfile()

    @property
    def mac_distortion(self) -> float:
        """1 + kappa_ut^2 + kappa_rr^2: received-power inflation at the relay."""
        return 1.0 + self.kappa_ut**2 + self.kappa_rr**2


@dataclass(frozen=True)
class NetworkConfig:
    """User count, power split and SNR operating point.

    r1 is the per-user transmit SNR (linear); the relay SNR is r2 = c * r1.
    Absolute powers and noise variances enter the rates only through r1
    and r2.
    """

    n_users: int
    a: tuple[float, ...]
    r1: float
    c: float = 1.0

    def __post_init__(self):
        if not isinstance(self.n_users, int) or isinstance(self.n_users, bool) or self.n_users < 2:
            raise ConfigurationError(f"n_users must be an integer >= 2, got {self.n_users!r}")
        a = tuple(float(x) for x in self.a)
        object.__setattr__(self, "a", a)
        if len(a) != self.n_users:
            raise ConfigurationError(
                f"power allocation length {len(a)} != n_users {self.n_users}"
            )
        if abs(sum(a) - 1.0) > 1e-9:
            raise ConfigurationError(f"power allocation must sum to 1, got {sum(a)!r}")
        if any(x <= 0 for x in a) or any(x <= y for x, y in zip(a, a[1:])):
            raise ConfigurationError(
                "power allocation must be strictly decreasing and positive "
                "(most power to the weakest user)"
            )
        for name in ("r1", "c"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ConfigurationError(f"{name} must be finite and > 0, got {v}")

    @property
    def r2(self) -> float:
        return self.c * self.r1


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


def _check_pair(n_users: int, k: int, n: int) -> None:
    if not 1 <= k <= n_users:
        raise ValueError(f"decoder index k={k} out of range 1..{n_users}")
    if not 1 <= n <= n_users:
        raise ValueError(f"decoded index n={n} out of range 1..{n_users}")


def sinr_terms(
    realization: ChannelRealization,
    cfg: NetworkConfig,
    imp: ImpairmentProfile,
    k: int,
    n: int,
) -> SinrTerms:
    """Assemble the SINR denominator for decoder k decoding user n (n < k)."""
    _check_pair(cfg.n_users, k, n)
    rho = realization.rho
    a = np.asarray(cfg.a)
    r1, r2 = cfg.r1, cfg.r2
    kut2, kur2 = imp.kappa_ut**2, imp.kappa_ur**2
    krt2, krr2 = imp.kappa_rt**2, imp.kappa_rr**2
    rho_k = float(rho[k - 1])
    mac = imp.mac_distortion  # 1 + kut^2 + krr^2

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
    realization: ChannelRealization,
    cfg: NetworkConfig,
    imp: ImpairmentProfile,
    k: int,
    n: int,
) -> float:
    """Instantaneous SINR at decoder k for user n's signal.

    Zero when n >= k: the successive decoding order forbids decoding a
    stronger (or own) position before it has been reached.
    """
    _check_pair(cfg.n_users, k, n)
    if n >= k:
        return 0.0
    rho = realization.rho
    numerator = float(rho[k - 1]) * float(rho[n - 1]) * cfg.a[n - 1] * cfg.r1 * cfg.r2
    return numerator / sinr_terms(realization, cfg, imp, k, n).total
