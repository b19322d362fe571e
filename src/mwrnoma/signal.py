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
successive cancellation chain).

This module holds the operating point: the distortion levels
(``ImpairmentProfile``) and the user count, power split and SNRs
(``NetworkConfig``).  The resulting SINR has one implementation, the
rate kernel in ``mwrnoma._kernels``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigurationError

__all__ = ["ImpairmentProfile", "NetworkConfig"]


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
            if not 0.0 <= v < 1.0:
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
        # a NaN or infinite entry leaves a sum that fails this test too
        if not abs(sum(a) - 1.0) <= 1e-9:
            raise ConfigurationError(
                f"power allocation must be finite and sum to 1, got sum {sum(a)!r}"
            )
        if any(x <= 0 for x in a) or any(x <= y for x, y in zip(a, a[1:])):
            raise ConfigurationError(
                "power allocation must be strictly decreasing and positive "
                "(most power to the weakest user)"
            )
        for name in ("r1", "c"):
            v = getattr(self, name)
            if not (v > 0 and math.isfinite(v)):
                raise ConfigurationError(f"{name} must be finite and > 0, got {v}", field=name)
        # the rates take 1 / r2: a relay SNR that overflows has its limit, 0 has none
        if self.r2 == 0.0:
            # rounded, as 10 * log10 of an SNR given in dB can miss its last digit
            db = round(10 * math.log10(self.r1), 6)
            raise ConfigurationError(
                f"relay SNR c * r1 underflows to 0 at {db!r} dB, c={self.c!r}", field="r1"
            )

    @property
    def r2(self) -> float:
        return self.c * self.r1
