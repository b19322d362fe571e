"""Ordered fading-gain model: sampling and closed-form order-statistic moments.

Each user's small-scale power gain is Gamma(alpha, beta) distributed
(Nakagami-m envelope with integer shape), and the network sorts users by
instantaneous gain, so the i-th user's effective gain is the i-th ascending
order statistic scaled by large-scale attenuation 1/(1 + d_i^nu).

Two independent routes to the per-position moments are provided:

* ``psi_moment`` / ``omega_moment``: exact closed forms.  The CDF power
  F^(i-1) is binomially expanded, the Erlang survival-function power is
  multinomially expanded over compositions, and every term reduces to a
  Gamma integral.  All coefficients are rational, so the unscaled moments
  are evaluated in exact rational arithmetic and converted to float once.
* ``moment_oracle``: adaptive quadrature of x^p times the order-statistic
  density, sharing no code with the expansion above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, NumericError, UnsupportedParameterError

__all__ = [
    "FadingParams",
    "ChannelRealization",
    "OrderStatMoments",
    "gamma_variates",
    "sample_channel_gains",
    "psi_moment",
    "omega_moment",
    "order_stat_moments",
    "moment_oracle",
]


@dataclass(frozen=True)
class FadingParams:
    """Per-network fading and path-loss parameters.

    alpha: Gamma shape, integer >= 1 (integer shape is required by the
        closed-form moment expansion; other shapes are rejected).
    beta: Gamma scale, > 0.
    nu: path-loss exponent, >= 0.
    distances: per-user link distances, indexed by sorted order position
        (position 1 = weakest user).
    """

    alpha: int
    beta: float
    nu: float
    distances: tuple[float, ...]

    def __post_init__(self):
        a = self.alpha
        if isinstance(a, float):
            if not a.is_integer():
                raise UnsupportedParameterError(
                    f"fading shape alpha must be a positive integer, got {a}"
                )
            a = int(a)
        if not isinstance(a, int) or isinstance(a, bool) or a < 1:
            raise UnsupportedParameterError(
                f"fading shape alpha must be a positive integer, got {self.alpha!r}"
            )
        object.__setattr__(self, "alpha", a)
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ConfigurationError(f"beta must be finite and > 0, got {self.beta}")
        if not (self.nu >= 0 and math.isfinite(self.nu)):
            raise ConfigurationError(f"nu must be finite and >= 0, got {self.nu}")
        d = tuple(float(x) for x in self.distances)
        if len(d) == 0:
            raise ConfigurationError("distances must be non-empty")
        if any(not (x >= 0 and math.isfinite(x)) for x in d):
            raise ConfigurationError(f"distances must be finite and >= 0, got {d}")
        object.__setattr__(self, "distances", d)

    @property
    def n_users(self) -> int:
        return len(self.distances)

    def path_loss_factors(self) -> np.ndarray:
        """1 / (1 + d_i^nu) per order position."""
        d = np.asarray(self.distances, dtype=np.float64)
        return 1.0 / (1.0 + d**self.nu)


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One draw of instantaneous channel gains, sorted ascending."""

    rho: np.ndarray
    sorted_ascending: bool = True

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=np.float64)
        object.__setattr__(self, "rho", rho)
        if not np.all(np.isfinite(rho)) or np.any(rho < 0):
            raise ConfigurationError("channel gains must be finite and >= 0")
        if self.sorted_ascending and np.any(np.diff(rho) < 0):
            raise ConfigurationError("channel gains must be nondecreasing")

    @property
    def n_users(self) -> int:
        return self.rho.shape[0]


@dataclass(frozen=True, eq=False)
class OrderStatMoments:
    """First and second moments of the ordered, path-loss-scaled gains."""

    psi: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=np.float64)
        omega = np.asarray(self.omega, dtype=np.float64)
        object.__setattr__(self, "psi", psi)
        object.__setattr__(self, "omega", omega)
        if psi.shape != omega.shape:
            raise ConfigurationError("psi and omega must have equal length")
        if np.any(psi <= 0) or np.any(omega <= 0):
            raise ConfigurationError("moments must be positive")
        # variance nonnegativity, small slack for rounding
        if np.any(omega < psi**2 * (1 - 1e-12)):
            raise ConfigurationError("second moment below squared mean")

    @property
    def n_users(self) -> int:
        return self.psi.shape[0]


def _check_users(params: FadingParams, n_users: int) -> None:
    if n_users != params.n_users:
        raise ConfigurationError(
            f"n_users={n_users} does not match len(distances)={params.n_users}"
        )


def gamma_variates(alpha: int, beta: float, size, rng: np.random.Generator) -> np.ndarray:
    """Gamma(alpha, beta) draws via the sum of alpha exponentials.

    Exact for integer shape and stable across platforms (no rejection
    sampling), which keeps seeded runs reproducible.  Consumes exactly
    alpha uniforms per variate.
    """
    shape = (size,) if np.isscalar(size) else tuple(size)
    u = rng.random(shape + (int(alpha),))
    return -beta * np.log1p(-u).sum(axis=-1)


def sample_channel_gains(
    params: FadingParams, n_users: int, rng: np.random.Generator
) -> ChannelRealization:
    """Draw one sorted realization of the M effective channel gains.

    Raw gains are i.i.d. Gamma(alpha, beta); sorting happens before the
    path-loss scaling, so distance d_i attaches to order position i.
    """
    if n_users < 2:
        raise ConfigurationError(f"need at least 2 users, got {n_users}")
    _check_users(params, n_users)
    h = gamma_variates(params.alpha, params.beta, n_users, rng)
    h.sort()
    rho = h * params.path_loss_factors()
    return ChannelRealization(rho=rho)


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


@lru_cache(maxsize=None)
def _unscaled_moment(alpha: int, n_users: int, i: int, p: int) -> Fraction:
    """p-th moment of the i-th ascending order statistic of M i.i.d.
    Gamma(alpha, 1) variates, as an exact rational.

    The scale enters the final moment only as beta^p, so it is applied by
    the callers; everything here is rational.
    """
    M, m = n_users, i
    prefactor = Fraction(math.factorial(M), math.factorial(m - 1) * math.factorial(M - m))
    total = Fraction(0)
    for n in range(m):
        big_n = n + M - m
        sign = -1 if n % 2 else 1
        binom = math.comb(m - 1, n)
        for parts in _compositions(big_n, alpha):
            # multinomial coefficient over the composition
            coeff = Fraction(math.factorial(big_n))
            for g, p_g in enumerate(parts):
                coeff /= math.factorial(p_g) * math.factorial(g) ** p_g
            g_sum = sum(g * p_g for g, p_g in enumerate(parts))
            s = alpha - 1 + p + g_sum
            term = coeff * math.factorial(s) / Fraction(big_n + 1) ** (s + 1)
            total += sign * binom * term
    return prefactor * total / math.factorial(alpha - 1)


def _scaled_moment(params: FadingParams, n_users: int, i: int, p: int) -> float:
    if not 1 <= i <= n_users:
        raise ValueError(f"order index i={i} out of range 1..{n_users}")
    _check_users(params, n_users)
    q = _unscaled_moment(params.alpha, n_users, i, p)
    try:
        unscaled = float(q) * params.beta**p
    except OverflowError as exc:
        raise NumericError(
            f"moment overflow for alpha={params.alpha}, M={n_users}, i={i}, p={p}"
        ) from exc
    scale = 1.0 + params.distances[i - 1] ** params.nu
    return unscaled / scale**p


def psi_moment(params: FadingParams, n_users: int, i: int) -> float:
    """Closed-form mean of the i-th ordered effective gain."""
    return _scaled_moment(params, n_users, i, 1)


def omega_moment(params: FadingParams, n_users: int, i: int) -> float:
    """Closed-form second moment of the i-th ordered effective gain.

    The path-loss factor is applied squared: the effective gain is
    rho_i = h_(i) / (1 + d_i^nu), so its second moment carries the square
    of the scale.
    """
    return _scaled_moment(params, n_users, i, 2)


def order_stat_moments(params: FadingParams, n_users: int) -> OrderStatMoments:
    """All M first/second moments of the ordered effective gains."""
    psi = np.array([psi_moment(params, n_users, i) for i in range(1, n_users + 1)])
    omega = np.array([omega_moment(params, n_users, i) for i in range(1, n_users + 1)])
    # self-check: unscaled means of ascending order statistics must ascend
    unscaled = [_unscaled_moment(params.alpha, n_users, i, 1) for i in range(1, n_users + 1)]
    if any(b < a for a, b in zip(unscaled, unscaled[1:])):
        raise NumericError("order-statistic means are not ascending; expansion is broken")
    return OrderStatMoments(psi=psi, omega=omega)


def moment_oracle(
    params: FadingParams, n_users: int, i: int, moment_order: int, rel_tol: float = 1e-6
) -> float:
    """Order-statistic moment by adaptive quadrature, independent of the
    closed-form expansion.

    Integrates x^p f_(i)(x) with f_(i) built from the Gamma CDF/PDF, then
    applies the path-loss scale of the effective gain (divide by
    (1 + d_i^nu)^p).
    """
    if moment_order not in (1, 2):
        raise ValueError(f"moment_order must be 1 or 2, got {moment_order}")
    if not 1 <= i <= n_users:
        raise ValueError(f"order index i={i} out of range 1..{n_users}")
    _check_users(params, n_users)
    # scipy is imported here, not at module level: only the oracle needs it,
    # and it is most of the package's import time
    from scipy import integrate, stats

    rv = stats.gamma(params.alpha, scale=params.beta)
    count = math.factorial(n_users) / (
        math.factorial(i - 1) * math.factorial(n_users - i)
    )

    def integrand(x):
        return (
            x**moment_order
            * count
            * rv.cdf(x) ** (i - 1)
            * rv.sf(x) ** (n_users - i)
            * rv.pdf(x)
        )

    value, abserr = integrate.quad(integrand, 0.0, np.inf, limit=200)
    if value <= 0 or abserr > rel_tol * abs(value):
        raise NumericError(
            f"quadrature did not reach rel tol {rel_tol:g} "
            f"(value={value:g}, abserr={abserr:g})"
        )
    scale = 1.0 + params.distances[i - 1] ** params.nu
    return value / scale**moment_order
