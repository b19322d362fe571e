"""Ordered fading-gain model: sampling and closed-form order-statistic moments.

Each user's small-scale power gain is Gamma(alpha, beta) distributed
(Nakagami-m envelope with integer shape), and the network sorts users by
instantaneous gain, so the i-th user's effective gain is the i-th ascending
order statistic scaled by large-scale attenuation 1/(1 + d_i^nu).

Two independent routes to the per-position moments are provided:

* ``order_stat_moment_rows``: exact closed forms.  The CDF power
  F^(i-1) is binomially expanded, the Erlang survival-function power is
  multinomially expanded over compositions, and every term reduces to a
  Gamma integral.  All coefficients are rational, so the unscaled moments
  are evaluated in exact rational arithmetic once per (alpha, M) and
  scaled by path loss for any number of distance rows at once;
  ``order_stat_moments``, ``psi_moment`` and ``omega_moment`` read one row.
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
    "order_stat_moment_rows",
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
        """1 / (1 + d_i^nu) per order position.

        Raises ``NumericError`` where 1 + d^nu overflows, rather than
        returning a factor of 0.
        """
        scale = _path_loss_scale(self.distances, self.nu)
        overflow = np.isinf(scale)
        if overflow.any():
            i = int(overflow.argmax()) + 1
            raise NumericError(
                f"path loss 1 + d^nu overflows at i={i}, "
                f"d={self.distances[i - 1]:g}, nu={self.nu:g}"
            )
        return 1.0 / scale


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
        fault = _first_moment_fault(psi[None, :], omega[None, :])
        if fault is not None:
            raise fault[1]

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


def _pow_each(base: np.ndarray, exponent: float) -> np.ndarray:
    """``base ** exponent`` per entry with Python's float pow, inf where it
    overflows.

    That is libm's pow; numpy's vectorised pow rounds the last bit
    differently on some inputs, and the placement CSVs pin these bits.
    """
    out = []
    for b in base.ravel().tolist():
        try:
            out.append(b**exponent)
        except OverflowError:
            out.append(math.inf)
    return np.array(out, dtype=np.float64).reshape(base.shape)


def _path_loss_scale(distances, nu: float) -> np.ndarray:
    """1 + d^nu per entry, inf where it overflows: the one path-loss formula
    of the closed form and the Monte Carlo engine."""
    return 1.0 + _pow_each(np.asarray(distances, dtype=np.float64), nu)


@lru_cache(maxsize=None)
def _unscaled_table(alpha: int, n_users: int) -> tuple[tuple[Fraction, ...], ...]:
    """Unscaled first and second moments of all M order positions.

    The self-check runs once per (alpha, M): the unscaled means of
    ascending order statistics must ascend.
    """
    positions = range(1, n_users + 1)
    means = tuple(_unscaled_moment(alpha, n_users, i, 1) for i in positions)
    if any(b < a for a, b in zip(means, means[1:])):
        raise NumericError("order-statistic means are not ascending; expansion is broken")
    return means, tuple(_unscaled_moment(alpha, n_users, i, 2) for i in positions)


def _first_moment_fault(psi: np.ndarray, omega: np.ndarray):
    """(row, error) of the first (rows, M) moment row that breaks an
    invariant, or None."""
    positive = (psi > 0).all(axis=1) & (omega > 0).all(axis=1)
    # variance nonnegativity, small slack for rounding
    spread = (omega >= psi**2 * (1 - 1e-12)).all(axis=1)
    bad = ~(positive & spread)
    if not bad.any():
        return None
    row = int(bad.argmax())
    msg = "moments must be positive" if not positive[row] else "second moment below squared mean"
    return row, ConfigurationError(msg)


def _unscaled_floats(params: FadingParams, n_users: int) -> np.ndarray:
    """(2, M) unscaled moments times beta^p, as floats."""
    out = np.empty((2, n_users))
    for p, table in enumerate(_unscaled_table(params.alpha, n_users), start=1):
        for i, q in enumerate(table, start=1):
            try:
                out[p - 1, i - 1] = float(q) * params.beta**p
            except OverflowError as exc:
                raise NumericError(
                    f"moment overflow for alpha={params.alpha}, M={n_users}, i={i}, p={p}"
                ) from exc
    return out


def order_stat_moment_rows(params: FadingParams, distances):
    """First and second moments of the ordered effective gains for every row
    of order-position distances.

    ``params`` supplies the fading law and path-loss exponent; ``distances``
    is (rows, M), one row per relay position (``order_stat_moments`` is the
    one-row case).  The exact rationals are converted and multiplied by
    beta^p once, then divided by (1 + d^nu)^p for all rows together.

    Returns ``(psi, omega, fault)``.  ``fault`` is None when every row is
    valid.  Otherwise it is ``(row, error)`` for the first row whose moments
    overflow or break an ``OrderStatMoments`` invariant, and psi and omega
    cover only the rows before it.
    """
    d = np.asarray(distances, dtype=np.float64)
    M = d.shape[1]
    try:
        unscaled = _unscaled_floats(params, M)
    except NumericError as exc:
        return np.empty((0, M)), np.empty((0, M)), (0, exc)
    scale = _path_loss_scale(d, params.nu)
    scale2 = _pow_each(scale, 2.0)
    fault = None
    overflow = np.isinf(scale2).any(axis=1)
    if overflow.any():
        row = int(overflow.argmax())
        # the first moments overflow first, then the second
        p, pows = (1, scale[row]) if np.isinf(scale[row]).any() else (2, scale2[row])
        i = int(np.isinf(pows).argmax()) + 1
        fault = row, NumericError(
            f"moment overflow for alpha={params.alpha}, M={M}, i={i}, p={p}: "
            f"path loss (1 + d^nu)^{p} overflows at d={d[row, i - 1]:g}, nu={params.nu:g}"
        )
        scale, scale2 = scale[:row], scale2[:row]
    psi = unscaled[0] / scale
    omega = unscaled[1] / scale2
    moment_fault = _first_moment_fault(psi, omega)
    if moment_fault is not None:
        fault = moment_fault
        psi, omega = psi[: fault[0]], omega[: fault[0]]
    return psi, omega, fault


def order_stat_moments(params: FadingParams, n_users: int) -> OrderStatMoments:
    """All M first/second moments of the ordered effective gains."""
    _check_users(params, n_users)
    psi, omega, fault = order_stat_moment_rows(params, [params.distances])
    if fault is not None:
        raise fault[1]
    return OrderStatMoments(psi=psi[0], omega=omega[0])


def _position(n_users: int, i: int) -> int:
    if not 1 <= i <= n_users:
        raise ValueError(f"order index i={i} out of range 1..{n_users}")
    return i - 1


def psi_moment(params: FadingParams, n_users: int, i: int) -> float:
    """Closed-form mean of the i-th ordered effective gain."""
    pos = _position(n_users, i)
    return float(order_stat_moments(params, n_users).psi[pos])


def omega_moment(params: FadingParams, n_users: int, i: int) -> float:
    """Closed-form second moment of the i-th ordered effective gain.

    The path-loss factor is applied squared: the effective gain is
    rho_i = h_(i) / (1 + d_i^nu), so its second moment carries the square
    of the scale.
    """
    pos = _position(n_users, i)
    return float(order_stat_moments(params, n_users).omega[pos])


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
    try:
        scale = (1.0 + params.distances[i - 1] ** params.nu) ** moment_order
    except OverflowError as exc:
        raise NumericError(
            f"path loss (1 + d^nu)^{moment_order} overflows at order position i={i}"
        ) from exc
    return value / scale
