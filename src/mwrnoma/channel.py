"""Ordered fading-gain model: sampling and closed-form order-statistic moments.

Each user's small-scale power gain is Gamma(alpha, beta) distributed
(Nakagami-m envelope with integer shape), and the network sorts users by
instantaneous gain, so the i-th user's effective gain is the i-th ascending
order statistic scaled by large-scale attenuation 1/(1 + d_i^nu).

Two independent routes to the per-position moments are provided:

* ``order_stat_moment_rows``: exact closed forms.  The CDF power
  F^(i-1) is binomially expanded, the Erlang survival-function power is
  expanded as a polynomial in x with integer coefficients, and every term
  reduces to a Gamma integral that depends on the position only through
  the survival power, so the M positions share M integrals per moment
  order.  All coefficients are rational, so the unscaled moments are
  evaluated in exact rational arithmetic once per (alpha, M) and scaled
  by path loss for any number of distance rows at once: the first
  moments divided by 1 + d^nu (libm's pow, as for the Monte Carlo gains),
  the second by its correctly rounded square.  ``order_stat_moments``
  reads one row.
* ``moment_oracle``: a fixed composite Gauss-Legendre rule over x^p times
  the order-statistic density (David & Nagaraja, *Order Statistics*,
  ch. 2), evaluated in logs from the finite Erlang survival sum, with the
  change between two panel counts as its residual.  It shares no code with
  the expansion above and needs numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat

import numpy as np

from .errors import ConfigurationError, NumericError, UnsupportedParameterError

__all__ = [
    "FadingParams",
    "OrderStatMoments",
    "order_stat_moments",
    "order_stat_moment_rows",
    "moment_oracle",
]


# largest fading shape: the exact moments' cost grows steeply with alpha
# (a cold analytical fig2a takes about 0.3 s at 400; its moment table alone
# takes about 2 s at 1000)
MAX_ALPHA = 400

# largest alpha * M^2 that ``FadingParams`` accepts, which bounds the
# moment table's build time: it grows about as alpha^2 M^4, and the slowest
# accepted pairs, alpha = 400 with M = 8 and alpha = 316 with M = 9, build
# in about 1.5 and 1.1 s (alpha = 2 allows M = 113, 0.5 s; M = 256 took 27 s)
MAX_MOMENT_TABLE = 25_600

# the oracle's rules: ORACLE_NODES Gauss-Legendre nodes on each of N panels
# graded geometrically over [1e-12, 1] (the lowest of many gains lies near
# 0) and 2N even ones up to alpha + 60 + 12 sqrt(alpha), past which no
# accepted (alpha, M) has mass; its residual is the change from N = 48 to 72
ORACLE_NODES = 20
ORACLE_PANELS = (48, 72)


@dataclass(frozen=True)
class FadingParams:
    """Per-network fading and path-loss parameters.

    alpha: Gamma shape, integer in 1..MAX_ALPHA (integer shape is required
        by the closed-form moment expansion; other shapes are rejected),
        with alpha * M^2 at most MAX_MOMENT_TABLE for M distances.
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
        if isinstance(a, float) and a.is_integer():
            a = int(a)
        if not isinstance(a, int) or isinstance(a, bool) or a < 1:
            raise UnsupportedParameterError(
                f"fading shape alpha must be a positive integer, got {self.alpha!r}"
            )
        if a > MAX_ALPHA:
            raise UnsupportedParameterError(
                f"fading shape alpha must be at most {MAX_ALPHA}, got {a}"
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
        if a * len(d) ** 2 > MAX_MOMENT_TABLE:
            raise ConfigurationError(
                f"at most {math.isqrt(MAX_MOMENT_TABLE // a)} at fading.alpha {a} "
                f"(alpha * n_users^2 <= {MAX_MOMENT_TABLE}), got {len(d)}",
                field="n_users",
            )
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


def gamma_from_uniforms(u: np.ndarray, beta: float, out: np.ndarray) -> np.ndarray:
    """Gamma(alpha, beta) variates -beta * sum_j log(1 - u_j) from the
    uniforms u (..., alpha), written to out (...) and returned; u is
    overwritten."""
    np.negative(u, out=u)
    np.log1p(u, out=u)
    if u.shape[-1] >= 8:
        # numpy sums 8 or more items pairwise; below that it adds left to
        # right, which the slice loop repeats with one long loop per slice
        u.sum(axis=-1, out=out)
    else:
        np.copyto(out, u[..., 0])
        for j in range(1, u.shape[-1]):
            out += u[..., j]
    out *= -beta
    return out


@lru_cache(maxsize=None)
def _survival_powers(alpha: int, n_users: int) -> tuple[tuple[int, ...], ...]:
    """Integer coefficients of ((alpha-1)! sum_{g<alpha} t^g / g!)^N for
    N = 0 .. M-1, lowest power of t first.

    The Erlang survival function is e^-x sum_{g<alpha} x^g / g!, so these
    are its N-th powers without the factor e^-Nx, times ((alpha-1)!)^N.
    They are built once per (alpha, M) and shared by all positions and
    both moments.
    """
    # B = sum_{g<alpha} t^g / g! has B' = B - t^(alpha-1) / (alpha-1)!, so
    # P = B^N has P' = N P - N B^(N-1) t^(alpha-1) / (alpha-1)!; in the
    # integer coefficients q of ((alpha-1)! B)^N and r of the (N-1)-th
    # power that reads (k+1) q[k+1] = N (q[k] - r[k+1-alpha]), exactly
    powers = [(1,)]
    for big_n in range(1, n_users):
        prev = powers[-1]
        coeffs = [math.factorial(alpha - 1) ** big_n]
        for k in range(big_n * (alpha - 1)):
            lagged = prev[k + 1 - alpha] if k + 1 >= alpha else 0
            coeffs.append(big_n * (coeffs[k] - lagged) // (k + 1))
        powers.append(tuple(coeffs))
    return tuple(powers)


def _gamma_integral(alpha: int, n_users: int, big_n: int, p: int) -> Fraction:
    """The integral of x^p f(x) S(x)^N over x > 0, times (alpha-1)!, for
    the Gamma(alpha, 1) density f and survival function S, as an exact
    rational.

    It depends on the order position only through N, so a table of the
    M positions' moments of order p evaluates it M times, N = 0 .. M-1,
    and every position reads those values.
    """
    coeffs = _survival_powers(alpha, n_users)[big_n]
    # sum_k coeffs[k] (alpha-1+p+k)! / (N+1)^(alpha+p+k), the Gamma
    # integral of each power of x, over the common denominator
    # (N+1)^(alpha+p+K); Horner's rule supplies the (N+1)^(K-k)
    numerator, fact = 0, math.factorial(alpha - 2 + p)
    for k, c in enumerate(coeffs):
        fact *= alpha - 1 + p + k
        numerator = numerator * (big_n + 1) + c * fact
    denominator = math.factorial(alpha - 1) ** big_n * (big_n + 1) ** (
        alpha + p + len(coeffs) - 1
    )
    return Fraction(numerator, denominator)


def _unscaled_moment(alpha: int, n_users: int, i: int, integrals) -> Fraction:
    """Moment of the i-th ascending order statistic of M i.i.d.
    Gamma(alpha, 1) variates, as an exact rational.

    The binomial expansion of F^(i-1) = (1 - S)^(i-1) leaves one
    ``_gamma_integral`` per term, at N = n + M - i; integrals holds their
    values for N = 0 .. M-1 at the moment's order p.  The scale enters
    the final moment only as beta^p, so it is applied by the callers;
    everything here is rational.
    """
    M, m = n_users, i
    prefactor = Fraction(math.factorial(M), math.factorial(m - 1) * math.factorial(M - m))
    total = Fraction(0)
    for n in range(m):
        sign = -1 if n % 2 else 1
        total += sign * math.comb(m - 1, n) * integrals[n + M - m]
    return prefactor * total / math.factorial(alpha - 1)


def _pow_each(base: np.ndarray, exponent: float) -> np.ndarray:
    """``base ** exponent`` per entry with Python's float pow, inf where it
    overflows.

    That is libm's pow; numpy's vectorised pow rounds the last bit
    differently on some inputs, and the placement CSVs and the Monte Carlo
    path-loss factors pin the bits of d^nu.  ``math.pow`` is the same libm
    call, mapped over the entries without a Python-level loop; only when
    an entry overflows are they redone one at a time.  Squares do not come
    here: ``order_stat_moment_rows`` squares 1 + d^nu with one multiply.
    """
    values = base.ravel().tolist()
    try:
        out = np.fromiter(map(math.pow, values, repeat(exponent)), np.float64, len(values))
    except OverflowError:
        out = np.empty(len(values))
        for i, b in enumerate(values):
            try:
                out[i] = b**exponent
            except OverflowError:
                out[i] = math.inf
    return out.reshape(base.shape)


def _path_loss_scale(distances, nu: float) -> np.ndarray:
    """1 + d^nu per entry, inf where it overflows: the one path-loss formula
    of the closed form and the Monte Carlo engine."""
    return 1.0 + _pow_each(np.asarray(distances, dtype=np.float64), nu)


@lru_cache(maxsize=None)
def _unscaled_table(alpha: int, n_users: int) -> tuple[tuple[Fraction, ...], ...]:
    """Unscaled first and second moments of all M order positions.

    The positions share each moment order's M ``_gamma_integral`` values,
    which are dropped once the table is built.  The self-check runs once
    per (alpha, M): the unscaled means of ascending order statistics must
    ascend.
    """

    def moments(p):
        integrals = [_gamma_integral(alpha, n_users, big_n, p) for big_n in range(n_users)]
        return tuple(
            _unscaled_moment(alpha, n_users, i, integrals) for i in range(1, n_users + 1)
        )

    means = moments(1)
    if any(b < a for a, b in zip(means, means[1:])):
        raise NumericError("order-statistic means are not ascending; expansion is broken")
    return means, moments(2)


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
            except OverflowError:  # float(q) or beta^p; a product overflows to inf
                out[p - 1, i - 1] = math.inf
            if math.isinf(out[p - 1, i - 1]):
                raise NumericError(
                    f"moment overflow for alpha={params.alpha}, M={n_users}, i={i}, p={p}"
                )
    return out


def order_stat_moment_rows(params: FadingParams, distances):
    """First and second moments of the ordered effective gains for every row
    of order-position distances.

    ``params`` supplies the fading law and path-loss exponent; ``distances``
    is (rows, M), one row per relay position (``order_stat_moments`` is the
    one-row case).  The exact rationals are converted and multiplied by
    beta^p once, then divided by (1 + d^nu)^p for all rows together, the
    square as one multiply.

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
    # the correctly rounded square (one IEEE multiply, the same bits on
    # every CPU); inf where it overflows, which the check below reports
    with np.errstate(over="ignore"):
        scale2 = scale * scale
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


@lru_cache(maxsize=8)
def _oracle_rules(alpha: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per panel count in ``ORACLE_PANELS``, the weights and the (4, nodes)
    logs of x, F, S and f of the Gamma(alpha, 1) law at the nodes.

    An integer shape makes S = e^-x sum_{k<alpha} x^k / k! finite: log S
    is a log-sum-exp, and log F is log1p(-S) where S < 1/2, else the log
    of the tail e^-x sum_{k>=alpha} x^k / k!, whose terms below the upper
    limit suffice there (x < alpha).
    """
    # only the oracle needs it, and it costs about 10 ms of start-up
    from numpy.polynomial.legendre import leggauss

    top = alpha + 60 + 12 * math.sqrt(alpha)
    k = np.arange(math.ceil(top))
    log_factorials = np.array([math.lgamma(j + 1.0) for j in k.tolist()])
    t, weights = leggauss(ORACLE_NODES)
    rules = []
    for panels in ORACLE_PANELS:
        edges = np.concatenate(
            (np.geomspace(1e-12, 1.0, panels + 1), np.linspace(1.0, top, 2 * panels + 1)[1:])
        )
        half = np.diff(edges)[:, None] / 2
        x = (edges[:-1, None] + half * (1 + t)).ravel()
        log_x = np.log(x)
        # log(x^k / k!) per node: the Erlang sum's terms, then its tail's
        terms = k[:, None] * log_x - log_factorials[:, None]
        log_sf = np.logaddexp.reduce(terms[:alpha]) - x
        # log1p(-S) is -inf or NaN where S rounds to 1 or above, and unused
        with np.errstate(divide="ignore", invalid="ignore"):
            log_cdf = np.where(
                log_sf < -math.log(2),
                np.log1p(-np.exp(log_sf)),
                np.logaddexp.reduce(terms[alpha:]) - x,
            )
        rule = ((half * weights).ravel(), np.stack((log_x, log_cdf, log_sf, terms[alpha - 1] - x)))
        for array in rule:  # the cache hands the same arrays to every caller
            array.flags.writeable = False
        rules.append(rule)
    return tuple(rules)


def moment_oracle(
    params: FadingParams, n_users: int, i: int, moment_order: int, rel_tol: float = 1e-6
) -> float:
    """Order-statistic moment by a fixed quadrature rule, independent of
    the closed-form expansion.

    Integrates x^p M!/((i-1)! (M-i)!) F^(i-1) S^(M-i) f at unit scale, in
    logs, by both rules of ``_oracle_rules``; the finer one's value is kept
    if its relative change from the coarser one is at most rel_tol.  Then
    applies the scale of the effective gain (times beta^p, divided by
    (1 + d_i^nu)^p), so the tolerance holds at any beta.
    """
    if moment_order not in (1, 2):
        raise ValueError(f"moment_order must be 1 or 2, got {moment_order}")
    if not 1 <= i <= n_users:
        raise ValueError(f"order index i={i} out of range 1..{n_users}")
    _check_users(params, n_users)
    powers = np.array([moment_order, i - 1, n_users - i, 1.0])
    log_count = math.log(n_users * math.comb(n_users - 1, i - 1))
    coarse, value = (
        float(weights @ np.exp(powers @ logs + log_count))
        for weights, logs in _oracle_rules(params.alpha)
    )
    residual = abs(value - coarse) / value if value > 0 else math.inf
    if not residual <= rel_tol:
        raise NumericError(
            f"quadrature did not reach rel tol {rel_tol:g} for alpha={params.alpha}, "
            f"M={n_users}, i={i}, p={moment_order} (value={value:g}, residual={residual:g})"
        )
    try:
        scale = (1.0 + params.distances[i - 1] ** params.nu) ** moment_order
    except OverflowError as exc:
        raise NumericError(
            f"path loss (1 + d^nu)^{moment_order} overflows at order position i={i}"
        ) from exc
    try:
        moment = value * params.beta**moment_order / scale
    except OverflowError:  # beta^p; the product overflows to inf instead
        moment = math.inf
    if math.isinf(moment):
        raise NumericError(
            f"moment overflow for alpha={params.alpha}, M={n_users}, i={i}, p={moment_order}"
        )
    return moment
