"""Fading model: moment closed forms against quadrature and sampling."""

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwrnoma import (
    ConfigurationError,
    FadingParams,
    ImpairmentProfile,
    NetworkConfig,
    NumericError,
    UnsupportedParameterError,
    moment_oracle,
    order_stat_moments,
)
from mwrnoma import channel
from mwrnoma.channel import (
    MAX_ALPHA,
    _gamma_integral,
    _pow_each,
    _survival_powers,
    _unscaled_table,
    order_stat_moment_rows,
)
from mwrnoma.montecarlo import _ChunkBuffers, _sample_rho_chunk
from scalar_oracle import gamma_variates, sinr_terms


def params(alpha=1, beta=1.0, nu=2.0, d=0.0, n_users=1):
    return FadingParams(alpha=alpha, beta=beta, nu=nu, distances=(d,) * n_users)


def psi(p, n_users, i):
    return order_stat_moments(p, n_users).psi[i - 1]


def omega(p, n_users, i):
    return order_stat_moments(p, n_users).omega[i - 1]


def stream(seed):
    """A seeded Philox stream, independent of the engine's chunk streams."""
    return np.random.Generator(np.random.Philox(key=seed))


class TestClosedFormTrivial:
    def test_single_exponential_mean(self):
        # M=1: plain Exp(1) mean
        assert psi(params(), 1, 1) == pytest.approx(1.0, abs=1e-12)

    def test_single_exponential_second_moment(self):
        assert omega(params(), 1, 1) == pytest.approx(2.0, abs=1e-12)

    def test_max_of_two_exponentials(self):
        p = params(n_users=2)
        assert psi(p, 2, 2) == pytest.approx(1.5, abs=1e-12)
        assert omega(p, 2, 2) == pytest.approx(3.5, abs=1e-12)

    def test_path_loss_scaling(self):
        # d=1, nu=3 divides the mean by 2 and the second moment by 4
        p = params(alpha=2, beta=3.0, nu=3.0, d=1.0, n_users=3)
        # exact rationals: unscaled means are 3*(26/27, 197/108, 347/108)
        assert psi(p, 3, 1) == pytest.approx(26 / 27 * 3 / 2, rel=1e-12)
        assert psi(p, 3, 2) == pytest.approx(197 / 108 * 3 / 2, rel=1e-12)
        assert omega(p, 3, 3) == pytest.approx(4069 / 324 * 9 / 4, rel=1e-12)

    def test_rows_equal_scalar_formula(self):
        # float(q) beta^p / s^p per entry, with s = 1 + d^nu from Python's
        # float pow (numpy's vectorised pow differs from it in the last bit
        # on a share of these distances) and s^2 the correctly rounded
        # s * s, which libm's pow(s, 2.0) is not on a few scales
        p = params(alpha=2, beta=3.0, nu=3.0, n_users=4)
        d = -np.sort(-np.random.default_rng(5).uniform(10.0, 40.0, size=(5000, 4)), axis=1)
        psi, omega, fault = order_stat_moment_rows(p, d)
        assert fault is None
        scales = [[1.0 + x**3.0 for x in row] for row in d.tolist()]
        for power, table in ((1, psi), (2, omega)):
            unscaled = [float(q) * 3.0**power for q in _unscaled_table(2, 4)[power - 1]]
            expected = [
                [u / (s if power == 1 else s * s) for u, s in zip(unscaled, row)]
                for row in scales
            ]
            assert np.array_equal(table, expected)

    @pytest.mark.parametrize(
        "scale, fault", [(1.3407807929942596e154, False), (1.3407807929942597e154, True)]
    )
    def test_square_overflow_boundary(self, scale, fault):
        # (1 + d^nu)^2 overflows exactly where the square of a double does:
        # the largest scale whose square is finite gives moments, the next
        # double the p = 2 fault, neither a warning
        assert math.nextafter(1.3407807929942596e154, math.inf) == 1.3407807929942597e154
        p = params(alpha=1, beta=1e10, nu=1.0, n_users=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi, omega, got = order_stat_moment_rows(p, [[scale - 1.0]])
        if not fault:
            assert got is None
            assert omega[0, 0] > 0 and np.isfinite(omega).all()
            return
        assert got[0] == 0 and psi.shape == omega.shape == (0, 1)
        assert isinstance(got[1], NumericError)
        assert str(got[1]) == (
            "moment overflow for alpha=1, M=1, i=1, p=2: "
            f"path loss (1 + d^nu)^2 overflows at d={scale:g}, nu=1"
        )

    @pytest.mark.parametrize("nu", [2.7, 3.0, 4.1])
    def test_factors_share_the_moment_path_loss(self, nu):
        # the Monte Carlo factors use the closed form's 1 + d^nu (Python's
        # float pow); numpy's vectorised pow differs on a share of these
        rows = np.random.default_rng(7).uniform(10.0, 40.0, size=(2000, 4)).tolist()
        for row in rows:
            factors = FadingParams(alpha=2, beta=3.0, nu=nu, distances=row).path_loss_factors()
            assert factors.tolist() == [1.0 / (1.0 + d**nu) for d in row]

    def test_path_loss_overflow_raises(self):
        p = FadingParams(alpha=2, beta=3.0, nu=400.0, distances=(20.0, 1.0, 30.0))
        with pytest.raises(NumericError) as info:
            p.path_loss_factors()
        assert str(info.value) == "path loss 1 + d^nu overflows at i=1, d=20, nu=400"

    @pytest.mark.parametrize("beta", [1.3e154, 1e200])
    def test_moment_overflow_raises(self, beta):
        # float(q) * beta^2 (at 1.3e154) or beta^2 itself (at 1e200)
        # overflows: an error, not an inf moment and an overflow warning
        p = params(alpha=2, beta=beta, n_users=2)
        with pytest.raises(NumericError, match="^moment overflow for alpha=2, M=2, i=1, p=2$"):
            order_stat_moments(p, 2)

    @pytest.mark.parametrize("exponent", [2.0, 3.0, 2.7])
    @pytest.mark.parametrize("overflow", [False, True])
    def test_pow_each_keeps_python_pow_bits(self, exponent, overflow):
        # the mapped libm pow gives the bits of b ** e entry by entry; with
        # an overflowing entry the per-entry fallback marks it inf in place
        rng = np.random.default_rng(int(exponent * 10) + overflow)
        top = 200.0 if overflow else 100.0
        base = 10.0 ** rng.uniform(-10.0, top, size=(700, 3))
        expected = []
        for b in base.ravel().tolist():
            try:
                expected.append(b**exponent)
            except OverflowError:
                expected.append(math.inf)
        expected = np.array(expected).reshape(base.shape)
        assert np.isinf(expected).any() == overflow
        got = _pow_each(base, exponent)
        assert got.shape == base.shape
        assert got.tobytes() == expected.tobytes()


def compositions(total, parts):
    """All tuples of `parts` nonnegative ints summing to `total`, lexicographic."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in compositions(total - head, parts - 1):
            yield (head,) + tail


def enumerated_moment(alpha, n_users, i, p):
    """The unscaled moment with the survival-function power expanded over
    every composition: the multinomial sum that the closed form collects
    into a power series.  Exact, and slow at large alpha."""
    M, m = n_users, i
    prefactor = Fraction(math.factorial(M), math.factorial(m - 1) * math.factorial(M - m))
    total = Fraction(0)
    for n in range(m):
        big_n = n + M - m
        sign = -1 if n % 2 else 1
        binom = math.comb(m - 1, n)
        for parts in compositions(big_n, alpha):
            coeff = Fraction(math.factorial(big_n))
            for g, p_g in enumerate(parts):
                coeff /= math.factorial(p_g) * math.factorial(g) ** p_g
            g_sum = sum(g * p_g for g, p_g in enumerate(parts))
            s = alpha - 1 + p + g_sum
            term = coeff * math.factorial(s) / Fraction(big_n + 1) ** (s + 1)
            total += sign * binom * term
    return prefactor * total / math.factorial(alpha - 1)


class TestExpansion:
    @pytest.mark.parametrize(
        "alpha, n_users", [(1, 1), (1, 2), (2, 4), (3, 5), (5, 4), (2, 8), (4, 6), (7, 3)]
    )
    def test_power_series_equals_composition_sum(self, alpha, n_users):
        for i in range(1, n_users + 1):
            for p in (1, 2):
                assert _unscaled_table(alpha, n_users)[p - 1][i - 1] == enumerated_moment(
                    alpha, n_users, i, p
                )

    @pytest.mark.parametrize("alpha, n_users", [(1, 1), (2, 8), (50, 16)])
    def test_positions_share_the_integrals(self, monkeypatch, alpha, n_users):
        # the Gamma integral depends on the position only through N, so a
        # table of M positions evaluates it M times per moment order, once
        # for each N = 0 .. M-1, not once per term
        evaluated = []

        def counted(*args):
            evaluated.append(args)
            return _gamma_integral(*args)

        monkeypatch.setattr(channel, "_gamma_integral", counted)
        _unscaled_table.__wrapped__(alpha, n_users)
        assert sorted(evaluated) == [
            (alpha, n_users, big_n, p) for big_n in range(n_users) for p in (1, 2)
        ]

    def test_large_alpha_is_fast(self):
        # the composition sum takes about half a minute here
        _survival_powers.cache_clear()
        start = time.perf_counter()
        means, _ = _unscaled_table.__wrapped__(48, 4)
        assert time.perf_counter() - start < 2.0
        # order statistics sum to the sample: sum of means = M * alpha
        assert sum(means) == 4 * 48

    def test_largest_accepted_table_builds(self):
        # alpha = 400 with M = 8 is the slowest pair within MAX_MOMENT_TABLE
        # (about 1.5 s); a pair just outside it, M = 9, takes about 2.5 s
        assert 400 * 8**2 <= channel.MAX_MOMENT_TABLE < 400 * 9**2
        _survival_powers.cache_clear()
        start = time.perf_counter()
        means, second = _unscaled_table.__wrapped__(400, 8)
        assert time.perf_counter() - start < 10.0
        # the order statistics sum to the sample: M alpha and M alpha (alpha + 1)
        assert sum(means) == 8 * 400 and sum(second) == 8 * 400 * 401


class TestOracleAgreement:
    @pytest.mark.parametrize("alpha,beta", [(1, 1.0), (2, 3.0), (3, 2.0)])
    @pytest.mark.parametrize("n_users", [2, 3])
    def test_closed_form_matches_quadrature(self, alpha, beta, n_users):
        p = params(alpha=alpha, beta=beta, nu=3.0, d=1.0, n_users=n_users)
        for i in range(1, n_users + 1):
            assert psi(p, n_users, i) == pytest.approx(
                moment_oracle(p, n_users, i, 1), rel=1e-6
            )
            assert omega(p, n_users, i) == pytest.approx(
                moment_oracle(p, n_users, i, 2), rel=1e-6
            )

    @pytest.mark.parametrize("beta", [1e-5, 0.01, 1e5, 1e12])
    def test_quadrature_at_any_fading_scale(self, beta):
        # the quadrature runs at unit scale and multiplies by beta^p; at
        # these scales, integrated directly, it missed its tolerance
        p = params(alpha=2, beta=beta, nu=3.0, d=1.0, n_users=4)
        for i in range(1, 5):
            assert psi(p, 4, i) == pytest.approx(moment_oracle(p, 4, i, 1), rel=1e-12)
            assert omega(p, 4, i) == pytest.approx(moment_oracle(p, 4, i, 2), rel=1e-12)

    @pytest.mark.parametrize("beta", [1.3e154, 1e200])
    def test_oracle_overflow_raises(self, beta):
        # the moment (at 1.3e154) or beta^2 itself (at 1e200) overflows a
        # float: an error, not inf or a traceback
        p = params(alpha=2, beta=beta, n_users=2)
        with pytest.raises(NumericError, match="moment overflow for alpha=2, M=2, i=2, p=2"):
            moment_oracle(p, 2, 2, 2)

    def test_oracle_trivial_values(self):
        assert moment_oracle(params(n_users=2), 2, 2, 1) == pytest.approx(1.5, rel=1e-6)
        assert moment_oracle(params(), 1, 1, 2) == pytest.approx(2.0, rel=1e-6)

    def test_oracle_against_big_monte_carlo(self):
        # alpha=2, beta=3, M=5, middle position, first moment
        p = params(alpha=2, beta=3.0, n_users=5)
        target = moment_oracle(p, 5, 3, 1)
        gen = stream(2024)
        total, sq_total, n = 0.0, 0.0, 0
        for _ in range(10):
            h = gamma_variates(2, 3.0, (1_000_000, 5), gen)
            h.sort(axis=1)
            total += h[:, 2].sum()
            sq_total += (h[:, 2] ** 2).sum()
            n += h.shape[0]
        mean = total / n
        se = math.sqrt((sq_total / n - mean**2) / n)
        assert abs(mean - target) < 3 * se


class TestInvariants:
    @given(
        alpha=st.integers(1, 4),
        n_users=st.integers(2, 6),
        beta=st.floats(0.1, 10.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_moment_inequalities(self, alpha, n_users, beta):
        p = params(alpha=alpha, beta=beta, n_users=n_users)
        moments = order_stat_moments(p, n_users)
        assert np.all(np.diff(moments.psi) > 0)
        assert np.all(moments.omega >= moments.psi**2)
        # order statistics sum to the sample: sum psi = M * alpha * beta
        assert moments.psi.sum() == pytest.approx(n_users * alpha * beta, rel=1e-9)

    def test_sum_identity_exact_cases(self):
        for alpha, beta, n_users in [(2, 3.0, 4), (3, 2.0, 5), (1, 1.0, 3)]:
            p = params(alpha=alpha, beta=beta, n_users=n_users)
            total = sum(psi(p, n_users, i) for i in range(1, n_users + 1))
            assert total == pytest.approx(n_users * alpha * beta, rel=1e-12)


class TestSampling:
    def test_exponential_identity(self):
        gen = stream(7)
        draws = gamma_variates(1, 1.0, 1_000_000, gen)
        assert draws.mean() == pytest.approx(1.0, abs=0.01)

    def test_smallest_gain_mean_matches_moment(self):
        p = params(alpha=2, beta=3.0, nu=3.0, d=1.0, n_users=3)
        target = psi(p, 3, 1)
        gen = stream(11)
        h = gamma_variates(2, 3.0, (200_000, 3), gen)
        h.sort(axis=1)
        rho1 = h[:, 0] / 2.0
        se = rho1.std(ddof=1) / math.sqrt(rho1.size)
        assert abs(rho1.mean() - target) < 3 * se

    @pytest.mark.parametrize("alpha", range(1, 11))
    def test_variates_keep_the_summation_bits(self, alpha):
        # the sum of alpha log-uniforms must add in numpy's own order: left
        # to right below 8 terms, pairwise from 8 on
        shape = (1000, 5)
        h = gamma_variates(alpha, 3.0, shape, np.random.Generator(np.random.Philox(key=alpha)))
        u = np.random.Generator(np.random.Philox(key=alpha)).random(shape + (alpha,))
        assert np.array_equal(h, -3.0 * np.log1p(-u).sum(axis=-1))

    def test_sorted_and_scaled(self):
        # the engine's gains: sorted per trial before the path loss scales
        # each order position
        p = FadingParams(alpha=2, beta=1.0, nu=2.0, distances=(3.0, 2.0, 1.0))
        h = _sample_rho_chunk(p, seed=1, chunk_index=0, buffers=_ChunkBuffers(3, p.alpha, 1000))
        assert h.shape == (1000, 3)
        assert np.all(h >= 0) and np.all(np.diff(h, axis=1) >= 0)
        rho = h * p.path_loss_factors()
        np.testing.assert_allclose(rho, h / [10.0, 5.0, 2.0], rtol=1e-15)

    def test_determinism(self):
        p = params(alpha=2, beta=3.0, n_users=4)
        # separate buffers: a result lives in its buffers until the next draw
        a = _sample_rho_chunk(p, 42, 5, _ChunkBuffers(4, p.alpha, 100))
        b = _sample_rho_chunk(p, 42, 5, _ChunkBuffers(4, p.alpha, 100))
        assert np.array_equal(a, b)

    def test_sample_convergence_to_moments(self):
        p = params(alpha=2, beta=3.0, n_users=3)
        moments = order_stat_moments(p, 3)
        gen = stream(3)
        h = gamma_variates(2, 3.0, (1_000_000, 3), gen)
        h.sort(axis=1)
        for i in range(3):
            se = h[:, i].std(ddof=1) / math.sqrt(h.shape[0])
            assert abs(h[:, i].mean() - moments.psi[i]) < 3 * se
            sq = h[:, i] ** 2
            se2 = sq.std(ddof=1) / math.sqrt(h.shape[0])
            assert abs(sq.mean() - moments.omega[i]) < 3 * se2


class TestValidation:
    def test_non_integer_alpha_rejected(self):
        with pytest.raises(UnsupportedParameterError):
            FadingParams(alpha=2.5, beta=1.0, nu=2.0, distances=(1.0,))

    def test_alpha_limit(self):
        assert FadingParams(alpha=MAX_ALPHA, beta=1.0, nu=2.0, distances=(1.0,)).alpha == 400
        with pytest.raises(UnsupportedParameterError, match="at most 400, got 401"):
            FadingParams(alpha=MAX_ALPHA + 1, beta=1.0, nu=2.0, distances=(1.0,))

    def test_moment_table_bound(self):
        # alpha * M^2 <= MAX_MOMENT_TABLE: (400, 8) is accepted, and (400, 12),
        # which builds for several seconds, is refused before anything is built
        shape = dict(alpha=400, beta=1.0, nu=2.0)
        assert FadingParams(**shape, distances=(1.0,) * 8).n_users == 8
        _unscaled_table.cache_clear()
        start = time.perf_counter()
        with pytest.raises(ConfigurationError, match=r"^at most 8 at fading.alpha 400 .* got 12$"):
            order_stat_moments(FadingParams(**shape, distances=(1.0,) * 12), 12)
        assert time.perf_counter() - start < 0.5
        assert _unscaled_table.cache_info().currsize == 0

    def test_integral_float_alpha_accepted(self):
        p = FadingParams(alpha=2.0, beta=1.0, nu=2.0, distances=(1.0,))
        assert p.alpha == 2 and isinstance(p.alpha, int)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            moment_oracle(params(n_users=3), 3, 4, 1)
        with pytest.raises(ValueError):
            moment_oracle(params(n_users=3), 3, 0, 1)

    def test_user_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            order_stat_moments(params(n_users=3), 2)

    def test_bad_fading_values(self):
        with pytest.raises(ConfigurationError):
            FadingParams(alpha=1, beta=0.0, nu=2.0, distances=(1.0,))
        with pytest.raises(ConfigurationError):
            FadingParams(alpha=1, beta=1.0, nu=-1.0, distances=(1.0,))
        with pytest.raises(ConfigurationError):
            FadingParams(alpha=1, beta=1.0, nu=2.0, distances=(-1.0,))

    def test_realization_must_be_sorted(self):
        # the scalar SINR oracle takes the sorted gain vector and checks it
        cfg = NetworkConfig(n_users=2, a=(0.8, 0.2), r1=10.0)
        for rho in ([2.0, 1.0], [-1.0, 1.0], [np.nan, 1.0], [1.0, np.inf]):
            with pytest.raises(ConfigurationError):
                sinr_terms(np.array(rho), cfg, ImpairmentProfile.ideal(), 2, 1)

    def test_bad_moment_order(self):
        with pytest.raises(ValueError):
            moment_oracle(params(n_users=2), 2, 1, 3)
