"""Closed-form rates: hand values, an independent symbolic oracle, asymptotes."""

import math

from dataclasses import replace

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mwrnoma import (
    AsrResult,
    ConfigurationError,
    FadingParams,
    ImpairmentProfile,
    NetworkConfig,
    OrderStatMoments,
    asr,
    asr_affine,
    asr_asymptotic,
    order_stat_moments,
)
from mwrnoma._kernels import kernel_args
from mwrnoma.baseline import scheme_prefactor
from mwrnoma.channel import order_stat_moment_rows
from mwrnoma.rate import asr_rows
from scalar_oracle import decoder_rates, pair_indices

A3 = (0.5, 0.3, 0.2)
A4 = (0.5, 0.3, 0.15, 0.05)


@pytest.fixture(scope="module")
def setup3():
    fading = FadingParams(alpha=2, beta=3.0, nu=3.0, distances=(1.0,) * 3)
    moments = order_stat_moments(fading, 3)
    cfg = NetworkConfig(n_users=3, a=A3, r1=1000.0)
    return fading, moments, cfg


def cfg_at(cfg, r1):
    return replace(cfg, r1=r1)


KAPPAS = ("kappa_ut", "kappa_ur", "kappa_rt", "kappa_rr")


@st.composite
def closed_form_cases(draw, min_kappa=0.0):
    """A valid (moments, config, distortion profile): 2-5 users at 1-30 m,
    integer fading shape, any SNR from -20 to 60 dB."""
    M = draw(st.integers(2, 5))
    d = draw(st.lists(st.floats(1.0, 30.0), min_size=M, max_size=M))
    fading = FadingParams(
        alpha=draw(st.integers(1, 3)),
        beta=draw(st.floats(0.1, 10.0)),
        nu=draw(st.floats(0.0, 4.0)),
        distances=tuple(sorted(d, reverse=True)),
    )
    weights = sorted(draw(st.lists(st.integers(1, 1000), min_size=M, max_size=M, unique=True)))
    cfg = NetworkConfig(
        n_users=M,
        a=tuple(w / sum(weights) for w in reversed(weights)),
        r1=10.0 ** (draw(st.floats(-20.0, 60.0)) / 10.0),
        c=draw(st.floats(0.25, 4.0)),
    )
    imp = ImpairmentProfile(**{k: draw(st.floats(min_kappa, 0.4)) for k in KAPPAS})
    return order_stat_moments(fading, M), cfg, imp


def pair_denominators(moments, cfg, imp, r1):
    """(limit, excess) of each pair's SINR denominator, divided by r1 r2,
    in pair order: the high-SNR limit rho_k (residual + weighted * distortion)
    and the noise-driven terms rho_k (1 + krt2 + kur2) / r1,
    mac * weighted / r2 and 1 / (r1 r2) by which it exceeds that limit."""
    psi, a, M = moments.psi, np.asarray(cfg.a), cfg.n_users
    kut2, kur2, krt2, krr2 = (getattr(imp, k) ** 2 for k in KAPPAS)
    mac = 1.0 + kut2 + krr2
    weighted = float(psi @ a)
    r2 = cfg.c * r1
    for k, n in pair_indices(M):
        rho_k = psi[k - 1]
        residual = float(psi[n : M - 1] @ a[n : M - 1])
        limit = rho_k * (residual + weighted * (kut2 + krr2 + (krt2 + kur2) * mac))
        excess = rho_k * (1.0 + krt2 + kur2) / r1 + mac * weighted / r2 + 1.0 / (r1 * r2)
        yield limit, excess


def asymptote_gap_bound(moments, cfg, imp, r1):
    """Upper bound on asr_asymptotic - asr at r1 from the signal model.

    A relative excess delta of a pair's denominator over its limit costs
    the pair at most 1/2 log2(1 + delta); 8 eps of the limit covers the
    rounding of both sums.
    """
    bound = sum(
        0.5 * math.log1p(excess / limit) / math.log(2.0)
        for limit, excess in pair_denominators(moments, cfg, imp, r1)
    )
    limit_total = asr_asymptotic(moments, cfg, imp).total
    return bound + 8.0 * np.finfo(np.float64).eps * limit_total


def affine_residual_bounds(moments, cfg, prefactor, r1):
    """Bounds (low, high) on asr - slope (log2 r1 - offset) at r1 without
    distortion, from the signal model.

    Every pair but the last sits below its limit by at most
    prefactor log2(1 + excess / limit), as in ``asymptote_gap_bound``.
    The last pair (k=M, n=M-1) has SINR r1 G / (1 + e) with
    G = psi_M psi_{M-1} a_{M-1} / D, D = psi_M + weighted / c and
    e = 1 / (c r1 D), so its rate less prefactor log2(r1 G) lies between
    -prefactor log2(1 + e) and prefactor log2(1 + 1 / (r1 G)).  16 eps of
    the magnitudes summed covers the rounding.
    """
    psi, a = moments.psi, cfg.a
    terms = list(pair_denominators(moments, cfg, ImpairmentProfile(), r1))[:-1]
    gaps = sum(prefactor * math.log2(1.0 + excess / limit) for limit, excess in terms)
    D = psi[-1] + float(psi @ np.asarray(a)) / cfg.c
    G = psi[-1] * psi[-2] * a[-2] / D
    rate = asr(moments, replace(cfg, r1=r1), prefactor=prefactor).total
    limits = asr_asymptotic(moments, cfg, prefactor=prefactor).per_decoder
    rounding = 16.0 * np.finfo(np.float64).eps * (
        rate + limits[np.isfinite(limits)].sum()
        + prefactor * (abs(math.log2(r1)) + abs(math.log2(G)))
    )
    low = -gaps - prefactor * math.log1p(1.0 / (cfg.c * r1 * D)) / math.log(2.0)
    high = prefactor * math.log1p(1.0 / (r1 * G)) / math.log(2.0)
    return low - rounding, high + rounding


# tiny means and distortion: the gap at r1 = 1e16 is 2.45e-9, above
# 1e-9 of the limit but inside the model bound (2.54e-9)
SMALL_PSI = np.array([3.25376786e-6, 1.80836187e-5])
SLOW_APPROACH = (
    OrderStatMoments(psi=SMALL_PSI, omega=2.0 * SMALL_PSI**2),
    NetworkConfig(n_users=2, a=(2 / 3, 1 / 3), r1=1.0, c=0.25),
    ImpairmentProfile(kappa_ut=0.0625, kappa_ur=0.0625, kappa_rt=0.03125, kappa_rr=0.03125),
)


class TestPairRates:
    def test_one_rate_per_decoder(self, setup3):
        # decoder k's entry sums its pair rates at the moment-substituted gains
        _, moments, cfg = setup3
        for imp in (ImpairmentProfile(), ImpairmentProfile.uniform(0.2)):
            per_decoder = asr(moments, cfg, imp).per_decoder
            assert per_decoder.shape == (2,)
            assert list(per_decoder) == pytest.approx(
                decoder_rates(moments.psi, cfg, imp), rel=1e-12, abs=1e-15
            )

    def test_ideal_equals_nonideal_at_zero_distortion(self, setup3):
        # the ideal transceiver is the all-zero profile, the default
        _, moments, cfg = setup3
        ideal = asr(moments, cfg).per_decoder
        assert np.array_equal(asr(moments, cfg, ImpairmentProfile.uniform(0.0)).per_decoder, ideal)
        faint = asr(moments, cfg, ImpairmentProfile.uniform(1e-8)).per_decoder
        assert np.allclose(faint, ideal, rtol=1e-12, atol=0.0)

    def test_two_user_hand_value(self):
        # psi/omega of two unit exponentials, a=(0.7, 0.3), r1=r2=10
        moments = OrderStatMoments(psi=np.array([0.5, 1.5]), omega=np.array([0.5, 3.5]))
        cfg = NetworkConfig(n_users=2, a=(0.7, 0.3), r1=10.0)
        num = 1.5 * 0.5 * 0.7 * 100.0
        varpi = 10.0 * (0.7 * 0.5 + 0.3 * 1.5)
        expected = 0.5 * math.log2(1.0 + num / (varpi + 1.5 * 10.0 + 1.0))
        per_decoder = asr(moments, cfg).per_decoder
        assert per_decoder[0] == pytest.approx(expected, rel=1e-12)

    def test_vanishing_snr(self, setup3):
        _, moments, cfg = setup3
        small = asr(moments, cfg_at(cfg, 1e-9)).total
        assert small == pytest.approx(0.0, abs=1e-6)

    def test_against_independent_symbolic_evaluation(self):
        """Exact-rational term-by-term re-evaluation of the non-ideal rate."""
        # exact first moments for alpha=2, beta=3, M=3, d=1, nu=3
        psi = [sympy.Rational(13, 9), sympy.Rational(197, 72), sympy.Rational(347, 72)]
        a = [sympy.Rational(1, 2), sympy.Rational(3, 10), sympy.Rational(1, 5)]
        kut2 = kur2 = krt2 = krr2 = sympy.Rational(1, 25)
        r1 = r2 = sympy.Integer(1000)
        M = 3

        def symbolic_rate(k, n):
            K, N = k - 1, n - 1
            den = sympy.Integer(0)
            for i in range(n, M - 1):  # residual interference i = n+1 .. M-1
                den += psi[K] * psi[i] * a[i] * r1 * r2
            for i in range(M):
                den += psi[K] * psi[i] * kut2 * a[i] * r1 * r2
                den += krr2 * psi[K] * psi[i] * a[i] * r1 * r2
                den += psi[K] * psi[i] * krt2 * r1 * r2 * (a[i] + a[i] * kut2)
                den += psi[K] * psi[i] * krt2 * krr2 * a[i] * r1 * r2
                den += psi[K] * psi[i] * kur2 * r1 * r2 * (a[i] + a[i] * kut2 + a[i] * krr2)
                den += psi[i] * r1 * (a[i] + a[i] * kut2)
                den += psi[i] * krr2 * a[i] * r1
            den += kur2 * psi[K] * r2 + psi[K] * r2 + psi[K] * krt2 * r2 + 1
            num = psi[K] * psi[N] * a[N] * r1 * r2
            return sympy.Rational(1, 2) * sympy.log(1 + num / den) / sympy.log(2)

        fading = FadingParams(alpha=2, beta=3.0, nu=3.0, distances=(1.0,) * 3)
        moments = order_stat_moments(fading, 3)
        cfg = NetworkConfig(n_users=3, a=A3, r1=1000.0)
        imp = ImpairmentProfile.uniform(0.2)
        per_decoder = asr(moments, cfg, imp).per_decoder
        for k in range(2, 4):
            expected = float(sum(symbolic_rate(k, n) for n in range(1, k)).evalf(30))
            assert per_decoder[k - 2] == pytest.approx(expected, rel=1e-12)

    def test_mismatched_moments_rejected(self, setup3):
        _, moments, _ = setup3
        cfg4 = NetworkConfig(n_users=4, a=A4, r1=100.0)
        with pytest.raises(Exception):
            asr(moments, cfg4)


class TestAsr:
    def test_two_users_single_pair(self):
        moments = OrderStatMoments(psi=np.array([1.0, 1.5]), omega=np.array([2.0, 3.5]))
        cfg = NetworkConfig(n_users=2, a=(0.7, 0.3), r1=10.0)
        result = asr(moments, cfg)
        num = 1.5 * 1.0 * 0.7 * 100.0
        varpi = 10.0 * (0.7 * 1.0 + 0.3 * 1.5)
        expected = 0.5 * math.log2(1.0 + num / (varpi + 1.5 * 10.0 + 1.0))
        assert result.total == pytest.approx(expected, rel=1e-12)
        assert result.per_decoder.shape == (1,)
        assert result.per_decoder[0] == result.total

    def test_total_equals_pair_sum(self, setup3):
        _, moments, cfg = setup3
        result = asr(moments, cfg, ImpairmentProfile.uniform(0.1))
        assert result.total == pytest.approx(float(result.per_decoder.sum()), abs=1e-12)

    def test_distortion_monotonicity(self, setup3):
        _, moments, cfg = setup3
        totals = [
            asr(moments, cfg, ImpairmentProfile.uniform(v)).total
            for v in np.arange(0.0, 0.31, 0.05)
        ]
        assert all(x > y for x, y in zip(totals, totals[1:]))

    def test_ideal_dominates_nonideal(self, setup3):
        _, moments, cfg = setup3
        ideal = asr(moments, cfg).total
        assert asr(moments, cfg, ImpairmentProfile.ideal()).total == pytest.approx(ideal)
        assert asr(moments, cfg, ImpairmentProfile.uniform(0.05)).total < ideal

    def test_nondecreasing_in_snr_with_ceiling(self, setup3):
        _, moments, cfg = setup3
        imp = ImpairmentProfile.uniform(0.2)
        grid = [10.0 ** (db / 10.0) for db in range(0, 65, 5)]
        totals = [asr(moments, cfg_at(cfg, r), imp).total for r in grid]
        assert all(y >= x for x, y in zip(totals, totals[1:]))
        ceiling = asr_asymptotic(moments, cfg, imp).total
        assert all(t <= ceiling * (1 + 1e-9) for t in totals)

    def test_result_validation(self):
        with pytest.raises(Exception):
            AsrResult(per_decoder=np.array([1.0]), total=2.0, provenance="analytical")
        with pytest.raises(Exception):
            AsrResult(per_decoder=np.array([1.0]), total=1.0, provenance="guesswork")

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigurationError):
            AsrResult(per_decoder=[math.nan], total=math.nan, provenance="analytical")
        with pytest.raises(ConfigurationError):
            AsrResult(per_decoder=[1.0], total=math.nan, provenance="monte-carlo")
        with pytest.raises(ConfigurationError):
            AsrResult(per_decoder=[math.inf], total=math.inf, provenance="analytical")
        # +inf stays the documented marker of a divergent asymptote
        limit = AsrResult(per_decoder=[math.inf], total=math.inf, provenance="asymptotic")
        assert math.isinf(limit.total)


class TestAsymptotics:
    def test_zero_distortion_limit_matches_ideal(self, setup3):
        _, moments, cfg = setup3
        ni = asr_asymptotic(moments, cfg, ImpairmentProfile.uniform(0.0))
        ideal = asr_asymptotic(moments, cfg)
        finite = np.isfinite(ideal.per_decoder)
        assert np.allclose(ni.per_decoder[finite], ideal.per_decoder[finite], rtol=1e-12)
        assert np.array_equal(np.isfinite(ni.per_decoder), finite)

    def test_empty_interference_pair_diverges(self, setup3):
        _, moments, cfg = setup3
        result = asr_asymptotic(moments, cfg)
        # decoder k=3 decoding n=2 has nothing left; decoder 2 is bounded
        assert math.isinf(result.per_decoder[1]) and math.isfinite(result.per_decoder[0])
        assert math.isinf(result.total)
        assert math.isfinite(asr_affine(moments, cfg)[1])
        assert result.notes == ("decoder k=3 has no interference ceiling: asymptote diverges",)

    def test_nonideal_asymptote_is_finite_and_reached(self, setup3):
        _, moments, cfg = setup3
        imp = ImpairmentProfile.uniform(0.2)
        limit = asr_asymptotic(moments, cfg, imp)
        assert math.isfinite(limit.total)
        at60 = asr(moments, cfg_at(cfg, 1e6), imp).total
        assert at60 == pytest.approx(limit.total, rel=0.01)

    def test_finite_at_extreme_snr(self, setup3):
        # r1 * r2 overflows here; the scaled formula never forms it
        _, moments, cfg = setup3
        imp = ImpairmentProfile.uniform(0.2)
        result = asr(moments, cfg_at(cfg, 1e200), imp)
        limit = asr_asymptotic(moments, cfg, imp)
        assert np.all(np.isfinite(result.per_decoder))
        assert result.total == pytest.approx(limit.total, rel=1e-9)

    def test_pointwise_convergence(self, setup3):
        _, moments, cfg = setup3
        imp = ImpairmentProfile.uniform(0.15)
        limit = asr_asymptotic(moments, cfg, imp)
        curve = asr(moments, cfg_at(cfg, 1e7), imp)
        assert np.allclose(curve.per_decoder, limit.per_decoder, rtol=1e-3)


class TestClosedFormProperties:
    @settings(max_examples=60, deadline=None)
    @given(closed_form_cases(), st.floats(0.0, 40.0))
    def test_finite_and_nondecreasing_in_snr(self, case, gain_db):
        moments, cfg, imp = case
        low = asr(moments, cfg, imp)
        high = asr(moments, cfg_at(cfg, cfg.r1 * 10.0 ** (gain_db / 10.0)), imp)
        assert np.isfinite(low.per_decoder).all() and math.isfinite(low.total)
        assert math.isfinite(high.total)
        assert high.total >= low.total - 1e-12 * low.total

    @settings(max_examples=60, deadline=None)
    @given(closed_form_cases(), st.sampled_from(KAPPAS), st.floats(0.0, 0.3))
    def test_nonincreasing_in_each_kappa(self, case, kappa, step):
        moments, cfg, imp = case
        worse = replace(imp, **{kappa: getattr(imp, kappa) + step})
        assert asr(moments, cfg, worse).total <= asr(moments, cfg, imp).total * (1 + 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(closed_form_cases(min_kappa=0.01))
    @example(SLOW_APPROACH)
    def test_tends_to_asymptote(self, case):
        moments, cfg, imp = case
        limit = asr_asymptotic(moments, cfg, imp).total
        assert math.isfinite(limit)
        gaps = [limit - asr(moments, cfg_at(cfg, r1), imp).total for r1 in (1e4, 1e8, 1e16)]
        # approached from below, ever closer, within the model's bound
        assert all(g >= -1e-12 * limit for g in gaps)
        assert gaps[0] >= gaps[1] >= gaps[2]
        assert gaps[2] <= asymptote_gap_bound(moments, cfg, imp, 1e16)

    @settings(max_examples=30, deadline=None)
    @given(closed_form_cases(), st.integers(1, 64), st.randoms(use_true_random=False))
    def test_rows_equal_one_row_evaluations(self, case, n_rows, rnd):
        moments, cfg, imp = case
        # rows of rescaled means, as a placement surface produces
        psi = np.array([moments.psi * rnd.uniform(1e-3, 1.0) for _ in range(n_rows)])
        totals, fault = asr_rows(psi, cfg.a, kernel_args(cfg, imp))
        assert fault is None
        one_row = [
            asr(OrderStatMoments(psi=row, omega=moments.omega), cfg, imp, 1.0).total
            for row in psi
        ]
        assert np.array_equal(totals, one_row)

    @settings(max_examples=30, deadline=None)
    @given(
        closed_form_cases(),
        st.lists(
            st.tuples(st.floats(-20.0, 60.0), st.floats(0.0, 0.4), st.sampled_from(("noma", "oma"))),
            min_size=1,
            max_size=40,
        ),
    )
    def test_per_row_arguments_equal_one_row_evaluations(self, case, points):
        # an SNR or distortion sweep: an SNR, a profile and a scheme share
        # per row, all rows in one kernel call
        moments, cfg, _ = case
        cfgs = [cfg_at(cfg, 10.0 ** (db / 10.0)) for db, _, _ in points]
        imps = [ImpairmentProfile.uniform(kappa) for _, kappa, _ in points]
        shares = [scheme_prefactor(scheme, cfg.n_users) for _, _, scheme in points]
        psi = np.broadcast_to(moments.psi, (len(points), cfg.n_users))
        args = [kernel_args(c, imp) for c, imp in zip(cfgs, imps)]
        totals, fault = asr_rows(psi, cfg.a, args)
        assert fault is None
        for row, (c, imp, share) in enumerate(zip(cfgs, imps, shares)):
            assert totals[row] * share == asr(moments, c, imp, share).total

    def test_row_total_does_not_depend_on_its_batch(self):
        # at M = 12 a row has 11 decoder rates, enough for numpy's pairwise
        # sum of one row to differ from the column-by-column sum of a
        # batch; every total adds its rates left to right instead
        M = 12
        raw = np.arange(M, 0, -1.0)
        cfg = NetworkConfig(n_users=M, a=tuple(raw / raw.sum()), r1=100.0)
        fading = FadingParams(alpha=2, beta=3.0, nu=3.0, distances=(1.0,) * M)
        dist = -np.sort(-np.random.default_rng(0).uniform(10.0, 30.0, (200, M)), axis=1)
        psi, omega, fault = order_stat_moment_rows(fading, dist)
        assert fault is None
        imp = ImpairmentProfile.uniform(0.1)
        args = kernel_args(cfg, imp)
        totals, fault = asr_rows(psi, cfg.a, args)
        assert fault is None
        for row, (p, w) in enumerate(zip(psi, omega)):
            assert asr_rows(p[None, :], cfg.a, args)[0][0] == totals[row]
            assert asr(OrderStatMoments(psi=p, omega=w), cfg, imp, 1.0).total == totals[row]

    def test_first_faulting_row_named(self, setup3):
        # rows 2 and 4 give NaN rates; the batch names row 2, with the
        # error that row gives alone, and keeps the rows before it
        _, moments, cfg = setup3
        psi = np.tile(moments.psi, (6, 1))
        psi[[2, 4], 0] = np.nan
        args = [kernel_args(cfg_at(cfg, 10.0**db), ImpairmentProfile()) for db in range(6)]
        totals, fault = asr_rows(psi, cfg.a, args)
        row, error = fault
        assert row == 2 and totals.shape[0] == 2
        _, (alone_row, alone) = asr_rows(psi[2:3], cfg.a, args[2])
        assert alone_row == 0 and isinstance(error, ConfigurationError)
        assert str(error) == str(alone) == "analytical rates must be finite, got total nan"


# tiny means at the two weakest positions: the last pair's gain G is
# 1.35e-5 and the offset 14.7028, so the residual is +0.854 at 40 dB and
# falls as 1/r1 only above about 110 dB
SLOW_PSI = np.array([2e-5, 5e-5, 0.5])
SLOW_AFFINE = (
    OrderStatMoments(psi=SLOW_PSI, omega=2.0 * SLOW_PSI**2),
    NetworkConfig(n_users=3, a=A3, r1=1.0, c=1.8),
    ImpairmentProfile(),
)


# (n_users, a, c, fading alpha, beta, nu, distances, prefactor, profile
# level) and the (slope, offset, ceiling) that summing the per-pair limits
# and taking the gain of pair (k=M, n=M-1) gave before the decoder rates
# telescoped; r1 does not enter
A8 = (0.35, 0.22, 0.15, 0.1, 0.07, 0.05, 0.04, 0.02)
AFFINE_CASES = [
    ((4, A4, 1.0, 2, 3.0, 3.0, (1.0,) * 4, 0.5, 0.0), (0.5, -2.766863306116114, math.inf)),
    ((8, A8, 1.0, 2, 3.0, 3.0, (1.0,) * 8, 0.5, 0.0), (0.5, -9.104723953193062, math.inf)),
    (
        (8, A8, 0.5, 3, 2.0, 2.5, (4.0, 3.5, 3.0, 2.5, 2.0, 1.5, 1.2, 1.0), 0.2, 0.0),
        (0.2, -2.2201178430317667, math.inf),
    ),
    (
        (5, (0.4, 0.25, 0.17, 0.11, 0.07), 2.0, 1, 0.5, 3.0, (3.0, 2.5, 2.0, 1.5, 1.0), 1 / 3, 0.0),
        (1 / 3, 4.068654084761067, math.inf),
    ),
    ((3, A3, 1.8, 2, 3.0, 3.0, (1.0,) * 3, 0.5, 0.0), (0.5, -1.1701833667574975, math.inf)),
    ((4, A4, 1.0, 2, 3.0, 3.0, (1.0,) * 4, 0.5, 0.1), (0.0, math.inf, 3.3643578120200273)),
    ((4, A4, 1.0, 2, 3.0, 3.0, (1.0,) * 4, 1 / 3, 0.1), (0.0, math.inf, 2.2429052080133514)),
]


class TestAffineExpansion:
    @pytest.mark.parametrize("case, want", AFFINE_CASES)
    def test_matches_the_per_pair_expansion(self, case, want):
        M, a, c, alpha, beta, nu, distances, prefactor, kappa = case
        fading = FadingParams(alpha=alpha, beta=beta, nu=nu, distances=distances)
        cfg = NetworkConfig(n_users=M, a=a, r1=1.0, c=c)
        imp = ImpairmentProfile.uniform(kappa)
        got = asr_affine(order_stat_moments(fading, M), cfg, imp, prefactor)
        assert got == pytest.approx(want, rel=1e-12)

    def test_two_user_hand_value(self):
        # one pair, which diverges: offset = -log2 G
        moments = OrderStatMoments(psi=np.array([0.5, 1.5]), omega=np.array([0.5, 3.5]))
        cfg = NetworkConfig(n_users=2, a=(0.7, 0.3), r1=10.0, c=2.0)
        gain = 1.5 * 0.5 * 0.7 / (1.5 + (0.7 * 0.5 + 0.3 * 1.5) / 2.0)
        slope, offset, ceiling = asr_affine(moments, cfg)
        assert slope == 0.5 and math.isinf(ceiling)
        assert offset == pytest.approx(-math.log2(gain), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(closed_form_cases(), st.sampled_from(("noma", "oma")), st.booleans())
    @example(SLOW_AFFINE, "noma", False)
    def test_expansion_within_model_bound(self, case, scheme, distorted):
        moments, cfg, imp = case
        prefactor = scheme_prefactor(scheme, cfg.n_users)
        if distorted:
            imp = replace(imp, kappa_ut=imp.kappa_ut + 0.01)
            limit = asr_asymptotic(moments, cfg, imp, prefactor).total
            assert asr_affine(moments, cfg, imp, prefactor) == (0.0, math.inf, limit)
            return
        slope, offset, ceiling = asr_affine(moments, cfg, prefactor=prefactor)
        assert slope == prefactor and math.isfinite(offset) and math.isinf(ceiling)
        # from noise-limited to far past the asymptote: the residual obeys
        # the model's bound, which decays as 1/r1
        for snr_db in range(0, 170, 20):
            r1 = 10.0 ** (snr_db / 10.0)
            rate = asr(moments, cfg_at(cfg, r1), prefactor=prefactor).total
            residual = rate - slope * (math.log2(r1) - offset)
            low, high = affine_residual_bounds(moments, cfg, prefactor, r1)
            assert low <= residual <= high
