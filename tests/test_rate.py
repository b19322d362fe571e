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
    asr_asymptotic,
    high_snr_offset,
    high_snr_slope,
    order_stat_moments,
)
from mwrnoma.rate import asr_rows, pair_indices

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


def asymptote_gap_bound(moments, cfg, imp, r1):
    """Upper bound on asr_asymptotic - asr at r1 from the signal model.

    Each pair's SINR denominator (divided by r1 r2) exceeds its high-SNR
    limit by the noise-driven terms rho_k (1 + krt2 + kur2) / r1,
    mac * weighted / r2 and 1 / (r1 r2).  A relative excess delta costs
    the pair at most 1/2 log2(1 + delta); 8 eps of the limit covers the
    rounding of both sums.
    """
    psi, a, M = moments.psi, np.asarray(cfg.a), cfg.n_users
    kut2, kur2, krt2, krr2 = (getattr(imp, k) ** 2 for k in KAPPAS)
    mac = 1.0 + kut2 + krr2
    weighted = float(psi @ a)
    r2 = cfg.c * r1
    bound = 0.0
    for k, n in pair_indices(M):
        rho_k = psi[k - 1]
        residual = float(psi[n : M - 1] @ a[n : M - 1])
        limit = rho_k * (residual + weighted * (kut2 + krr2 + (krt2 + kur2) * mac))
        excess = rho_k * (1.0 + krt2 + kur2) / r1 + mac * weighted / r2 + 1.0 / (r1 * r2)
        bound += 0.5 * math.log1p(excess / limit) / math.log(2.0)
    limit_total = asr_asymptotic(moments, cfg, imp).total
    return bound + 8.0 * np.finfo(np.float64).eps * limit_total


# tiny means and distortion: the gap at r1 = 1e16 is 2.45e-9, above
# 1e-9 of the limit but inside the model bound (2.54e-9)
SMALL_PSI = np.array([3.25376786e-6, 1.80836187e-5])
SLOW_APPROACH = (
    OrderStatMoments(psi=SMALL_PSI, omega=2.0 * SMALL_PSI**2),
    NetworkConfig(n_users=2, a=(2 / 3, 1 / 3), r1=1.0, c=0.25),
    ImpairmentProfile(kappa_ut=0.0625, kappa_ur=0.0625, kappa_rt=0.03125, kappa_rr=0.03125),
)


class TestPairRates:
    def test_zero_for_undecodable_pairs(self, setup3):
        _, moments, cfg = setup3
        nonideal = asr(moments, cfg, ImpairmentProfile.uniform(0.2)).per_pair
        ideal = asr(moments, cfg).per_pair
        for k in range(1, 4):
            for n in range(k, 3):
                assert nonideal[k - 1, n - 1] == 0.0
                assert ideal[k - 1, n - 1] == 0.0

    def test_ideal_equals_nonideal_at_zero_distortion(self, setup3):
        # the ideal transceiver is the all-zero profile, the default
        _, moments, cfg = setup3
        ideal = asr(moments, cfg).per_pair
        assert np.array_equal(asr(moments, cfg, ImpairmentProfile.uniform(0.0)).per_pair, ideal)
        faint = asr(moments, cfg, ImpairmentProfile.uniform(1e-8)).per_pair
        assert np.allclose(faint, ideal, rtol=1e-12, atol=0.0)

    def test_two_user_hand_value(self):
        # psi/omega of two unit exponentials, a=(0.7, 0.3), r1=r2=10
        moments = OrderStatMoments(psi=np.array([0.5, 1.5]), omega=np.array([0.5, 3.5]))
        cfg = NetworkConfig(n_users=2, a=(0.7, 0.3), r1=10.0)
        num = 1.5 * 0.5 * 0.7 * 100.0
        varpi = 10.0 * (0.7 * 0.5 + 0.3 * 1.5)
        expected = 0.5 * math.log2(1.0 + num / (varpi + 1.5 * 10.0 + 1.0))
        per_pair = asr(moments, cfg).per_pair
        assert per_pair[1, 0] == pytest.approx(expected, rel=1e-12)

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
        for k in range(2, 4):
            for n in range(1, k):
                expected = float(symbolic_rate(k, n).evalf(30))
                got = asr(moments, cfg, imp).per_pair[k - 1, n - 1]
                assert got == pytest.approx(expected, rel=1e-12)

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
        assert result.per_pair.shape == (2, 1)
        assert result.per_pair[0, 0] == 0.0

    def test_total_equals_pair_sum(self, setup3):
        _, moments, cfg = setup3
        result = asr(moments, cfg, ImpairmentProfile.uniform(0.1))
        assert result.total == pytest.approx(float(result.per_pair.sum()), abs=1e-12)

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
            AsrResult(per_pair=np.array([[1.0]]), total=2.0, provenance="analytical")
        with pytest.raises(Exception):
            AsrResult(per_pair=np.array([[1.0]]), total=1.0, provenance="guesswork")

    def test_non_finite_rejected(self):
        with pytest.raises(ConfigurationError):
            AsrResult(per_pair=[[math.nan]], total=math.nan, provenance="analytical")
        with pytest.raises(ConfigurationError):
            AsrResult(per_pair=[[1.0]], total=math.nan, provenance="monte-carlo")
        with pytest.raises(ConfigurationError):
            AsrResult(per_pair=[[math.inf]], total=math.inf, provenance="analytical")
        # +inf stays the documented marker of a divergent asymptote
        limit = AsrResult(per_pair=[[math.inf]], total=math.inf, provenance="asymptotic")
        assert math.isinf(limit.total)


class TestAsymptotics:
    def test_zero_distortion_limit_matches_ideal(self, setup3):
        _, moments, cfg = setup3
        ni = asr_asymptotic(moments, cfg, ImpairmentProfile.uniform(0.0))
        ideal = asr_asymptotic(moments, cfg)
        finite = np.isfinite(ideal.per_pair)
        assert np.allclose(ni.per_pair[finite], ideal.per_pair[finite], rtol=1e-12)
        assert np.array_equal(np.isfinite(ni.per_pair), finite)

    def test_empty_interference_pair_diverges(self, setup3):
        _, moments, cfg = setup3
        result = asr_asymptotic(moments, cfg)
        assert math.isinf(result.per_pair[2, 1])  # k=3 decoding n=2: nothing left
        assert math.isinf(result.total)
        assert result.finite_total is not None and math.isfinite(result.finite_total)
        assert any("k=3, n=2" in note for note in result.notes)

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
        assert np.all(np.isfinite(result.per_pair))
        assert result.total == pytest.approx(limit.total, rel=1e-9)

    def test_pointwise_convergence(self, setup3):
        _, moments, cfg = setup3
        imp = ImpairmentProfile.uniform(0.15)
        limit = asr_asymptotic(moments, cfg, imp)
        curve = asr(moments, cfg_at(cfg, 1e7), imp)
        assert np.allclose(curve.per_pair, limit.per_pair, rtol=1e-3)


class TestClosedFormProperties:
    @settings(max_examples=60, deadline=None)
    @given(closed_form_cases(), st.floats(0.0, 40.0))
    def test_finite_and_nondecreasing_in_snr(self, case, gain_db):
        moments, cfg, imp = case
        low = asr(moments, cfg, imp)
        high = asr(moments, cfg_at(cfg, cfg.r1 * 10.0 ** (gain_db / 10.0)), imp)
        assert np.isfinite(low.per_pair).all() and math.isfinite(low.total)
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
        _, totals, fault = asr_rows(psi, cfg, imp)
        assert fault is None
        one_row = [
            asr(OrderStatMoments(psi=row, omega=moments.omega), cfg, imp).total for row in psi
        ]
        assert np.array_equal(totals, one_row)


class TestSlopeOffset:
    def test_calibration_unit_slope(self):
        r = [10.0**4, 10.0**5, 10.0**6]
        y = [math.log2(v) for v in r]
        assert high_snr_slope(r, y) == pytest.approx(1.0, abs=1e-9)

    def test_calibration_offset_shift(self):
        r = [10.0**4, 10.0**5, 10.0**6]
        y = [math.log2(v) - 2.0 for v in r]
        slope = high_snr_slope(r, y)
        assert high_snr_offset(r, y, slope) == pytest.approx(2.0, abs=1e-9)

    def test_calibration_offset_quarter_snr(self):
        r = [10.0**4, 10.0**5, 10.0**6]
        y = [math.log2(v / 4.0) for v in r]
        slope = high_snr_slope(r, y)
        assert high_snr_offset(r, y, slope) == pytest.approx(2.0, abs=1e-9)

    def test_system_curves_have_zero_slope_divergent_offset(self, setup3):
        _, moments, cfg = setup3
        imp = ImpairmentProfile.uniform(0.2)
        r = [10.0 ** (db / 10.0) for db in (40, 50, 60)]
        y = [asr(moments, cfg_at(cfg, v), imp).total for v in r]
        slope = high_snr_slope(r, y)
        assert abs(slope) < 0.05
        assert math.isinf(high_snr_offset(r, y, slope))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            high_snr_slope([1.0, 10.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            high_snr_slope([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])  # 4.8 dB span
        with pytest.raises(ValueError):
            high_snr_slope([1.0, 100.0, 10.0], [1.0, 2.0, 3.0])
