"""Fading model: moment closed forms against quadrature and sampling."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwrnoma import (
    ChannelRealization,
    ConfigurationError,
    FadingParams,
    NumericError,
    UnsupportedParameterError,
    derive_trial_stream,
    gamma_variates,
    moment_oracle,
    omega_moment,
    order_stat_moments,
    psi_moment,
    sample_channel_gains,
)
from mwrnoma.channel import _unscaled_moment, order_stat_moment_rows


def params(alpha=1, beta=1.0, nu=2.0, d=0.0, n_users=1):
    return FadingParams(alpha=alpha, beta=beta, nu=nu, distances=(d,) * n_users)


class TestClosedFormTrivial:
    def test_single_exponential_mean(self):
        # M=1: plain Exp(1) mean
        assert psi_moment(params(), 1, 1) == pytest.approx(1.0, abs=1e-12)

    def test_single_exponential_second_moment(self):
        assert omega_moment(params(), 1, 1) == pytest.approx(2.0, abs=1e-12)

    def test_max_of_two_exponentials(self):
        p = params(n_users=2)
        assert psi_moment(p, 2, 2) == pytest.approx(1.5, abs=1e-12)
        assert omega_moment(p, 2, 2) == pytest.approx(3.5, abs=1e-12)

    def test_path_loss_scaling(self):
        # d=1, nu=3 divides the mean by 2 and the second moment by 4
        p = params(alpha=2, beta=3.0, nu=3.0, d=1.0, n_users=3)
        # exact rationals: unscaled means are 3*(26/27, 197/108, 347/108)
        assert psi_moment(p, 3, 1) == pytest.approx(26 / 27 * 3 / 2, rel=1e-12)
        assert psi_moment(p, 3, 2) == pytest.approx(197 / 108 * 3 / 2, rel=1e-12)
        assert omega_moment(p, 3, 3) == pytest.approx(4069 / 324 * 9 / 4, rel=1e-12)

    def test_rows_equal_scalar_formula(self):
        # float(q) beta^p / (1 + d^nu)^p with Python's float pow, per entry:
        # numpy's vectorised pow and x * x differ from it in the last bit
        # on a share of these distances
        p = params(alpha=2, beta=3.0, nu=3.0, n_users=4)
        d = -np.sort(-np.random.default_rng(5).uniform(10.0, 40.0, size=(5000, 4)), axis=1)
        psi, omega, fault = order_stat_moment_rows(p, d)
        assert fault is None
        for power, table in ((1, psi), (2, omega)):
            unscaled = [float(_unscaled_moment(2, 4, i, power)) * 3.0**power for i in range(1, 5)]
            expected = [
                [u / (1.0 + dist**3.0) ** power for u, dist in zip(unscaled, row)]
                for row in d.tolist()
            ]
            assert np.array_equal(table, expected)

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


class TestOracleAgreement:
    @pytest.mark.parametrize("alpha,beta", [(1, 1.0), (2, 3.0), (3, 2.0)])
    @pytest.mark.parametrize("n_users", [2, 3])
    def test_closed_form_matches_quadrature(self, alpha, beta, n_users):
        p = params(alpha=alpha, beta=beta, nu=3.0, d=1.0, n_users=n_users)
        for i in range(1, n_users + 1):
            assert psi_moment(p, n_users, i) == pytest.approx(
                moment_oracle(p, n_users, i, 1), rel=1e-6
            )
            assert omega_moment(p, n_users, i) == pytest.approx(
                moment_oracle(p, n_users, i, 2), rel=1e-6
            )

    def test_oracle_trivial_values(self):
        assert moment_oracle(params(n_users=2), 2, 2, 1) == pytest.approx(1.5, rel=1e-6)
        assert moment_oracle(params(), 1, 1, 2) == pytest.approx(2.0, rel=1e-6)

    def test_oracle_against_big_monte_carlo(self):
        # alpha=2, beta=3, M=5, middle position, first moment
        p = params(alpha=2, beta=3.0, n_users=5)
        target = moment_oracle(p, 5, 3, 1)
        gen = derive_trial_stream(2024, 0)
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
            total = sum(psi_moment(p, n_users, i) for i in range(1, n_users + 1))
            assert total == pytest.approx(n_users * alpha * beta, rel=1e-12)


class TestSampling:
    def test_exponential_identity(self):
        gen = derive_trial_stream(7, 0)
        draws = gamma_variates(1, 1.0, 1_000_000, gen)
        assert draws.mean() == pytest.approx(1.0, abs=0.01)

    def test_smallest_gain_mean_matches_moment(self):
        p = params(alpha=2, beta=3.0, nu=3.0, d=1.0, n_users=3)
        target = psi_moment(p, 3, 1)
        gen = derive_trial_stream(11, 0)
        h = gamma_variates(2, 3.0, (200_000, 3), gen)
        h.sort(axis=1)
        rho1 = h[:, 0] / 2.0
        se = rho1.std(ddof=1) / math.sqrt(rho1.size)
        assert abs(rho1.mean() - target) < 3 * se

    def test_sorted_and_scaled(self):
        p = FadingParams(alpha=2, beta=1.0, nu=2.0, distances=(3.0, 2.0, 1.0))
        real = sample_channel_gains(p, 3, derive_trial_stream(1, 0))
        assert real.rho.shape == (3,)
        assert np.all(real.rho >= 0)

    def test_determinism(self):
        p = params(alpha=2, beta=3.0, n_users=4)
        a = sample_channel_gains(p, 4, derive_trial_stream(42, 5))
        b = sample_channel_gains(p, 4, derive_trial_stream(42, 5))
        assert np.array_equal(a.rho, b.rho)

    def test_sample_convergence_to_moments(self):
        p = params(alpha=2, beta=3.0, n_users=3)
        moments = order_stat_moments(p, 3)
        gen = derive_trial_stream(3, 0)
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

    def test_integral_float_alpha_accepted(self):
        p = FadingParams(alpha=2.0, beta=1.0, nu=2.0, distances=(1.0,))
        assert p.alpha == 2 and isinstance(p.alpha, int)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            psi_moment(params(n_users=3), 3, 4)
        with pytest.raises(ValueError):
            psi_moment(params(n_users=3), 3, 0)

    def test_user_count_mismatch(self):
        with pytest.raises(ConfigurationError):
            psi_moment(params(n_users=3), 2, 1)

    def test_sampling_needs_two_users(self):
        with pytest.raises(ConfigurationError):
            sample_channel_gains(params(n_users=1), 1, derive_trial_stream(0, 0))

    def test_bad_fading_values(self):
        with pytest.raises(ConfigurationError):
            FadingParams(alpha=1, beta=0.0, nu=2.0, distances=(1.0,))
        with pytest.raises(ConfigurationError):
            FadingParams(alpha=1, beta=1.0, nu=-1.0, distances=(1.0,))
        with pytest.raises(ConfigurationError):
            FadingParams(alpha=1, beta=1.0, nu=2.0, distances=(-1.0,))

    def test_realization_must_be_sorted(self):
        with pytest.raises(ConfigurationError):
            ChannelRealization(rho=np.array([2.0, 1.0]))
        with pytest.raises(ConfigurationError):
            ChannelRealization(rho=np.array([-1.0, 1.0]))

    def test_bad_moment_order(self):
        with pytest.raises(ValueError):
            moment_oracle(params(n_users=2), 2, 1, 3)
