"""Instantaneous SINR chain: hand-computed cases and structural invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwrnoma import ConfigurationError, ImpairmentProfile, NetworkConfig
from scalar_oracle import sinr_instantaneous, sinr_terms


def realization(*rho):
    return np.array(rho, dtype=float)


def config(n_users, a, r1, c=1.0):
    return NetworkConfig(n_users=n_users, a=tuple(a), r1=r1, c=c)


class TestSinr:
    def test_zero_when_not_decodable(self):
        cfg = config(3, (0.5, 0.3, 0.2), r1=10.0)
        real = realization(0.5, 1.0, 2.0)
        imp = ImpairmentProfile.uniform(0.1)
        for k in range(1, 4):
            for n in range(k, 4):
                assert sinr_instantaneous(real, cfg, imp, k, n) == 0.0

    def test_hand_value_two_users(self):
        cfg = config(2, (0.8, 0.2), r1=10.0)
        g = sinr_instantaneous(realization(1.0, 1.0), cfg, ImpairmentProfile.ideal(), 2, 1)
        assert g == pytest.approx(80.0 / 21.0, rel=1e-12)

    def test_interference_limited_regime(self):
        # ideal, huge SNR: gamma -> a_n rho_n / sum_{i=n+1}^{M-1} a_i rho_i
        cfg = config(3, (0.5, 0.3, 0.2), r1=1e9)
        real = realization(0.5, 1.0, 2.0)
        g = sinr_instantaneous(real, cfg, ImpairmentProfile.ideal(), 3, 1)
        assert g == pytest.approx((0.5 * 0.5) / (0.3 * 1.0), rel=1e-3)

    def test_ideal_term_collapse(self):
        cfg = config(3, (0.5, 0.3, 0.2), r1=100.0)
        real = realization(0.5, 1.0, 2.0)
        t = sinr_terms(real, cfg, ImpairmentProfile.ideal(), 3, 1)
        assert t.theta2 == 0.0 and t.theta3 == 0.0
        weighted = 0.5 * 0.5 + 0.3 * 1.0 + 0.2 * 2.0
        assert t.theta4 == pytest.approx(100.0 * weighted, rel=1e-12)
        assert t.theta5 == pytest.approx(2.0 * 100.0 + 1.0, rel=1e-12)

    def test_zero_iff_no_signal(self):
        cfg = config(3, (0.5, 0.3, 0.2), r1=10.0)
        imp = ImpairmentProfile.uniform(0.1)
        assert sinr_instantaneous(realization(0.0, 1.0, 2.0), cfg, imp, 3, 1) == 0.0
        assert sinr_instantaneous(realization(0.5, 1.0, 2.0), cfg, imp, 3, 1) > 0.0

    def test_index_errors(self):
        cfg = config(2, (0.8, 0.2), r1=10.0)
        real = realization(1.0, 1.0)
        imp = ImpairmentProfile.ideal()
        with pytest.raises(ValueError):
            sinr_instantaneous(real, cfg, imp, 3, 1)
        with pytest.raises(ValueError):
            sinr_instantaneous(real, cfg, imp, 0, 1)
        with pytest.raises(ValueError):
            sinr_instantaneous(real, cfg, imp, 2, 3)

    @given(
        kappas=st.tuples(*[st.floats(0.0, 0.5) for _ in range(4)]),
        bump=st.floats(0.01, 0.4),
        stage=st.integers(0, 3),
        rho=st.lists(st.floats(0.01, 20.0), min_size=3, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_each_distortion(self, kappas, bump, stage, rho):
        cfg = config(3, (0.5, 0.3, 0.2), r1=100.0)
        real = realization(*sorted(rho))
        names = ("kappa_ut", "kappa_ur", "kappa_rt", "kappa_rr")
        low = ImpairmentProfile(**dict(zip(names, kappas)))
        bumped = list(kappas)
        bumped[stage] = min(bumped[stage] + bump, 0.99)
        high = ImpairmentProfile(**dict(zip(names, bumped)))
        g_low = sinr_instantaneous(real, cfg, low, 3, 1)
        g_high = sinr_instantaneous(real, cfg, high, 3, 1)
        assert g_high <= g_low + 1e-15


class TestValidation:
    def test_allocation_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            config(2, (0.8, 0.3), r1=10.0)

    def test_allocation_must_decrease(self):
        with pytest.raises(ConfigurationError):
            config(3, (0.4, 0.4, 0.2), r1=10.0)
        with pytest.raises(ConfigurationError):
            config(3, (0.2, 0.3, 0.5), r1=10.0)

    def test_positive_parameters(self):
        with pytest.raises(ConfigurationError):
            config(2, (0.8, 0.2), r1=0.0)
        with pytest.raises(ConfigurationError):
            config(2, (0.8, 0.2), r1=10.0, c=0.0)
        with pytest.raises(ConfigurationError):
            NetworkConfig(n_users=1, a=(1.0,), r1=10.0)

    def test_kappa_range(self):
        with pytest.raises(ConfigurationError):
            ImpairmentProfile(kappa_ut=1.0)
        with pytest.raises(ConfigurationError):
            ImpairmentProfile(kappa_rr=-0.1)

    def test_profile_helpers(self):
        assert ImpairmentProfile.ideal().is_ideal
        u = ImpairmentProfile.uniform(0.2)
        assert not u.is_ideal
        assert u.kappa_ut == u.kappa_ur == u.kappa_rt == u.kappa_rr == 0.2

    def test_r2_and_powers(self):
        cfg = config(2, (0.8, 0.2), r1=10.0, c=2.0)
        assert cfg.r2 == pytest.approx(20.0)
