"""Orthogonal-scheduling baseline: slot accounting and scheme comparison."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mwrnoma import (
    FadingParams,
    Geometry,
    GridSpec,
    ImpairmentProfile,
    NetworkConfig,
    TrialConfig,
    asr,
    asr_affine,
    asr_asymptotic,
    asr_oma,
    order_stat_moments,
    simulate_asr,
    simulate_asr_oma,
    slot_count,
    sweep_surfaces,
)
from mwrnoma.baseline import scheme_prefactor
from mwrnoma.cli import _snr_linear, load_spec
from mwrnoma.montecarlo import CHUNK_TRIALS

A4 = (0.5, 0.3, 0.15, 0.05)
A5 = (0.5, 0.2, 0.15, 0.1, 0.05)


def setup(n_users, a, r1=1000.0):
    fading = FadingParams(alpha=2, beta=3.0, nu=3.0, distances=(1.0,) * n_users)
    cfg = NetworkConfig(n_users=n_users, a=a, r1=r1)
    return fading, order_stat_moments(fading, n_users), cfg


def test_slot_counts():
    assert slot_count(2) == 2
    assert slot_count(3) == 2
    assert slot_count(4) == 3
    assert slot_count(5) == 3
    assert slot_count(6) == 4


def test_two_user_schemes_coincide_and_flagged():
    fading, moments, cfg = setup(2, (0.7, 0.3), r1=100.0)
    noma = asr(moments, cfg)
    oma = asr_oma(moments, cfg)
    assert oma.total == pytest.approx(noma.total, rel=1e-12)
    assert any("same" in note for note in oma.notes)


def test_superposed_beats_orthogonal_at_30db():
    gaps = {}
    for n_users, a in ((4, A4), (5, A5)):
        _, moments, cfg = setup(n_users, a)
        noma = asr(moments, cfg).total
        oma = asr_oma(moments, cfg).total
        assert noma > oma
        gaps[n_users] = noma - oma
    assert gaps[5] > gaps[4]


def test_gap_nondecreasing_in_users():
    gaps = []
    for n_users, a in ((3, (0.5, 0.3, 0.2)), (4, A4), (5, A5)):
        _, moments, cfg = setup(n_users, a)
        noma = asr(moments, cfg).total
        oma = asr_oma(moments, cfg).total
        gaps.append(noma - oma)
    assert all(b >= a for a, b in zip(gaps, gaps[1:]))


def test_prefactor_relationship():
    # identical per-exchange SINRs: totals differ by the slot share alone
    fading, moments, cfg = setup(4, A4)
    imp = ImpairmentProfile.uniform(0.2)
    noma = asr(moments, cfg, imp)
    oma = asr_oma(moments, cfg, imp)
    assert oma.total == noma.total * (2 * scheme_prefactor("oma", 4))


def test_monte_carlo_baseline_matches_scaling():
    fading, _, cfg = setup(4, A4)
    imp = ImpairmentProfile.uniform(0.1)
    tc = TrialConfig(trials=20_000, seed=6)
    noma = simulate_asr(cfg, fading, imp, tc)
    oma = simulate_asr_oma(cfg, fading, imp, tc)
    assert oma.total == noma.total * (2 * scheme_prefactor("oma", 4))
    assert oma.provenance == "monte-carlo"


def test_oma_distortion_monotonicity():
    _, moments, cfg = setup(5, A5)
    totals = [
        asr_oma(moments, cfg, ImpairmentProfile.uniform(v)).total
        for v in np.arange(0.0, 0.31, 0.05)
    ]
    assert all(x > y for x, y in zip(totals, totals[1:]))


@pytest.mark.parametrize("n_users", range(2, 9))
def test_slope_ratio_is_slot_share(n_users):
    # the paper's time-slot claim in closed form: only the slope carries the
    # prefactor, so the two schemes share the power offset
    raw = np.arange(n_users, 0, -1.0)
    _, moments, cfg = setup(n_users, tuple(raw / raw.sum()))
    noma = asr_affine(moments, cfg, prefactor=scheme_prefactor("noma", n_users))
    oma = asr_affine(moments, cfg, prefactor=scheme_prefactor("oma", n_users))
    assert oma[0] / noma[0] == pytest.approx(2.0 / slot_count(n_users), rel=1e-15)
    assert oma[1] == pytest.approx(noma[1], rel=1e-12)


class TestOmaIsScaledNoma:
    """The schemes share every per-exchange SINR, so an orthogonal result
    is the superposed one times 2 * scheme_prefactor("oma", M), bit for
    bit: the time share scales the finished numbers, once."""

    FIG2A = load_spec(preset_name="fig2a")
    SPLITS = {
        3: (0.5, 0.3, 0.2),
        4: FIG2A.network.a,
        8: (0.35, 0.22, 0.15, 0.1, 0.07, 0.05, 0.04, 0.02),
    }
    USERS = pytest.mark.parametrize("n_users", sorted(SPLITS))
    KAPPAS = pytest.mark.parametrize("kappa", [0.0, 0.1])

    def case(self, n_users, snr_db):
        """fig2a's network and fading at M users and one SNR."""
        cfg = replace(
            self.FIG2A.network, n_users=n_users, a=self.SPLITS[n_users], r1=_snr_linear(snr_db)
        )
        return cfg, replace(self.FIG2A.fading, distances=(1.0,) * n_users)

    @staticmethod
    def assert_scaled(oma, noma, cfg):
        share = 2 * scheme_prefactor("oma", cfg.n_users)
        assert oma.total == noma.total * share
        if noma.per_decoder is None:  # a Monte Carlo result
            assert oma.per_decoder is None
        else:
            assert np.array_equal(oma.per_decoder, noma.per_decoder * share)
        if noma.stderr is not None:
            assert oma.stderr == noma.stderr * share

    @USERS
    @KAPPAS
    def test_closed_form(self, n_users, kappa):
        # fig2a's SNR grid; at M = 4 these are fig2a's rows
        imp = ImpairmentProfile.uniform(kappa)
        for snr_db in self.FIG2A.snr_db_grid:
            cfg, fading = self.case(n_users, snr_db)
            moments = order_stat_moments(fading, n_users)
            self.assert_scaled(asr_oma(moments, cfg, imp), asr(moments, cfg, imp), cfg)

    @USERS
    @pytest.mark.parametrize("kappa", [0.0, 0.05, 0.25])
    def test_asymptote(self, n_users, kappa):
        # without distortion decoder M diverges: +inf scales to +inf
        cfg, fading = self.case(n_users, 0.0)
        moments = order_stat_moments(fading, n_users)
        imp = ImpairmentProfile.uniform(kappa)
        oma = asr_asymptotic(moments, cfg, imp, scheme_prefactor("oma", n_users))
        self.assert_scaled(oma, asr_asymptotic(moments, cfg, imp), cfg)

    @USERS
    @KAPPAS
    def test_monte_carlo(self, n_users, kappa):
        # two full chunks and a short one
        tc = TrialConfig(2 * CHUNK_TRIALS + 123, seed=5)
        imp = ImpairmentProfile.uniform(kappa)
        for snr_db in (0.0, 20.0, 40.0):
            cfg, fading = self.case(n_users, snr_db)
            noma = simulate_asr(cfg, fading, imp, tc)
            self.assert_scaled(simulate_asr_oma(cfg, fading, imp, tc), noma, cfg)

    @USERS
    @pytest.mark.parametrize("engine", ["analytical", "monte-carlo"])
    def test_placement_surfaces(self, n_users, engine):
        users = [
            (12.0 * math.cos(2 * math.pi * k / n_users), 9.0 * math.sin(2 * math.pi * k / n_users))
            for k in range(n_users)
        ]
        cfg, fading = self.case(n_users, 20.0)
        grid = GridSpec(x_min=-10.0, x_max=10.0, y_min=-10.0, y_max=10.0, step=5.0)
        noma, oma = sweep_surfaces(
            Geometry(user_positions=tuple(users), uav_height=10.0),
            grid, cfg, fading, ImpairmentProfile.uniform(0.1), engine, ("noma", "oma"),
            TrialConfig(1000, seed=8),
        )
        share = 2 * scheme_prefactor("oma", n_users)
        assert np.array_equal(oma.asr, noma.asr * share)
