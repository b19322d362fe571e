"""Orthogonal-scheduling baseline: slot accounting and scheme comparison."""

import numpy as np
import pytest

from mwrnoma import (
    FadingParams,
    ImpairmentProfile,
    NetworkConfig,
    TrialConfig,
    asr,
    asr_affine,
    asr_oma,
    order_stat_moments,
    simulate_asr,
    simulate_asr_oma,
    slot_count,
)
from mwrnoma.baseline import scheme_prefactor

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
    assert oma.total == pytest.approx(noma.total * 2.0 / slot_count(4), rel=1e-12)


def test_monte_carlo_baseline_matches_scaling():
    fading, _, cfg = setup(4, A4)
    imp = ImpairmentProfile.uniform(0.1)
    tc = TrialConfig(trials=20_000, seed=6)
    noma = simulate_asr(cfg, fading, imp, tc)
    oma = simulate_asr_oma(cfg, fading, imp, tc)
    assert oma.total == pytest.approx(noma.total * 2.0 / slot_count(4), rel=1e-12)
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
