"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Reference settings shared by most criteria: 3 users,
allocation (0.5, 0.3, 0.2), Gamma shape 2 scale 3, unit distances,
path-loss exponent 3, equal user/relay SNR.
"""

import json
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
    moment_oracle,
    order_stat_moments,
    sample_moments,
    simulate_asr,
    sweep_grid,
)
from mwrnoma.baseline import scheme_prefactor
from mwrnoma.cli import load_spec, run

A3 = (0.5, 0.3, 0.2)
A4 = (0.5, 0.3, 0.15, 0.05)
A5 = (0.5, 0.2, 0.15, 0.1, 0.05)
ALLOCATIONS = {3: A3, 4: A4, 5: A5}
SEED = 20260810


def reference_setup(n_users, snr_db):
    fading = FadingParams(alpha=2, beta=3.0, nu=3.0, distances=(1.0,) * n_users)
    cfg = NetworkConfig(n_users=n_users, a=ALLOCATIONS[n_users], r1=10.0 ** (snr_db / 10.0))
    return fading, cfg


def report(num: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num} {status}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_moment_correctness():
    """Closed-form moments match quadrature (rel 1e-3) and sampling (3 se)."""
    worst_rel = 0.0
    worst_z = 0.0
    for alpha, beta in ((1, 1.0), (2, 3.0), (3, 2.0)):
        for n_users in (2, 3, 5):
            fading = FadingParams(alpha=alpha, beta=beta, nu=3.0, distances=(1.0,) * n_users)
            moments = order_stat_moments(fading, n_users)
            mean, stderr = sample_moments(fading, TrialConfig(trials=1_000_000, seed=SEED))
            for i in range(1, n_users + 1):
                for row, closed in enumerate((moments.psi[i - 1], moments.omega[i - 1])):
                    quad = moment_oracle(fading, n_users, i, row + 1)
                    worst_rel = max(worst_rel, abs(closed - quad) / quad)
                    z = abs(mean[row, i - 1] - closed) / stderr[row, i - 1]
                    worst_z = max(worst_z, z)
    report(
        1,
        "moments match quadrature to 1e-3 and 1e6-sample MC within 3 se",
        worst_rel < 1e-3 and worst_z < 3.0,
        f"max rel err {worst_rel:.2e}, max |z| {worst_z:.2f}",
    )


def test_criterion_2_analytic_vs_monte_carlo():
    """Closed-form sum rate within 10% of MC over the 0-40 dB grid."""
    fading, cfg0 = reference_setup(3, 0.0)
    moments = order_stat_moments(fading, 3)
    imp = ImpairmentProfile.ideal()
    tc = TrialConfig(trials=100_000, seed=SEED)
    worst = 0.0
    for snr_db in range(0, 45, 5):
        cfg = replace(cfg0, r1=10.0 ** (snr_db / 10.0))
        analytic = asr(moments, cfg, imp).total
        mc = simulate_asr(cfg, fading, imp, tc).total
        worst = max(worst, abs(analytic - mc) / mc)
    report(
        2,
        "analytic ASR within 10% of 1e5-trial MC at every 0-40 dB point",
        worst < 0.10,
        f"max rel gap {worst:.3f}",
    )


def test_criterion_3_error_floor():
    """Rates flatten: 50-to-70 dB growth < 0.02, 60 dB within 1% of the limit."""
    fading, cfg0 = reference_setup(3, 50.0)
    moments = order_stat_moments(fading, 3)
    imp = ImpairmentProfile.uniform(0.1)
    y50 = asr(moments, replace(cfg0, r1=1e5), imp).total
    y60 = asr(moments, replace(cfg0, r1=1e6), imp).total
    y70 = asr(moments, replace(cfg0, r1=1e7), imp).total
    limit = asr_asymptotic(moments, cfg0, imp).total
    growth = y70 - y50
    rel = abs(y60 - limit) / limit
    report(
        3,
        "error floor: growth(50->70 dB) < 0.02 bits/s/Hz and 60 dB within 1% of asymptote",
        growth < 0.02 and rel < 0.01,
        f"growth {growth:.5f}, rel-to-limit {rel:.5f}",
    )


def affine_residual_coefficient(moments, cfg, prefactor, r1):
    """K with |asr - slope (log2 r1 - offset)| <= K / r1 without distortion.

    Every pair but the last sits below its limit by at most
    prefactor log2(1 + excess / limit) <= prefactor excess / (limit ln 2),
    where r1 * excess = psi_k + weighted / c + 1 / (c r1) and the limit is
    psi_k times the interference left.  The last pair's SINR is r1 G / (1 + e)
    with G = psi_M psi_{M-1} a_{M-1} / D, D = psi_M + weighted / c and
    r1 e = 1 / (c D), so its rate is within prefactor max(e, 1 / (r1 G)) / ln 2
    of prefactor log2(r1 G).
    """
    psi, a, M = moments.psi, np.asarray(cfg.a), cfg.n_users
    weighted = float(psi @ a)
    D = psi[-1] + weighted / cfg.c
    G = psi[-1] * psi[-2] * a[-2] / D
    k_sum = max(1.0 / (cfg.c * D), 1.0 / G)
    for k in range(2, M + 1):
        for n in range(1, min(k, M - 1)):
            limit = psi[k - 1] * float(psi[n : M - 1] @ a[n : M - 1])
            k_sum += (psi[k - 1] + weighted / cfg.c + 1.0 / (cfg.c * r1)) / limit
    return prefactor * k_sum / math.log(2.0)


def test_criterion_4_high_snr_diagnostics():
    """Closed-form affine expansion: slope 1/2 (NOMA) and 1/3 (OMA), equal
    offsets, residual within the model's K / r1 over 40-120 dB; any
    distortion gives slope 0 and the asymptote as ceiling."""
    fading, cfg = reference_setup(4, 40.0)
    moments = order_stat_moments(fading, 4)
    ok = True
    detail = []
    for scheme in ("noma", "oma"):
        prefactor = scheme_prefactor(scheme, 4)
        slope, offset, ceiling = asr_affine(moments, cfg, prefactor=prefactor)
        ok &= slope == {"noma": 0.5, "oma": 1.0 / 3.0}[scheme] and math.isinf(ceiling)
        ok &= abs(offset - (-2.76686)) < 5e-6
        scaled = []
        for snr_db in range(40, 130, 10):
            r1 = 10.0 ** (snr_db / 10.0)
            rate = asr(moments, replace(cfg, r1=r1), prefactor=prefactor).total
            residual = rate - slope * (math.log2(r1) - offset)
            bound = affine_residual_coefficient(moments, cfg, prefactor, r1) / r1
            rounding = 16.0 * np.finfo(np.float64).eps * (rate + slope * math.log2(r1))
            ok &= abs(residual) <= bound + rounding
            scaled.append(r1 * residual)
        detail.append(
            f"{scheme} S {slope:.4f}, L {offset:.5f}, "
            f"r1*residual {min(scaled):.3f}..{max(scaled):.3f}"
        )

    imp = ImpairmentProfile.uniform(0.2)
    ceiling = asr_asymptotic(moments, cfg, imp).total
    ok &= asr_affine(moments, cfg, imp) == (0.0, math.inf, ceiling)
    report(
        4,
        "affine high-SNR expansion: slope 1/2 and 1/3, L -2.76686, residual <= K/r1 at 40-120 dB, "
        "slope 0 with distortion",
        ok,
        "; ".join(detail),
    )


def test_criterion_5_superposed_beats_orthogonal():
    """Superposed scheme ahead of the orthogonal baseline at 30 dB; gap grows."""
    gaps = {}
    for n_users in (4, 5):
        fading, cfg = reference_setup(n_users, 30.0)
        moments = order_stat_moments(fading, n_users)
        noma = asr(moments, cfg).total
        oma = asr_oma(moments, cfg).total
        gaps[n_users] = noma - oma
    ok = gaps[4] > 0 and gaps[5] > 0 and gaps[5] > gaps[4]
    report(
        5,
        "NOMA > OMA at 30 dB for M=4 and M=5 with a growing gap",
        ok,
        f"gap M=4 {gaps[4]:.3f}, M=5 {gaps[5]:.3f}",
    )


def test_criterion_6_distortion_monotonicity():
    """Sum rate strictly nonincreasing over the distortion grid, both engines."""
    kappas = [0.05 * i for i in range(7)]
    ok = True
    detail = []
    for n_users in (4, 5):
        fading, cfg = reference_setup(n_users, 30.0)
        moments = order_stat_moments(fading, n_users)
        analytic = [
            asr(moments, cfg, ImpairmentProfile.uniform(v)).total for v in kappas
        ]
        ok &= all(x > y for x, y in zip(analytic, analytic[1:]))
        tc = TrialConfig(trials=100_000, seed=SEED)
        mc = [simulate_asr(cfg, fading, ImpairmentProfile.uniform(v), tc) for v in kappas]
        for lo, hi in zip(mc, mc[1:]):
            ok &= lo.total - hi.total > 3.0 * math.hypot(lo.stderr, hi.stderr)
        detail.append(f"M={n_users} drop {analytic[0] - analytic[-1]:.2f}")
    report(
        6,
        "ASR strictly nonincreasing over kappa 0..0.3 at 30 dB, analytic and MC (3 se)",
        ok,
        ", ".join(detail),
    )


def test_criterion_7_tx_rx_near_symmetry():
    """Transmit-side and receive-side distortion shift the rate almost equally."""
    fading, cfg0 = reference_setup(4, 0.0)
    moments = order_stat_moments(fading, 4)
    tx = ImpairmentProfile(kappa_ut=0.2, kappa_rt=0.2)
    rx = ImpairmentProfile(kappa_ur=0.2, kappa_rr=0.2)
    both = ImpairmentProfile.uniform(0.2)
    worst_gap = 0.0
    ordered = True
    for snr_db in range(0, 45, 5):
        cfg = replace(cfg0, r1=10.0 ** (snr_db / 10.0))
        y_tx = asr(moments, cfg, tx).total
        y_rx = asr(moments, cfg, rx).total
        y_ideal = asr(moments, cfg).total
        y_both = asr(moments, cfg, both).total
        worst_gap = max(worst_gap, abs(y_tx - y_rx) / max(y_tx, y_rx))
        ordered &= y_both < min(y_tx, y_rx) and max(y_tx, y_rx) < y_ideal
    report(
        7,
        "tx-only vs rx-only 0.2 distortion within 2%, both between ideal and transceiver",
        worst_gap < 0.02 and ordered,
        f"max rel gap {worst_gap:.2e}",
    )


def test_criterion_8_placement_surface():
    """Surface peaks at the centroid; higher SNR dominates; NOMA above OMA."""
    geom = Geometry(
        user_positions=((5.0, 5.0), (5.0, -5.0), (-5.0, 5.0), (-5.0, -5.0)),
        uav_height=10.0,
    )
    grid = GridSpec(x_min=-20.0, x_max=20.0, y_min=-20.0, y_max=20.0, step=1.0)
    fading = FadingParams(alpha=2, beta=3.0, nu=3.0, distances=(1.0,) * 4)
    cfg30 = NetworkConfig(n_users=4, a=A4, r1=10.0**3.0)
    cfg35 = NetworkConfig(n_users=4, a=A4, r1=10.0**3.5)
    s30 = sweep_grid(geom, grid, cfg30, fading)
    s35 = sweep_grid(geom, grid, cfg35, fading)
    s30_oma = sweep_grid(geom, grid, cfg30, fading, scheme="oma")
    centroid_dist = math.hypot(*s30.argmax_xy)
    ok = (
        centroid_dist <= grid.step
        and bool(np.all(s35.asr >= s30.asr))
        and bool(np.all(s30.asr > s30_oma.asr))
    )
    report(
        8,
        "argmax within one step of centroid; 35 dB >= 30 dB; NOMA > OMA pointwise",
        ok,
        f"argmax at {s30.argmax_xy}",
    )


def test_criterion_9_csv_determinism(tmp_path):
    """Identical config and seed give byte-identical CSV."""
    config = {
        "network": {"n_users": 3, "a": list(A3)},
        "fading": {"alpha": 2, "beta": 3.0, "nu": 3.0, "distances": [1.0] * 3},
        "trials": {"trials": 100_000, "seed": SEED},
        "experiment": {
            "kind": "snr-sweep",
            "snr_db": [0.0, 20.0, 40.0],
            "schemes": ["noma", "oma"],
            "engine": "both",
            "output": str(tmp_path / "out.csv"),
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    blobs = []
    for _ in range(2):
        run(load_spec(config_path=path))
        blobs.append((tmp_path / "out.csv").read_bytes())
    report(
        9,
        "byte-identical CSV from two runs of one config",
        blobs[0] == blobs[1],
        f"{len(blobs[0])} bytes",
    )
