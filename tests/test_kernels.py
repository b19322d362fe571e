"""Pair-rate kernel: agreement with the scalar model."""

import numpy as np
import pytest

from mwrnoma import (
    ChannelRealization,
    ImpairmentProfile,
    NetworkConfig,
    pair_indices,
    sinr_instantaneous,
)
from mwrnoma._kernels import pair_rate_chunk


def make_inputs(n_users, n_trials=256, seed=0):
    rng = np.random.default_rng(seed)
    rho = np.sort(rng.gamma(2.0, 3.0, size=(n_trials, n_users)), axis=1) / 2.0
    raw = np.sort(rng.random(n_users) + 0.05)[::-1]
    a = tuple(float(x) for x in raw / raw.sum())
    return rho, a


@pytest.mark.parametrize("n_users", [2, 3, 5])
def test_kernel_matches_scalar_model(n_users):
    rho, a = make_inputs(n_users)
    cfg = NetworkConfig(n_users=n_users, a=a, r1=316.0, c=2.0)
    imp = ImpairmentProfile(kappa_ut=0.1, kappa_ur=0.2, kappa_rt=0.05, kappa_rr=0.15)
    rates = pair_rate_chunk(
        rho,
        np.asarray(a),
        1.0 / cfg.r1,
        1.0 / cfg.r2,
        imp.kappa_ut**2,
        imp.kappa_ur**2,
        imp.kappa_rt**2,
        imp.kappa_rr**2,
    )
    pairs = pair_indices(n_users)
    assert rates.shape == (rho.shape[0], len(pairs))
    for t in (0, 17, 255):
        real = ChannelRealization(rho=rho[t])
        for p, (k, n) in enumerate(pairs):
            gamma = sinr_instantaneous(real, cfg, imp, k, n)
            assert rates[t, p] == pytest.approx(0.5 * np.log2(1.0 + gamma), rel=1e-12)


@pytest.mark.parametrize("n_users", [4, 8])
def test_kernel_is_row_local(n_users):
    # a Monte Carlo chunk, a placement batch and a one-row closed form must
    # give a row the same bits
    rho, a = make_inputs(n_users, n_trials=8192, seed=n_users)
    args = (np.asarray(a), 1.0 / 316.0, 1.0 / 632.0, 0.01, 0.04, 0.0025, 0.0225)
    block = pair_rate_chunk(rho, *args)
    rows = np.concatenate([pair_rate_chunk(rho[t : t + 1], *args) for t in range(rho.shape[0])])
    assert np.array_equal(block, rows)
