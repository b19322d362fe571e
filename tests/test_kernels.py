"""Pair-rate kernel: agreement with the scalar model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwrnoma import ImpairmentProfile, NetworkConfig, pair_indices
from mwrnoma._kernels import (
    distortion_terms,
    pair_rate_chunk,
    pair_rate_columns,
    weighted_sums,
)
from scalar_oracle import sinr_instantaneous


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
        *distortion_terms(imp),
    )
    pairs = pair_indices(n_users)
    assert rates.shape == (rho.shape[0], len(pairs))
    for t in (0, 17, 255):
        for p, (k, n) in enumerate(pairs):
            gamma = sinr_instantaneous(rho[t], cfg, imp, k, n)
            assert rates[t, p] == pytest.approx(0.5 * np.log2(1.0 + gamma), rel=1e-12)


@pytest.mark.parametrize("n_users", [4, 8])
def test_kernel_is_row_local(n_users):
    # a Monte Carlo chunk, a placement batch and a one-row closed form must
    # give a row the same bits
    rho, a = make_inputs(n_users, n_trials=8192, seed=n_users)
    imp = ImpairmentProfile(kappa_ut=0.1, kappa_ur=0.2, kappa_rt=0.05, kappa_rr=0.15)
    args = (np.asarray(a), 1.0 / 316.0, 1.0 / 632.0, *distortion_terms(imp))
    block = pair_rate_chunk(rho, *args)
    rows = np.concatenate([pair_rate_chunk(rho[t : t + 1], *args) for t in range(rho.shape[0])])
    assert np.array_equal(block, rows)
    # nor may the memory order of the gains (rho is C-ordered); either way
    # the rates come out column-major, one contiguous column per pair
    fortran = pair_rate_chunk(np.asfortranarray(rho), *args)
    assert np.array_equal(fortran, block)
    assert rho.flags.c_contiguous and block.flags.f_contiguous and fortran.flags.f_contiguous


def test_vanishing_decoder_gain():
    # at -20 dB, noise_fwd / rho_k overflows for a decoder gain near the
    # underflow limit (row 0) and divides by zero for a gain of 0 (row 1):
    # the pairs it decodes get their limit 0, as in the scalar model, and
    # no warning is raised
    rho = np.array([[1e-309, 2e-309, 1.0], [0.0, 0.0, 1.0]])
    a = (0.5, 0.3, 0.2)
    cfg = NetworkConfig(n_users=3, a=a, r1=0.01, c=2.0)
    imp = ImpairmentProfile.ideal()
    rates = pair_rate_chunk(rho, np.asarray(a), 1.0 / cfg.r1, 1.0 / cfg.r2, *distortion_terms(imp))
    assert (rates[:, 0] == 0.0).all() and np.isfinite(rates).all()
    for t in range(2):
        for p, (k, n) in enumerate(pair_indices(3)):
            gamma = sinr_instantaneous(rho[t], cfg, imp, k, n)
            assert rates[t, p] == pytest.approx(0.5 * np.log2(1.0 + gamma), rel=1e-12)


def unhoisted_columns(rho, a, inv_r1, inv_r2, mac, mix, bc):
    """The pair rates with every term formed inside the pair loop, in the
    kernel's operand order: the SINR divided through by the decoder's gain,
    a_n rho_n / (work_n + noise_fwd / rho_k).  The reference for the
    kernel's hoisted terms."""
    weighted, suffix, _ = weighted_sums(rho, a)
    noise_fwd = mac * weighted * inv_r2 + inv_r1 * inv_r2
    shared = mix * weighted + bc * inv_r1
    M = rho.shape[1]
    for k in range(2, M + 1):
        for n in range(1, k):
            den = (suffix[:, n] + shared) + noise_fwd / rho[:, k - 1]
            yield 0.5 * np.log2(rho[:, n - 1] * a[n - 1] / den + 1.0)


@settings(max_examples=40, deadline=None)
@given(
    n_users=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    snr_db=st.floats(-20.0, 80.0),
    kappas=st.lists(st.floats(0.0, 0.5), min_size=4, max_size=4),
    limit=st.booleans(),
)
def test_hoisted_terms_keep_the_bits(n_users, seed, snr_db, kappas, limit):
    # shared aggregates (numerators and interference sums) or none, and
    # per-user and per-decoder denominator terms, give the bits of forming
    # every term per pair; at 1/r1 = 0 without distortion the last pair is
    # +inf
    rho, a = make_inputs(n_users, n_trials=300, seed=seed)
    rho = np.asfortranarray(rho)
    a = np.asarray(a)
    imp = ImpairmentProfile(*(0.0 if limit else k for k in kappas))
    inv_r1 = 0.0 if limit else 10.0 ** (-snr_db / 10.0)
    args = (inv_r1, inv_r1 / 2.0, *distortion_terms(imp))
    work = np.empty((rho.shape[0], n_users), order="F")
    with np.errstate(divide="ignore"):
        want = np.column_stack(list(unhoisted_columns(rho, a, *args)))
        alone = [c.copy() for c in pair_rate_columns(rho, a, *args, work=work)]
        # a kernel call at another SNR first uses the shared aggregates
        aggregates = weighted_sums(rho, a)
        other = (2.0 * inv_r1, inv_r1, *args[2:])
        for _ in pair_rate_columns(rho, a, *other, work=work, aggregates=aggregates):
            pass
        shared = [
            c.copy()
            for c in pair_rate_columns(rho, a, *args, work=work, aggregates=aggregates)
        ]
    assert np.array_equal(np.column_stack(alone), want)
    assert np.array_equal(np.column_stack(shared), want)
    if limit:
        assert np.isposinf(want[:, -1]).all() and np.isfinite(want[:, :-1]).all()
    else:
        assert np.isfinite(want).all()
