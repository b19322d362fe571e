"""Decoder-rate kernel: agreement with the scalar model, pair by pair."""

import math
import warnings
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwrnoma import FadingParams, ImpairmentProfile, NetworkConfig
from mwrnoma._kernels import (
    decoder_totals,
    distortion_terms,
    kernel_args,
    pair_rate_chunk,
    weighted_sums,
)
from mwrnoma.montecarlo import CHUNK_TRIALS, _ChunkBuffers, _sample_rho_chunk
from scalar_oracle import decoder_rates

KAPPAS = ("kappa_ut", "kappa_ur", "kappa_rt", "kappa_rr")

# the four distortion profiles of the fig2b preset
FIG2B_PROFILES = {
    "ideal": ImpairmentProfile(),
    "tx-rhi": ImpairmentProfile(kappa_ut=0.2, kappa_rt=0.2),
    "rx-rhi": ImpairmentProfile(kappa_ur=0.2, kappa_rr=0.2),
    "transceiver-rhi": ImpairmentProfile.uniform(0.2),
}


def make_inputs(n_users, n_trials=256, seed=0):
    rng = np.random.default_rng(seed)
    rho = np.sort(rng.gamma(2.0, 3.0, size=(n_trials, n_users)), axis=1) / 2.0
    raw = np.sort(rng.random(n_users) + 0.05)[::-1]
    a = tuple(float(x) for x in raw / raw.sum())
    return rho, a


def kernel_rates(rho, a, inv_r1, inv_r2, imp):
    """``pair_rate_chunk`` at the given reciprocal SNRs, with every numpy
    warning raised as an error, scaled from the kernel's unit share to
    the two-slot share 1/2 of the scalar model (exact: a power of two)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return 0.5 * pair_rate_chunk(rho, np.asarray(a), inv_r1, inv_r2, *distortion_terms(imp))


def assert_close(got, want):
    # 1e-12 relative, or 1e-15 absolute for the tiny rates of a low SNR
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def exact_decoder_rates(rho_row, a, inv_r1, inv_r2, imp):
    """Each decoder's pair rates, summed pair by pair, with every SINR in
    exact rational arithmetic on the float inputs.

    The SINR is the signal model's, divided through by r1 r2 rho_k, so
    1/r1 = 0 and SINRs beyond the float range are covered; a decoder with
    an empty denominator is +inf.
    """
    rho = [Fraction(x) for x in rho_row]
    a = [Fraction(x) for x in a]
    kut2, kur2, krt2, krr2 = (Fraction(getattr(imp, k)) ** 2 for k in KAPPAS)
    mac = 1 + kut2 + krr2
    inv_r1, inv_r2 = Fraction(inv_r1), Fraction(inv_r2)
    weighted = sum(r * w for r, w in zip(rho, a))
    M = len(rho)
    rates = []
    for k in range(2, M + 1):
        total = 0.0
        for n in range(1, k):
            residual = sum(rho[j] * a[j] for j in range(n, M - 1))
            den = (
                residual
                + weighted * (kut2 + krr2 + (krt2 + kur2) * mac)
                + (1 + krt2 + kur2) * inv_r1
                + (mac * weighted * inv_r2 + inv_r1 * inv_r2) / rho[k - 1]
            )
            if den == 0:
                total = math.inf
                break
            sinr = rho[n - 1] * a[n - 1] / den
            if sinr < Fraction(2) ** 1000:
                total += 0.5 * math.log1p(float(sinr)) / math.log(2.0)
            else:
                x = 1 + sinr
                total += 0.5 * (math.log2(x.numerator) - math.log2(x.denominator))
        rates.append(total)
    return rates


@pytest.mark.parametrize("n_users", [2, 3, 4, 5, 8])
def test_kernel_matches_scalar_model(n_users):
    # each decoder column sums that decoder's scalar pair rates
    rho, a = make_inputs(n_users, seed=n_users)
    imp = ImpairmentProfile(kappa_ut=0.1, kappa_ur=0.2, kappa_rt=0.05, kappa_rr=0.15)
    for snr_db in (-20.0, 25.0, 60.0):
        cfg = NetworkConfig(n_users=n_users, a=a, r1=10.0 ** (snr_db / 10.0), c=2.0)
        rates = kernel_rates(rho, a, 1.0 / cfg.r1, 1.0 / cfg.r2, imp)
        assert rates.shape == (rho.shape[0], n_users - 1)
        for t in (0, 17, 255):
            assert_close(list(rates[t]), decoder_rates(rho[t], cfg, imp))


@pytest.mark.parametrize("label", sorted(FIG2B_PROFILES))
@pytest.mark.parametrize("snr_db", [0.0, 20.0, 40.0])
def test_fig2b_profiles(label, snr_db):
    imp = FIG2B_PROFILES[label]
    rho, _ = make_inputs(4, n_trials=64, seed=4)
    a = (0.5, 0.3, 0.15, 0.05)
    cfg = NetworkConfig(n_users=4, a=a, r1=10.0 ** (snr_db / 10.0))
    rates = kernel_rates(rho, a, *kernel_args(cfg, imp)[:2], imp)
    for t in range(rho.shape[0]):
        assert_close(list(rates[t]), decoder_rates(rho[t], cfg, imp))


@pytest.mark.parametrize("n_users", [2, 3, 4, 8])
@pytest.mark.parametrize("label", sorted(FIG2B_PROFILES))
def test_high_snr_limit(n_users, label):
    # at 1/r1 = 1/r2 = 0 every decoder is bounded by its interference and
    # distortion, except decoder M without distortion, which is +inf
    imp = FIG2B_PROFILES[label]
    rho, a = make_inputs(n_users, n_trials=32, seed=n_users)
    with np.errstate(divide="ignore"):
        rates = 0.5 * pair_rate_chunk(rho, np.asarray(a), 0.0, 0.0, *distortion_terms(imp))
    for t in range(rho.shape[0]):
        assert_close(list(rates[t]), exact_decoder_rates(rho[t], a, 0.0, 0.0, imp))
    assert np.isfinite(rates[:, :-1]).all()
    if imp.is_ideal:
        assert np.isposinf(rates[:, -1]).all()
    else:
        assert np.isfinite(rates[:, -1]).all()


def test_vanishing_decoder_gain():
    # at -20 dB, noise_fwd / rho_k overflows for a decoder gain near the
    # underflow limit (a path-loss factor near 1e-308, row 0) and divides
    # by zero for a gain of 0 (row 1): decoder 2 gets its limit 0, as in
    # the scalar model, and no warning is raised
    rho = np.array([[1e-309, 2e-309, 1.0], [0.0, 0.0, 1.0]])
    a = (0.5, 0.3, 0.2)
    cfg = NetworkConfig(n_users=3, a=a, r1=0.01, c=2.0)
    imp = ImpairmentProfile.ideal()
    rates = kernel_rates(rho, a, 1.0 / cfg.r1, 1.0 / cfg.r2, imp)
    assert (rates[:, 0] == 0.0).all() and np.isfinite(rates).all()
    for t in range(2):
        assert_close(list(rates[t]), decoder_rates(rho[t], cfg, imp))


@pytest.mark.parametrize("snr_db", [-2000.0, -3082.0, -3082.5])
def test_vanishing_snr(snr_db):
    # 1 / (r1 r2) overflows below about -1541 dB at c = 1; near -3082 dB
    # 1/r2 times the gains does too, and at -3082.5 dB 1/r1 times a
    # broadcast distortion above 1: the noise terms are +inf and every rate
    # 0, its limit, without a warning.  A sweep passes one SNR per row,
    # as arrays, whose products warn where Python floats would not.
    rho, a = make_inputs(4, n_trials=64, seed=4)
    cfg = NetworkConfig(n_users=4, a=a, r1=10.0 ** (snr_db / 10.0), c=1.0)
    inv_r1, inv_r2 = 1.0 / cfg.r1, 1.0 / cfg.r2
    rows = np.full(rho.shape[0], inv_r1), np.full(rho.shape[0], inv_r2)
    for imp in FIG2B_PROFILES.values():
        rates = kernel_rates(rho, a, *rows, imp)
        assert (rates == 0.0).all()
        assert_close(list(rates[0]), exact_decoder_rates(rho[0], a, inv_r1, inv_r2, imp))


@pytest.mark.parametrize("n_users", [2, 4, 8])
def test_overflowing_sinr_falls_back_to_a_log_difference(n_users):
    # at 3080 dB decoder M's SINR P_M / D exceeds the float range where
    # the gains are large; the kernel's entry is log2 P_M - log2 D, finite
    # and without a warning
    rho, a = make_inputs(n_users, n_trials=64, seed=n_users)
    rho[::2] *= 30.0
    inv_r1 = 10.0 ** (-308.0)
    imp = ImpairmentProfile.ideal()
    args = (np.asarray(a), inv_r1, inv_r1 / 2.0, *distortion_terms(imp))
    # decoder M's SINR without distortion, where 1 / (r1 r2) underflows
    weighted, suffix, _ = weighted_sums(rho, a)
    with np.errstate(over="ignore"):
        plain = suffix[:, 0] / (inv_r1 + weighted * (inv_r1 / 2.0) / rho[:, -1])
    assert np.isinf(plain).any() and np.isfinite(plain).any()
    rates = kernel_rates(rho, a, inv_r1, inv_r1 / 2.0, imp)
    assert np.isfinite(rates).all() and (rates < 1050.0).all()
    for t in range(rho.shape[0]):
        assert_close(list(rates[t]), exact_decoder_rates(rho[t], a, inv_r1, inv_r1 / 2.0, imp))
    # rows that do not overflow keep the common path's bits
    clean = np.isfinite(plain)
    assert np.array_equal(0.5 * pair_rate_chunk(rho[clean], *args), rates[clean])


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
    # the rates come out column-major, one contiguous column per decoder
    fortran = pair_rate_chunk(np.asfortranarray(rho), *args)
    assert np.array_equal(fortran, block)
    assert rho.flags.c_contiguous and block.flags.f_contiguous and fortran.flags.f_contiguous


def unhoisted_terms(rho, a, inv_r1, inv_r2, mac, mix, bc):
    """Each decoder's numerator and denominator with every term formed
    inside the decoder loop, in the kernel's operand order: the numerator
    P_k summed upward (P_M = suffix[:, 0]) and
    D = (suffix_{k-1} + shared) + noise_fwd / rho_k."""
    weighted, suffix, _ = weighted_sums(rho, a)
    noise_fwd = mac * weighted * inv_r2 + inv_r1 * inv_r2
    shared = mix * weighted + bc * inv_r1
    M = rho.shape[1]
    numerators = np.cumsum(rho[:, : M - 1] * a[: M - 1], axis=1)
    for k in range(2, M + 1):
        num = suffix[:, 0] if k == M else numerators[:, k - 2]
        yield num, (suffix[:, k - 1] + shared) + noise_fwd / rho[:, k - 1]


def unhoisted_columns(rho, a, *args):
    """The unit-share decoder rates log2(P_k / D + 1) of
    ``unhoisted_terms``: the reference for the kernel's hoisted terms."""
    for num, den in unhoisted_terms(rho, a, *args):
        yield np.log2(num / den + 1.0)


def fused_totals(rho, a, *args, aggregates=None):
    """``decoder_totals`` into fresh arrays: the totals and their sum."""
    out = np.empty(rho.shape[0])
    work = np.empty((rho.shape[0], 2), order="F")
    with np.errstate(over="ignore", divide="ignore"):
        total = decoder_totals(rho, a, *args, out=out, work=work, aggregates=aggregates)
    return out, total


@settings(max_examples=40, deadline=None)
@given(
    n_users=st.integers(2, 8),
    seed=st.integers(0, 2**32 - 1),
    snr_db=st.floats(-20.0, 80.0),
    kappas=st.lists(st.floats(0.0, 0.5), min_size=4, max_size=4),
    limit=st.booleans(),
)
def test_hoisted_terms_keep_the_bits(n_users, seed, snr_db, kappas, limit):
    # the fused totals, with shared aggregates (numerators and interference
    # sums) or none, are the left-to-right sums of the rates formed with
    # every term per decoder, and pair_rate_chunk keeps those rates; at
    # M = 2 decoder 2 is both the first and the last decoder, and at
    # 1/r1 = 0 without distortion decoder M is +inf
    rho, a = make_inputs(n_users, n_trials=300, seed=seed)
    rho = np.asfortranarray(rho)
    a = np.asarray(a)
    imp = ImpairmentProfile(*(0.0 if limit else k for k in kappas))
    inv_r1 = 0.0 if limit else 10.0 ** (-snr_db / 10.0)
    args = (inv_r1, inv_r1 / 2.0, *distortion_terms(imp))
    with np.errstate(divide="ignore"):
        columns = list(unhoisted_columns(rho, a, *args))
    want = reduce(np.add, columns)
    alone, total = fused_totals(rho, a, *args)
    # a kernel call at another SNR first uses the shared aggregates and
    # their scratch columns
    aggregates = weighted_sums(rho, a)
    fused_totals(rho, a, 2.0 * inv_r1, inv_r1, *args[2:], aggregates=aggregates)
    shared, _ = fused_totals(rho, a, *args, aggregates=aggregates)
    assert np.array_equal(alone, want)
    assert np.array_equal(shared, want)
    assert total == np.add.reduce(want)
    assert np.array_equal(pair_rate_chunk(rho, a, *args), np.column_stack(columns))
    if limit:
        assert np.isposinf(columns[-1]).all() and np.isfinite(columns[:-1]).all()
    else:
        assert np.isfinite(want).all()


@pytest.mark.parametrize("chunk", [0, 2])
def test_repaired_totals_take_the_log_difference(chunk):
    # fig2a at 3080 dB with fading scale 30, as CI's huge_snr run: on all
    # but a few trials of an engine chunk (2 of chunk 0, 3 of chunk 2)
    # decoder M's P_M / D exceeds the float range.  Those totals are
    # repaired to the left-to-right sum of the per-decoder rates with
    # log2 P - log2 D in place of the overflowed one; every other total
    # keeps the common path's bits
    fading = FadingParams(alpha=2, beta=30.0, nu=3.0, distances=(1.0,) * 4)
    cfg = NetworkConfig(n_users=4, a=(0.5, 0.3, 0.15, 0.05), r1=10.0**308.0)
    buffers = _ChunkBuffers(4, fading.alpha, CHUNK_TRIALS)
    rho = _sample_rho_chunk(fading, 12022, chunk, buffers) * fading.path_loss_factors()
    a, args = np.asarray(cfg.a), kernel_args(cfg, ImpairmentProfile())
    plain, want = [], []
    with np.errstate(over="ignore"):
        for num, den in unhoisted_terms(rho, a, *args):
            rate = np.log2(num / den + 1.0)
            plain.append(rate.copy())
            over = np.isinf(rate)
            rate[over] = np.log2(num[over]) - np.log2(den[over])
            want.append(rate)
    repaired = ~np.isfinite(reduce(np.add, plain))
    assert repaired.any() and not repaired.all()
    assert np.isfinite(plain[:-1]).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        totals, total = fused_totals(rho, a, *args)
    assert np.array_equal(totals, reduce(np.add, want))
    assert np.isfinite(totals).all() and total == np.add.reduce(totals)
