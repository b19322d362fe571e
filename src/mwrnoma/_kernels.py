"""The one rate formula: closed form, Monte Carlo and asymptote.

The SINR of ``mwrnoma.signal`` is evaluated with numerator and
denominator divided through by r1 * r2, so the SNR enters only as 1/r1
and 1/r2.  That keeps every finite SNR finite (no r1 * r2 product to
overflow), and the high-SNR limit is the same formula at 1/r1 = 1/r2 = 0.
At a vanishing SNR the noise terms overflow to +inf instead, which gives
every rate its limit 0.

The SINR is also divided through by the decoder's gain rho_k, to
a_n rho_n / D_k(n) with D_k(n) = work_n + noise_fwd / rho_k: work_n
(interference left after user n, distortion, broadcast noise) depends
only on the decoded user, noise_fwd / rho_k only on the decoder.  Since
D_k(n-1) = D_k(n) + a_n rho_n, a decoder's successive-decoding pair
rates telescope (the chain rule of successive interference
cancellation): sum_{n<k} log2(1 + SINR(k, n)) =
log2(1 + P_k / D_k(k-1)), with P_k = a_1 rho_1 + ... + a_{k-1}
rho_{k-1}.  The same step joins the decoders: a row's total is
log2 prod_k (1 + P_k / D_k(k-1)).  So the kernel takes one logarithm per
row, not one per pair or per decoder, at unit time share (the engines
return unit-share numbers; a scheme's share scales only finished
results).  Without distortion decoder M has nothing left at the high-SNR
limit: its SINR grows as r1 times ``divergent_decoder_gain``.

The four distortion levels enter the SINR only through three terms,
which ``distortion_terms`` computes and the kernel takes as its input:
mac = 1 + kappa_ut^2 + kappa_rr^2 scales the relay's received power,
bc = 1 + kappa_rt^2 + kappa_ur^2 the broadcast-hop noise, and
mix = (kappa_ut^2 + kappa_rr^2) + (kappa_rt^2 + kappa_ur^2) * mac the
distortion power at a decoder.  Profiles with equal terms, such as
transmitter-only and receiver-only distortion of one level, give the same
rates bit for bit.

Every operation is row-local, so a row gets the same bits alone, in a
placement batch or in a Monte Carlo chunk.  The gains may come in either
memory order; they are held column-major (a C-ordered placement batch is
copied once), so each step runs one contiguous loop over all rows.
``decoder_totals`` is the kernel of both engines: it turns rows of gains
straight into the rows' totals, each decoder's factor 1 + P_k / D
multiplied in left to right while it is in cache, then one log2 per row,
and writes no rate array.  ``pair_rate_chunk`` keeps the rates, the log2
of each factor, for a one-row result and for the repair, through the
same per-decoder step (``_decoder_factor``).  The numerators P_k and the
interference sums come from ``weighted_sums``, shared by every kernel
call on the same gains; work_n is formed once per user and
noise_fwd / rho_k once per decoder.  At M = 4 one call makes 23 ufunc
passes over the rows: 5 for the point's noise terms, 5 for each
decoder's factor (4 for decoder M, whose interference sum is 0), 2 to
multiply decoders 3 and 4 into the product, which decoder 2 writes
directly, one log2 and one for the totals' sum.

``decoder_totals`` runs under the caller's
``np.errstate(over="ignore", divide="ignore")``, which the Monte Carlo
engine enters once per chunk and ``rate.asr_rows`` once per call
(``pair_rate_chunk`` enters its own): an overflow (noise terms at a vanishing SNR
or decoder gain, or P_k / D or a product beyond the float range) gives inf,
and a total that is not finite is repaired or reported, never silently
kept.
"""

import math
from functools import reduce

import numpy as np


def weighted_sums(rho, a, *, out=None, terms=None):
    """Per-row terms of the SINR that depend only on the gains and the
    power split, so every operating point evaluated on the same rows can
    share them.

    Returns ``(weighted, suffix, numerators)``: suffix[t, n] =
    sum_{j=n}^{M-2} a_j rho_j (interference left after user n;
    suffix[t, 0] is P_M, suffix[t, M-1] is 0); numerators[t, k-2] = P_k =
    a_1 rho_1 + ... + a_{k-1} rho_{k-1} for the decoders k = 2..M-1,
    summed upward (columns M-2 and M-1 are the kernel's scratch);
    weighted[t] = sum_j a_j rho_j, which extends suffix[t, 0] by the
    strongest user's term.  out, terms: (rows, M) column-major arrays for
    suffix and numerators, or None.
    """
    rho = np.asfortranarray(rho, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    n_rows, M = rho.shape
    suffix = np.empty((n_rows, M), order="F") if out is None else out
    terms = np.empty((n_rows, M), order="F") if terms is None else terms
    suffix[:, M - 1] = 0.0
    np.multiply(rho[:, M - 2], a[M - 2], out=suffix[:, M - 2])
    for n in range(M - 3, -1, -1):
        np.multiply(rho[:, n], a[n], out=terms[:, n])
        np.add(terms[:, n], suffix[:, n + 1], out=suffix[:, n])
    # the terms a_n rho_n become the numerators P_{n+2} in place
    for n in range(1, M - 2):
        np.add(terms[:, n - 1], terms[:, n], out=terms[:, n])
    return suffix[:, 0] + a[-1] * rho[:, -1], suffix, terms


def distortion_terms(imp):
    """``(mac, mix, bc)`` of an impairment profile: the only way its four
    distortion levels enter the kernel."""
    kut2, kur2 = imp.kappa_ut**2, imp.kappa_ur**2
    krt2, krr2 = imp.kappa_rt**2, imp.kappa_rr**2
    mac = 1.0 + kut2 + krr2
    return mac, (kut2 + krr2) + (krt2 + kur2) * mac, 1.0 + krt2 + kur2


def kernel_args(cfg, imp):
    """``(1/r1, 1/r2, mac, mix, bc)``: all that the kernel takes of an
    operating point and its distortion profile."""
    return (1.0 / cfg.r1, 1.0 / cfg.r2, *distortion_terms(imp))


def _noise_terms(weighted, inv_r1, inv_r2, mac, mix, bc, work):
    """``(noise_fwd, shared)`` of one operating point, in the two columns
    of ``work``: noise_fwd = mac * weighted / r2 + 1 / (r1 r2), the
    forwarded noise that ``_decoder_factor`` divides by rho_k, and shared =
    mix * weighted + bc / r1, the part of work_n common to every user n
    (distortion and broadcast-hop noise).  At a vanishing SNR they
    overflow to +inf (1/(r1 r2) below about -1541 dB at c = 1; 1/r2 times
    the gains, and 1/r1 times the broadcast distortion, near -3082 dB) and
    every rate is 0, its limit."""
    noise_fwd = np.multiply(mac, weighted, out=work[:, 0])
    np.multiply(noise_fwd, inv_r2, out=noise_fwd)
    np.add(noise_fwd, inv_r1 * inv_r2, out=noise_fwd)
    shared = np.multiply(mix, weighted, out=work[:, 1])
    np.add(shared, bc * inv_r1, out=shared)
    return noise_fwd, shared


def _decoder_factor(k, rho, num, suffix, noise_fwd, shared, *, out, den):
    """Decoder k's factor 1 + P_k / D into ``out``, leaving D in ``den``:
    the one SINR formula, whose log2 is the decoder's unit-share rate.

    The pair SINRs of decoder k telescope: pair (k, n) has SINR
    a_n rho_n / D_k(n), and D_k(n-1) = D_k(n) + a_n rho_n, so the pair
    rates sum to log2(1 + P_k / D_k(k-1)), with the numerator ``num`` =
    P_k and the denominator D = work_{k-1} + noise_fwd / rho_k, where
    work_n = suffix[:, n] + shared.  Decoder M's interference sum
    suffix[:, M-1] is 0, so its work_{M-1} is ``shared`` itself.  A
    vanishing decoder gain (a path-loss factor near the underflow limit)
    sends noise_fwd / rho_k to inf and the factor to 1; at 1/r1 = 0
    without distortion decoder M's D is 0 and its factor +inf.
    """
    np.divide(noise_fwd, rho[:, k - 1], out=den)
    if k < rho.shape[1]:
        np.add(suffix[:, k - 1], shared, out=out)
        np.add(out, den, out=den)
    else:
        np.add(shared, den, out=den)
    np.divide(num, den, out=out)
    return np.add(out, 1.0, out=out)


def _numerator(k, suffix, numerators):
    """P_k of decoder k: a running sum of ``weighted_sums``, or, for
    decoder M, the interference sum from user 1."""
    return suffix[:, 0] if k == suffix.shape[1] else numerators[:, k - 2]


def decoder_totals(rho, a, inv_r1, inv_r2, mac, mix, bc, *, out, work, aggregates=None):
    """Each row's total of its unit-share decoder rates, k = 2..M, as the
    log2 of their factors' product, into ``out``; returns their sum over
    the rows (``np.add.reduce``), finite exactly when every total is.

    rho: (rows, M) sorted ascending effective gains (sampled gains, or
    order-statistic means, one row per operating point or placement site).
    inv_r1, inv_r2: reciprocal user and relay SNR.  mac, mix, bc: the
    profile's ``distortion_terms``; each a scalar or one value per row.
    out: a (rows,) array for the totals.  work: a (rows, 2) column-major
    array for the noise terms.  aggregates (``weighted_sums(rho, a)``,
    whose two scratch columns this overwrites) are computed here when the
    caller does not share them.  Run it under
    ``np.errstate(over="ignore", divide="ignore")``.

    The rates log2 f_k add up to log2(f_2 f_3 ... f_M): decoder 2's
    factor is formed in ``out`` itself and each later one in a scratch
    column, then multiplied in, left to right, and one log2 per row ends
    the pass.  Every factor is at least 1, so the product cannot
    underflow.  Where it overflows (P_k / D beyond the float range, a
    finite P_k over a tiny D > 0, as at 3080 dB, or a product of finite
    factors beyond it) the total is +inf and is repaired: its row's rates
    are formed by ``pair_rate_chunk``, which takes log2 P_k - log2 D for an
    overflowed factor, and added left to right (``rate_sum``).  A total
    that stays non-finite (NaN, or decoder M at 1/r1 = 0 without
    distortion) is the caller's fault to report.
    """
    rho = np.asfortranarray(rho, dtype=np.float64)
    M = rho.shape[1]
    weighted, suffix, numerators = weighted_sums(rho, a) if aggregates is None else aggregates
    noise_fwd, shared = _noise_terms(weighted, inv_r1, inv_r2, mac, mix, bc, work)
    den, factor = numerators[:, M - 1], numerators[:, M - 2]
    for k in range(2, M + 1):
        num = _numerator(k, suffix, numerators)
        column = out if k == 2 else factor
        _decoder_factor(k, rho, num, suffix, noise_fwd, shared, out=column, den=den)
        if k > 2:
            np.multiply(out, factor, out=out)
    np.log2(out, out=out)
    total = np.add.reduce(out)
    if math.isfinite(total):
        return total
    rows = np.flatnonzero(~np.isfinite(out))
    args = (x[rows] if np.ndim(x) else x for x in (inv_r1, inv_r2, mac, mix, bc))
    out[rows] = rate_sum(pair_rate_chunk(rho[rows], a, *args))
    return np.add.reduce(out)


def divergent_decoder_gain(rho, a, c):
    """Per-row limit of P_M / (r1 D) for decoder M without distortion, the
    one decoder whose denominator vanishes at 1/r1 = 0.

    With every kappa zero, decoder M's denominator is D = 1 / r1 +
    (weighted / r2 + 1 / (r1 r2)) / rho_M; times r1, with r2 = c r1, it
    tends to (rho_M + weighted / c) / rho_M, so the decoder's telescoped
    SINR grows as r1 rho_M P_M / (rho_M + weighted / c).
    """
    rho = np.asfortranarray(rho, dtype=np.float64)
    weighted, suffix, _ = weighted_sums(rho, a)
    return rho[:, -1] * suffix[:, 0] / (rho[:, -1] + weighted / c)


def rate_sum(rates):
    """Decoder rates added left to right along the last axis, one row's
    rates or a (rows, M-1) array: the order of ``decoder_totals``'s
    repair, whose totals are sums of rates rather than logs of products."""
    return reduce(np.add, np.moveaxis(rates, -1, 0), 0.0)


def pair_rate_chunk(rho, a, inv_r1, inv_r2, mac, mix, bc):
    """Rate of every decoder of every row, in a (rows, M-1) column-major
    array, decoder k in column k-2, at unit time share.

    Each entry is log2 of the factor of ``decoder_totals``
    (``_decoder_factor``), except that where P_k / D overflows (a finite
    P_k over a tiny D > 0) it is log2 P_k - log2 D.  Decoder M's entry is
    +inf at 1/r1 = 0 without distortion, where its denominator is empty.
    """
    rho = np.asfortranarray(rho, dtype=np.float64)
    n_rows, M = rho.shape
    rates = np.empty((n_rows, M - 1), order="F")
    work = np.empty((n_rows, 2), order="F")
    with np.errstate(over="ignore", divide="ignore"):
        weighted, suffix, numerators = weighted_sums(rho, a)
        noise_fwd, shared = _noise_terms(weighted, inv_r1, inv_r2, mac, mix, bc, work)
        den = numerators[:, M - 1]
        for k in range(2, M + 1):
            num = _numerator(k, suffix, numerators)
            rate = rates[:, k - 2]
            _decoder_factor(k, rho, num, suffix, noise_fwd, shared, out=rate, den=den)
            np.log2(rate, out=rate)
            over = np.isinf(rate) & np.isfinite(num) & (den > 0)
            rate[over] = np.log2(num[over]) - np.log2(den[over])
    return rates
