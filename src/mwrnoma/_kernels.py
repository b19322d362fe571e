"""The one pair-rate formula: closed form, Monte Carlo and asymptote.

The SINR of ``mwrnoma.signal`` is evaluated with numerator and
denominator divided through by r1 * r2, so the SNR enters only as 1/r1
and 1/r2.  That keeps every finite SNR finite (no r1 * r2 product to
overflow), and the high-SNR limit is the same formula at 1/r1 = 1/r2 = 0.
Without distortion one pair has nothing left in that limit: its SINR
grows as r1 times ``divergent_pair_gain``.

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
``pair_rate_columns`` finishes one pair's rate column at a time in a
caller-given buffer, so a Monte Carlo chunk reduces each column while it
is in cache and never holds all its pair rates at once;
``pair_rate_chunk`` collects the columns for the closed form.  The SINR
is also divided through by the decoder's gain rho_k, to a_n rho_n /
(work_n + noise_fwd / rho_k): work_n (interference, distortion, broadcast
noise) depends only on the decoded user and is formed once per user,
noise_fwd / rho_k once per decoder, and the numerators a_n rho_n come
from ``weighted_sums``, shared by every kernel call on the same gains.
"""

import numpy as np


def weighted_sums(rho, a, *, out=None, terms=None):
    """Per-row terms of the pair SINR that depend only on the gains and the
    power split, so every operating point evaluated on the same rows can
    share them.

    Returns ``(weighted, suffix, terms)``: terms[t, n] = a_n rho_n for
    n < M-1, the numerator of every pair that decodes user n (column M-1
    is the kernel's scratch); suffix[t, n] = sum_{j=n}^{M-2} terms[t, j]
    (interference left after pair n); weighted[t] = sum_j a_j rho_j, which
    extends suffix[t, 0] by the strongest user's term.  out, terms:
    (rows, M) column-major arrays for suffix and terms, or None.
    """
    rho = np.asfortranarray(rho, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    n_rows, M = rho.shape
    suffix = np.empty((n_rows, M), order="F") if out is None else out
    terms = np.empty((n_rows, M), order="F") if terms is None else terms
    suffix[:, M - 1] = 0.0
    for n in range(M - 2, -1, -1):
        np.multiply(rho[:, n], a[n], out=terms[:, n])
        np.add(terms[:, n], suffix[:, n + 1], out=suffix[:, n])
    return suffix[:, 0] + a[-1] * rho[:, -1], suffix, terms


def distortion_terms(imp):
    """``(mac, mix, bc)`` of an impairment profile: the only way its four
    distortion levels enter ``pair_rate_columns``."""
    kut2, kur2 = imp.kappa_ut**2, imp.kappa_ur**2
    krt2, krr2 = imp.kappa_rt**2, imp.kappa_rr**2
    mac = 1.0 + kut2 + krr2
    return mac, (kut2 + krr2) + (krt2 + kur2) * mac, 1.0 + krt2 + kur2


def kernel_args(cfg, imp):
    """``(1/r1, 1/r2, mac, mix, bc)``: all that ``pair_rate_columns`` takes
    of an operating point and its distortion profile."""
    return (1.0 / cfg.r1, 1.0 / cfg.r2, *distortion_terms(imp))


def pair_indices(n_users: int) -> list[tuple[int, int]]:
    """Decodable (k, n) pairs, 1-based, in canonical (k, then n) order."""
    return [(k, n) for k in range(2, n_users + 1) for n in range(1, k)]


def pair_rate_columns(rho, a, inv_r1, inv_r2, mac, mix, bc, *, work, aggregates=None):
    """Yield the rate 1/2 log2(1 + SINR) of each decodable pair, one
    finished column at a time, in (k, then n) pair order.

    rho: (rows, M) sorted ascending effective gains (sampled gains, or
    order-statistic means, one row per operating point or placement site).
    inv_r1, inv_r2: reciprocal user and relay SNR.  mac, mix, bc: the
    profile's ``distortion_terms``; each a scalar or one value per row.
    work: a (rows, M) column-major buffer; every yielded column is
    ``work[:, 0]``, valid only until the next one is drawn.  aggregates
    (``weighted_sums(rho, a)``, whose scratch column this overwrites) are
    computed here when the caller does not share them.  A pair with an
    empty denominator (only at 1/r1 = 0 without distortion) is +inf;
    callers that allow it silence the division warning.
    """
    rho = np.asfortranarray(rho, dtype=np.float64)
    M = rho.shape[1]
    weighted, suffix, terms = weighted_sums(rho, a) if aggregates is None else aggregates

    noise_fwd = mac * weighted * inv_r2 + inv_r1 * inv_r2
    # work[:, n]: what scales with rho_k in the denominator of user n, for
    # every decoder k: the interference suffix[:, n] left after n,
    # distortion and the broadcast-hop noise
    shared = mix * weighted + bc * inv_r1
    np.add(suffix[:, 1:], shared[:, None], out=work[:, 1:])

    out, spill = work[:, 0], terms[:, M - 1]
    for k in range(2, M + 1):
        # a vanishing decoder gain (a path-loss factor near the underflow
        # limit) sends noise_fwd / rho_k to inf, its pairs' rates to 0
        with np.errstate(over="ignore", divide="ignore"):
            np.divide(noise_fwd, rho[:, k - 1], out=spill)
        for n in range(1, k):
            np.add(work[:, n], spill, out=out)
            np.divide(terms[:, n - 1], out, out=out)
            out += 1.0
            np.log2(out, out=out)
            out *= 0.5
            yield out


def divergent_pair_gain(rho, a, c):
    """Per-row limit of SINR / r1 for decoder M and user M-1 without
    distortion, the one pair whose denominator vanishes at 1/r1 = 0.

    With every kappa zero, that pair's SINR divided through by r1 r2 is
    rho_M rho_{M-1} a_{M-1} / (rho_M / r1 + weighted / r2 + 1 / (r1 r2));
    times r1, with r2 = c r1, the denominator tends to rho_M + weighted / c.
    """
    rho = np.asfortranarray(rho, dtype=np.float64)
    weighted = weighted_sums(rho, a)[0]
    return rho[:, -1] * rho[:, -2] * a[-2] / (rho[:, -1] + weighted / c)


def pair_rate_chunk(rho, a, *args):
    """Rates of every decodable pair of every row: ``pair_rate_columns``
    collected into a (rows, M*(M-1)/2) column-major array, in (k, then n)
    pair order, 1/2-prefactored."""
    n_rows, M = np.shape(rho)
    rates = np.empty((n_rows, M * (M - 1) // 2), order="F")
    work = np.empty((n_rows, M), order="F")
    columns = pair_rate_columns(rho, a, *args, work=work)
    for p, column in enumerate(columns):
        rates[:, p] = column
    return rates
