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
``pair_rate_chunk`` collects the columns for the closed form.
"""

import numpy as np


def weighted_sums(rho, a, *, out=None):
    """Per-row terms of the pair SINR that depend only on the gains and the
    power split, so every operating point evaluated on the same rows can
    share them.

    Returns ``(weighted, suffix)``: suffix[t, n] = sum_{j=n}^{M-2} a_j rho_j
    (interference left after pair n), and weighted[t] = sum_j a_j rho_j,
    which extends suffix[t, 0] by the strongest user's term.  out: a
    (rows, M) column-major array to hold suffix, allocated when None.
    """
    rho = np.asfortranarray(rho, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    n_rows, M = rho.shape
    suffix = np.empty((n_rows, M), order="F") if out is None else out
    suffix[:, M - 1] = 0.0
    for n in range(M - 2, -1, -1):
        np.multiply(rho[:, n], a[n], out=suffix[:, n])
        suffix[:, n] += suffix[:, n + 1]
    return suffix[:, 0] + a[-1] * rho[:, -1], suffix


def distortion_terms(imp):
    """``(mac, mix, bc)`` of an impairment profile: the only way its four
    distortion levels enter ``pair_rate_columns``."""
    kut2, kur2 = imp.kappa_ut**2, imp.kappa_ur**2
    krt2, krr2 = imp.kappa_rt**2, imp.kappa_rr**2
    mac = 1.0 + kut2 + krr2
    return mac, (kut2 + krr2) + (krt2 + kur2) * mac, 1.0 + krt2 + kur2


def pair_rate_columns(rho, a, inv_r1, inv_r2, mac, mix, bc, *, out, aggregates=None):
    """Yield the rate 1/2 log2(1 + SINR) of each decodable pair, one
    finished column at a time, in (k, then n) pair order.

    rho: (rows, M) sorted ascending effective gains (sampled gains, or
    order-statistic means, one row per operating point or placement site).
    inv_r1, inv_r2: reciprocal user and relay SNR.  mac, mix, bc: the
    profile's ``distortion_terms``.  out: a (rows,) buffer that every
    yielded column overwrites, so a column is valid only until the next
    one is drawn.  aggregates: ``weighted_sums(rho, a)``, computed
    here when the caller does not share it.  A pair with an empty
    denominator (only at 1/r1 = 0 without distortion) is +inf; callers that
    allow it silence the division warning.
    """
    rho = np.asfortranarray(rho, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    M = rho.shape[1]
    weighted, suffix = weighted_sums(rho, a) if aggregates is None else aggregates

    noise_fwd = mac * weighted * inv_r2 + inv_r1 * inv_r2
    # the denominator terms that scale with rho_k, besides the interference
    # suffix[:, n] left after n: distortion and the broadcast-hop noise
    shared = mix * weighted + bc * inv_r1

    num = np.empty_like(out)
    for k in range(2, M + 1):
        rho_k = rho[:, k - 1]
        for n in range(1, k):
            np.add(suffix[:, n], shared, out=out)
            out *= rho_k
            out += noise_fwd
            np.multiply(rho_k, rho[:, n - 1], out=num)
            num *= a[n - 1]
            np.divide(num, out, out=out)
            out += 1.0
            np.log2(out, out=out)
            out *= 0.5
            yield out


def divergent_pair_gain(rho, a, c):
    """Per-row limit of SINR / r1 for decoder M and user M-1 without
    distortion, the one pair whose denominator vanishes at 1/r1 = 0.

    With every kappa zero, that pair's denominator in
    ``pair_rate_columns`` is rho_M / r1 + weighted / r2 + 1 / (r1 r2);
    times r1, with r2 = c r1, it tends to rho_M + weighted / c.
    """
    rho = np.asfortranarray(rho, dtype=np.float64)
    weighted, _ = weighted_sums(rho, a)
    return rho[:, -1] * rho[:, -2] * a[-2] / (rho[:, -1] + weighted / c)


def pair_rate_chunk(rho, a, *args, aggregates=None):
    """Rates of every decodable pair of every row: ``pair_rate_columns``
    collected into a (rows, M*(M-1)/2) column-major array, in (k, then n)
    pair order, 1/2-prefactored."""
    n_rows, M = np.shape(rho)
    rates = np.empty((n_rows, M * (M - 1) // 2), order="F")
    columns = pair_rate_columns(rho, a, *args, out=np.empty(n_rows), aggregates=aggregates)
    for p, column in enumerate(columns):
        rates[:, p] = column
    return rates
