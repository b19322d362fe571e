"""The one pair-rate formula: closed form, Monte Carlo and asymptote.

The SINR of ``mwrnoma.signal`` is evaluated with numerator and
denominator divided through by r1 * r2, so the SNR enters only as 1/r1
and 1/r2.  That keeps every finite SNR finite (no r1 * r2 product to
overflow), and the high-SNR limit is the same formula at 1/r1 = 1/r2 = 0.

Every operation is row-local, so a row gets the same bits alone, in a
placement batch or in a Monte Carlo chunk.  The gains may come in either
memory order; they are held column-major (a C-ordered placement batch is
copied once), so each step runs one contiguous loop over all rows, and
the rates come out column-major too.
"""

import numpy as np


def weighted_sums(rho, a):
    """Per-row terms of the pair SINR that depend only on the gains and the
    power split, so every operating point evaluated on the same rows can
    share them.

    Returns ``(weighted, suffix)``: suffix[t, n] = sum_{j=n}^{M-2} a_j rho_j
    (interference left after pair n), and weighted[t] = sum_j a_j rho_j,
    which extends suffix[t, 0] by the strongest user's term.
    """
    rho = np.asfortranarray(rho, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    n_rows, M = rho.shape
    suffix = np.zeros((n_rows, M), order="F")
    for n in range(M - 2, -1, -1):
        np.multiply(rho[:, n], a[n], out=suffix[:, n])
        suffix[:, n] += suffix[:, n + 1]
    return suffix[:, 0] + a[-1] * rho[:, -1], suffix


def pair_rate_chunk(rho, a, inv_r1, inv_r2, kut2, kur2, krt2, krr2, *, aggregates=None):
    """Rates 1/2 log2(1 + SINR) for every decodable pair of every row.

    rho: (rows, M) sorted ascending effective gains (sampled gains, or
    order-statistic means, one row per operating point or placement site).
    inv_r1, inv_r2: reciprocal user and relay SNR.  aggregates:
    ``weighted_sums(rho, a)``, computed here when the caller does not
    share it.  Returns (rows, M*(M-1)/2) in (k, then n) pair order,
    1/2-prefactored.  A pair with an empty denominator (only at 1/r1 = 0
    without distortion) is +inf; callers that allow it silence the
    division warning.
    """
    rho = np.asfortranarray(rho, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    n_rows, M = rho.shape
    weighted, suffix = weighted_sums(rho, a) if aggregates is None else aggregates
    mac = 1.0 + kut2 + krr2
    mix = (kut2 + krr2) + (krt2 + kur2) * mac
    bc = 1.0 + krt2 + kur2

    noise_fwd = mac * weighted * inv_r2 + inv_r1 * inv_r2
    # inner[t, n]: the denominator terms that scale with rho_k (interference
    # left after n, distortion, and the broadcast-hop noise term)
    inner = suffix + (mix * weighted + bc * inv_r1)[:, None]

    out = np.empty((n_rows, M * (M - 1) // 2), order="F")
    num = np.empty(n_rows)
    p = 0
    for k in range(2, M + 1):
        rho_k = rho[:, k - 1]
        for n in range(1, k):
            den = out[:, p]
            np.multiply(rho_k, inner[:, n], out=den)
            den += noise_fwd
            np.multiply(rho_k, rho[:, n - 1], out=num)
            num *= a[n - 1]
            np.divide(num, den, out=den)
            p += 1
    # every column now holds its SINR
    out += 1.0
    np.log2(out, out=out)
    out *= 0.5
    return out
