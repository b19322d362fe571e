"""The one pair-rate formula: closed form, Monte Carlo and asymptote.

The SINR of ``mwrnoma.signal`` is evaluated with numerator and
denominator divided through by r1 * r2, so the SNR enters only as 1/r1
and 1/r2.  That keeps every finite SNR finite (no r1 * r2 product to
overflow), and the high-SNR limit is the same formula at 1/r1 = 1/r2 = 0.
"""

import numpy as np


def _suffix(rho, a):
    """suffix[t, n] = sum_{j=n}^{M-2} a_j rho_j (interference left after pair n)."""
    n_rows, M = rho.shape
    suffix = np.zeros((n_rows, M))
    if M > 1:
        w = rho[:, : M - 1] * a[: M - 1]
        suffix[:, : M - 1] = w[:, ::-1].cumsum(axis=1)[:, ::-1]
    return suffix


def chunk_aggregates(rho, a):
    """Per-row terms of the pair SINR that depend only on the gains and the
    power split, so every operating point evaluated on the same rows can
    share them.

    Returns ``(weighted, suffix)``: weighted[t] = sum_j a_j rho_j, formed by
    one matrix-vector product over all rows, and suffix[t, n] =
    sum_{j=n}^{M-2} a_j rho_j (interference left after pair n).
    """
    rho = np.ascontiguousarray(rho, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    return rho @ a, _suffix(rho, a)


def row_aggregates(rho, a):
    """``chunk_aggregates`` with each row's weighted sum formed on its own.

    A matrix-vector product over many rows can round a row differently from
    the same product over that row alone; ``np.vecdot`` does not, so the
    closed form gives a row the same bits alone (``rate.asr``) or inside a
    placement surface.  The Monte Carlo engine keeps the matrix product,
    whose bits its golden CSVs pin.
    """
    rho = np.ascontiguousarray(rho, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    return np.vecdot(rho, a), _suffix(rho, a)


def pair_rate_chunk(rho, a, inv_r1, inv_r2, kut2, kur2, krt2, krr2, *, aggregates=None):
    """Rates 1/2 log2(1 + SINR) for every decodable pair of every row.

    rho: (rows, M) sorted ascending effective gains (sampled gains, or
    order-statistic means, one row per operating point or placement site).
    inv_r1, inv_r2: reciprocal user and relay SNR.  aggregates:
    ``chunk_aggregates(rho, a)`` or ``row_aggregates(rho, a)``, computed by
    the caller; ``chunk_aggregates`` is computed here when omitted.
    Returns (rows, M*(M-1)/2) in (k, then n) pair order, 1/2-prefactored.
    A pair with an empty denominator (only at 1/r1 = 0 without distortion)
    is +inf; callers that allow it silence the division warning.
    """
    rho = np.ascontiguousarray(rho, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    n_rows, M = rho.shape
    weighted, suffix = chunk_aggregates(rho, a) if aggregates is None else aggregates
    mac = 1.0 + kut2 + krr2
    mix = (kut2 + krr2) + (krt2 + kur2) * mac
    bc = 1.0 + krt2 + kur2

    noise_fwd = mac * weighted * inv_r2 + inv_r1 * inv_r2
    # inner[t, n]: the denominator terms that scale with rho_k (interference
    # left after n, distortion, and the broadcast-hop noise term)
    inner = suffix + (mix * weighted + bc * inv_r1)[:, None]

    out = np.empty((n_rows, M * (M - 1) // 2))
    p = 0
    for k in range(2, M + 1):
        rho_k = rho[:, k - 1]
        for n in range(1, k):
            den = rho_k * inner[:, n] + noise_fwd
            gamma = rho_k * rho[:, n - 1] * a[n - 1] / den
            out[:, p] = 0.5 * np.log2(1.0 + gamma)
            p += 1
    return out
