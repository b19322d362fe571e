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
rho_{k-1}.  So the kernel takes one logarithm per decoder, M - 1 per
row, not one per pair, at unit time share (``rate._time_share`` scales
the finished results).  Without distortion decoder M has nothing left at
the high-SNR limit: its SINR grows as r1 times ``divergent_decoder_gain``.

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
``decoder_rate_columns`` finishes one decoder's rate column at a time in
a caller-given buffer, and ``decoder_totals`` adds each column into the
rows' totals while it is in cache, for both engines; only
``pair_rate_chunk`` collects the columns, for a one-row result.  work_n
is formed once per user, noise_fwd / rho_k once per decoder, and the
terms a_n rho_n come from ``weighted_sums``, shared by every kernel call
on the same gains.
"""

import numpy as np


def weighted_sums(rho, a, *, out=None, terms=None):
    """Per-row terms of the SINR that depend only on the gains and the
    power split, so every operating point evaluated on the same rows can
    share them.

    Returns ``(weighted, suffix, terms)``: terms[t, n] = a_n rho_n for
    n < M-1, the numerator of every pair that decodes user n and the
    increments of the decoders' numerators P_k (column M-1 is the
    kernel's scratch); suffix[t, n] = sum_{j=n}^{M-2} terms[t, j]
    (interference left after user n; suffix[t, 0] is P_M);
    weighted[t] = sum_j a_j rho_j, which extends suffix[t, 0] by the
    strongest user's term.  out, terms:
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
    distortion levels enter ``decoder_rate_columns``."""
    kut2, kur2 = imp.kappa_ut**2, imp.kappa_ur**2
    krt2, krr2 = imp.kappa_rt**2, imp.kappa_rr**2
    mac = 1.0 + kut2 + krr2
    return mac, (kut2 + krr2) + (krt2 + kur2) * mac, 1.0 + krt2 + kur2


def kernel_args(cfg, imp):
    """``(1/r1, 1/r2, mac, mix, bc)``: all that ``decoder_rate_columns`` takes
    of an operating point and its distortion profile."""
    return (1.0 / cfg.r1, 1.0 / cfg.r2, *distortion_terms(imp))


def decoder_rate_columns(rho, a, inv_r1, inv_r2, mac, mix, bc, *, work, aggregates=None):
    """Yield the unit-share rate of each decoder k = 2..M, the sum of its
    pairs' log2(1 + SINR), one finished column at a time, in decoder order.

    The pair SINRs of decoder k telescope: pair (k, n) has SINR
    a_n rho_n / D_k(n), and D_k(n-1) = D_k(n) + a_n rho_n, so the pair
    rates sum to log2(1 + P_k / D_k(k-1)), with the numerator
    P_k = a_1 rho_1 + ... + a_{k-1} rho_{k-1} and the denominator
    D_k(k-1) = work_{k-1} + noise_fwd / rho_k, where work_n =
    suffix[:, n] + mix * weighted + bc / r1.  Where P_k / D overflows
    (a finite P_k over a tiny D > 0), the entry is log2 P_k - log2 D.

    rho: (rows, M) sorted ascending effective gains (sampled gains, or
    order-statistic means, one row per operating point or placement site).
    inv_r1, inv_r2: reciprocal user and relay SNR.  mac, mix, bc: the
    profile's ``distortion_terms``; each a scalar or one value per row.
    work: a (rows, 2) column-major buffer: column 0 holds the running
    P_k, column 1 each decoder's work_{k-1} and then its rate, so every
    yielded column is ``work[:, 1]``, valid only until the next one is
    drawn.  aggregates (``weighted_sums(rho, a)``, whose scratch column
    this overwrites) are computed here when the caller does not share
    them.  Decoder M's column is +inf at 1/r1 = 0 without distortion,
    where its denominator is empty; callers that allow it silence the
    division warning.
    """
    rho = np.asfortranarray(rho, dtype=np.float64)
    M = rho.shape[1]
    weighted, suffix, terms = weighted_sums(rho, a) if aggregates is None else aggregates

    # at a vanishing SNR the noise terms overflow (1/(r1 r2) below about
    # -1541 dB at c = 1; 1/r2 times the gains, and 1/r1 times the broadcast
    # distortion, near -3082 dB): they are +inf and every rate 0, its limit
    with np.errstate(over="ignore"):
        noise_fwd = mac * weighted * inv_r2 + inv_r1 * inv_r2
        # work_n = suffix[:, n] + shared: what scales with rho_k in the
        # denominator of user n, for every decoder k: the interference left
        # after n, distortion and the broadcast-hop noise
        shared = mix * weighted + bc * inv_r1

    den = terms[:, M - 1]
    out = work[:, 1]
    for k in range(2, M + 1):
        # P_k, summed upward in work[:, 0]; P_M is suffix[:, 0]
        if k == M:
            num = suffix[:, 0]
        elif k == 2:
            num = terms[:, 0]
        else:
            num = np.add(num, terms[:, k - 2], out=work[:, 0])
        # a vanishing decoder gain (a path-loss factor near the underflow
        # limit) sends noise_fwd / rho_k to inf, the decoder's rate to 0
        with np.errstate(over="ignore", divide="ignore"):
            np.divide(noise_fwd, rho[:, k - 1], out=den)
        # D = work_{k-1} + noise_fwd / rho_k; the rate then takes its place
        np.add(suffix[:, k - 1], shared, out=out)
        np.add(out, den, out=den)
        overflow = None
        try:
            with np.errstate(over="raise"):
                np.divide(num, den, out=out)
        except FloatingPointError:
            overflow = np.isinf(out) & np.isfinite(num) & (den > 0)
        out += 1.0
        np.log2(out, out=out)
        if overflow is not None:
            out[overflow] = np.log2(num[overflow]) - np.log2(den[overflow])
        yield out


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


def decoder_totals(columns, out):
    """Add decoder rate columns (arrays over the rows, or scalars for one
    row) left to right into ``out``: the one sum from rates to totals.
    Returns the first row whose total is not finite, or None.

    Rates are >= 0, so a total is non-finite exactly when one of its rates
    is, and finite unit-share rates are below 2098 (log2 of the largest
    double over the smallest), so only a non-finite sum of totals is
    searched.
    """
    out.fill(0.0)
    for column in columns:
        np.add(out, column, out=out)
    if np.isfinite(np.add.reduce(out)):
        return None
    return int(np.argmin(np.isfinite(out)))


def pair_rate_chunk(rho, a, *args):
    """Rate of every decoder of every row: ``decoder_rate_columns``
    collected into a (rows, M-1) column-major array, decoder k in column
    k-2, at unit time share."""
    n_rows, M = np.shape(rho)
    rates = np.empty((n_rows, M - 1), order="F")
    work = np.empty((n_rows, 2), order="F")
    for p, column in enumerate(decoder_rate_columns(rho, a, *args, work=work)):
        rates[:, p] = column
    return rates
