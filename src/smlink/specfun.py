"""Special functions of the Rice fit and its goodness-of-fit test.

The ratio of modified Bessel functions I1/I0, Poisson sums and pmf rows,
and the chi-squared tail probability, as series and closed forms in numpy
and the standard library; :mod:`smlink.analysis` uses them.
"""

import math

import numpy as np

# Below this argument the Bessel ratio sums the power series of I0 and I1;
# above it their Hankel expansions, whose terms at r = 25 fall below
# _SUM_RTOL of the sum after 20 terms and would start to grow only after 50.
_SERIES_LIMIT = 25.0
_SUM_RTOL = 1e-17


def bessel_ratio(r):
    """A(r) = I1(r) / I0(r), elementwise, for a float array r >= 0."""
    out = np.empty_like(r)
    small = r < _SERIES_LIMIT
    out[small] = _bessel_ratio_series(r[small])
    out[~small] = _bessel_ratio_hankel(r[~small])
    return out


def _bessel_ratio_series(r):
    """A(r) from I0 = sum_k z^k / k!^2 and I1 = (r/2) sum_k z^k / (k! (k+1)!),
    z = r^2 / 4 (Abramowitz & Stegun 9.6.10)."""
    z = 0.25 * r * r
    term = np.ones_like(r)
    i0, i1 = term.copy(), term.copy()
    k = 0
    while (term > _SUM_RTOL * i0).any():
        k += 1
        term *= z / (k * k)
        i0 += term
        i1 += term / (k + 1)
    return 0.5 * r * i1 / i0


def _bessel_ratio_hankel(r):
    """A(r) from the Hankel expansions I_nu(r) ~ e^r / sqrt(2 pi r) sum_k t_k,
    t_k = t_{k-1} ((2k - 1)^2 - 4 nu^2) / (8 k r) (Abramowitz & Stegun 9.7.1),
    whose common factor cancels in the ratio."""
    y = 0.125 / r
    t0 = np.ones_like(r)
    t1, s0, s1 = t0.copy(), t0.copy(), t0.copy()
    k = 0
    # |t1| <= t0 and s1 <= s0, so this bounds both sums' last terms.
    while (t0 > _SUM_RTOL * s1).any():
        k += 1
        odd = (2 * k - 1) ** 2
        t0 *= odd / k * y
        t1 *= (odd - 4) / k * y
        s0 += t0
        s1 += t1
    return s1 / s0


def chi2_sf(dof, x):
    """P(chi^2_dof > x) for an integer dof >= 1 (Abramowitz & Stegun 26.4.4-5).

    With h = x/2, an even dof gives e^-h sum_{k < dof/2} h^k / k! and an
    odd dof erfc(sqrt(h)) + e^-h sum_{k < (dof-1)/2} h^(k+1/2) / Gamma(k+3/2).
    """
    if x <= 0.0:
        return 1.0
    h = 0.5 * x
    if dof % 2 == 0:
        return poisson_sum(0.0, dof // 2, h)
    return math.erfc(math.sqrt(h)) + poisson_sum(0.5, dof // 2, h)


def poisson_sum(a, count, h):
    """e^-h sum_{k < count} h^(a+k) / Gamma(a+k+1), for h > 0.

    Summed outward from the largest term, k = floor(h - a) clipped to the
    range, with each term the last times a ratio, so nothing overflows.
    """
    if count == 0:
        return 0.0
    top = min(max(math.floor(h - a), 0), count - 1)
    total = term = 1.0
    for k in range(top, 0, -1):
        term *= (a + k) / h
        total += term
        if term < _SUM_RTOL * total:
            break
    term = 1.0
    for k in range(top + 1, count):
        term *= h / (a + k)
        total += term
        if term < _SUM_RTOL * total:
            break
    return math.exp((a + top) * math.log(h) - h - math.lgamma(a + top + 1.0)) * total


def poisson_rows(mean, width):
    """Poisson(mean) pmfs, one row per entry of ``mean`` >= 0, on the indices
    floor(mean) - width .. floor(mean) + width; returns them and each row's
    first index. Each row is built by the pmf's ratio recurrences outward
    from the mode and normalised to sum 1, which holds all but about 1e-20
    of the mass for the widths used here; entries at negative indices are 0,
    so a zero mean gives the point mass at 0.
    """
    mode = np.floor(mean)[:, None]
    mu = mean[:, None]
    steps = np.arange(1, width + 1)
    up = np.cumprod(mu / (mode + steps), axis=1)
    # P(i - 1) / P(i) = i / mean, which is 0 from i = 0 down.
    index = mode - steps + 1.0
    down = np.cumprod(np.divide(index, mu, out=np.zeros_like(index), where=index > 0), axis=1)
    rows = np.concatenate([down[:, ::-1], np.ones_like(mu), up], axis=1)
    rows /= rows.sum(axis=1, keepdims=True)
    return rows, mode[:, 0].astype(np.int64) - width


def poisson_width(mean):
    """Half-width of a window that holds a Poisson(mean) law to about 1e-20."""
    return math.ceil(10.0 * math.sqrt(mean)) + 10
