"""Analytical error bounds and channel-statistics fitting.

The core result is a union bound on the average bit error ratio of an
ML receiver over an enumerable candidate set: pairwise error
probabilities Q(sqrt(gamma_ex * ||H (x_t - x)||_F^2)) are weighted by
the Hamming distance between the candidate bit labels and averaged over
the channel. ``gamma_ex`` is half the linear SNR under unit-energy
transmit vectors and a unit-power reference path.
``union_bound_aber`` averages over the Rician model exactly (Craig's
formula and the MGF of each receive antenna's noncentral |CN|^2,
integrated by Gauss-Legendre quadrature); ``union_bound_aber_for_channels``
averages over an explicit stack of channel matrices. Both walk each
unordered candidate pair once, in the same bounded blocks of rows.

Also provided: a maximum-likelihood Rice amplitude fit with a
chi-squared goodness-of-fit test. The fit takes the Rayleigh boundary
(K = -inf dB) when the fourth moment says it is the maximum, and
otherwise solves the profile score's one root in K dB by Newton steps
from the moment estimate, inside a bisection bracket.
``RicianFit.iterations`` counts score evaluations.

The module needs numpy and the standard library only: the Q function
uses ``math.erfc``, and the fit's Bessel ratio, noncentral chi-squared
CDF and chi-squared tail are series and closed forms written here.
"""

import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import channel as channel_mod
from . import fileio, modem
from .errors import ConfigurationError, DegenerateInputError, DimensionError

__all__ = [
    "BoundConfig",
    "RicianFit",
    "q_function",
    "union_bound_aber_for_channels",
    "union_bound_aber",
    "fit_rician",
]


def q_function(w):
    """Gaussian tail probability Q(w) = P(N(0,1) > w), elementwise, as float64."""
    z = np.asarray(w, dtype=np.float64) / math.sqrt(2.0)
    erfc = np.fromiter(map(math.erfc, z.ravel().tolist()), np.float64, z.size)
    return 0.5 * erfc.reshape(z.shape)[()]


# (row, column) cells per pair block (blocks of 2**16 made the three benchmark
# bounds take twice as long) and the size of the bounds' per-block temporaries.
_PAIR_CHUNK = 2**14
_EVAL_ELEMENTS = 2**20


def _pair_blocks(n_cand):
    """Each unordered candidate pair once, in blocks of rows: yields lo, hi, the
    mask of pairs j > i in rows lo..hi-1 and their labels' Hamming distances."""
    idx = np.arange(n_cand)
    rows = max(_PAIR_CHUNK // n_cand, 1)
    for lo in range(0, n_cand - 1, rows):
        hi = min(lo + rows, n_cand - 1)
        upper = idx[None, :] > idx[lo:hi, None]
        yield lo, hi, upper, np.bitwise_count(idx[lo:hi, None] ^ idx[None, :])[upper]


def union_bound_aber_for_channels(candidates, h_stack, snr_grid_db):
    """Union-bound ABER averaged over an explicit stack of channel draws.

    ``candidates`` (n_cand, nt) must hold all 2**m vectors in bit-label
    order; ``h_stack`` is a finite (n_draws, nr, nt) stack or one (nr, nt)
    matrix. Each unordered pair's Q(sqrt(gamma_ex) ||H (x_i - x_j)||) is
    weighted by its Hamming distance and doubled, as in
    ``union_bound_aber``. Draws and pairs are walked in bounded blocks, so
    memory grows with neither. Returns the raw bound per SNR point --
    values above 0.5 are preserved.
    """
    x = np.asarray(candidates, dtype=np.complex128)
    hs = np.asarray(h_stack, dtype=np.complex128)
    if hs.ndim == 2:
        hs = hs[None, :, :]
    if x.ndim != 2 or hs.ndim != 3 or hs.shape[2] != x.shape[1] or hs.size == 0:
        raise DimensionError(f"candidates {x.shape} and channel stack {hs.shape} must be "
                             "(n_cand, nt) and a nonempty (n_draws, nr, nt) or (nr, nt)")
    if not (np.isfinite(x).all() and np.isfinite(hs).all()):
        raise DegenerateInputError("candidates and channels must be finite")
    n_cand = x.shape[0]
    m = modem.check_candidate_count(n_cand)
    grid = np.asarray(channel_mod.check_snr_grid(snr_grid_db))
    root_gamma = np.sqrt(10.0 ** (grid / 10.0) / 2.0)
    # A block has at most max(_PAIR_CHUNK, n_cand) cells; batches of draws keep
    # its (draws, nr, rows, n_cand) differences within _EVAL_ELEMENTS.
    n_draws, nr = hs.shape[:2]
    cells = min(max(_PAIR_CHUNK, n_cand), n_cand * (n_cand - 1))
    draws = max(_EVAL_ELEMENTS // (nr * cells), 1)
    totals = np.zeros(grid.size)
    for start in range(0, n_draws, draws):
        hx = np.einsum("ct,nrt->nrc", x, hs[start : start + draws])
        for lo, hi, upper, hamming in _pair_blocks(n_cand):
            diff = hx[:, :, lo:hi, None] - hx[:, :, None, :]
            dist = np.sqrt((diff.real**2 + diff.imag**2).sum(axis=1)[:, upper])
            for s, root_g in enumerate(root_gamma):
                totals[s] += (q_function(root_g * dist) @ hamming).sum()
    return 2.0 * totals / (m * n_draws * n_cand)


@dataclass(frozen=True)
class BoundConfig:
    """Inputs of the exact channel-averaged union bound.

    The CLI builds it from a ``harness.Link``, whose order and candidate
    checks it repeats. ``n_channels`` is accepted and checked (>= 1) for
    callers that still pass it, but the bound samples no channels and does
    not read it.
    """

    scheme: str
    nt: int
    nr: int
    modulation_order: int
    fading: channel_mod.FadingModel
    snr_grid_db: tuple
    imbalance: channel_mod.PowerImbalance | None = field(default=None)
    n_channels: int = 10_000

    def __post_init__(self):
        fileio.check_field_types(self)
        if self.nr < 1:
            raise ConfigurationError("nr must be >= 1")
        if self.n_channels < 1:
            raise ConfigurationError("n_channels must be >= 1")
        if self.imbalance is not None and self.imbalance.shape != (self.nr, self.nt):
            raise DimensionError(f"imbalance profile shape {self.imbalance.shape} "
                                 f"does not match ({self.nr}, {self.nt})")
        grid = channel_mod.check_snr_grid(self.snr_grid_db)
        if list(grid) != sorted(grid):
            raise ConfigurationError("snr_grid_db must be sorted ascending")
        object.__setattr__(self, "snr_grid_db", grid)
        modem.check_candidate_count(
            2 ** modem.bits_per_vector(self.scheme, self.nt, self.modulation_order))
        # Refuse the points where nr pair statistics, each at most (2 s_max
        # ||x||_1)^2, times gamma_ex / (2 sin^2 theta) at the smallest node
        # would overflow and make the bound NaN.
        peak = np.abs(modem.build_constellation(self.modulation_order).points).max()
        l1 = peak * (math.sqrt(self.nt) if self.scheme == "smx" else 1.0)
        s_max = 1.0 if self.imbalance is None else self.imbalance.amplitude_scale().max()
        scale = self.nr * max((s_max * l1) ** 2, 0.25) / math.sin(_craig_quadrature()[0].min()) ** 2
        limit_db = 10.0 * math.log10(np.finfo(np.float64).max / scale)
        if grid[-1] > limit_db:
            raise ConfigurationError(f"snr_grid_db points {[s for s in grid if s > limit_db]} "
                                     f"exceed the {limit_db:.1f} dB the bound's quadrature holds")


# Gauss-Legendre nodes for Craig's integral over (0, pi/2).
_CRAIG_NODES = 64


def _gauss_legendre(n):
    """Gauss-Legendre nodes and weights on (-1, 1), by Newton's method on P_n.

    Agrees with ``numpy.polynomial.legendre.leggauss`` to 1e-16 in the
    nodes and 1e-12 in the weights (these are within 1e-13 of 40-digit
    values). leggauss goes through a LAPACK eigensolver, whose first call
    adds about 0.9 MB of library pages to the process.
    """
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    # From these starting points the steps reach rounding (1e-16) in four
    # iterations at n = 64; six leave a margin.
    for _ in range(6):
        p_prev, p = np.ones(n), x
        for j in range(2, n + 1):
            p_prev, p = p, ((2 * j - 1) * x * p - (j - 1) * p_prev) / j
        dp = n * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / dp
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


@functools.cache
def _craig_quadrature():
    """Nodes theta on (0, pi/2) and weights of Craig's integral, 1/pi included."""
    t, w = _gauss_legendre(_CRAIG_NODES)
    return np.pi / 4.0 * (t + 1.0), w / 4.0  # dtheta = (pi/4) dt


def _craig_mgf_pep(mu_sq, sigma_sq, antennas, gamma_ex, theta, node_weights):
    """Channel-averaged Q(sqrt(gamma_ex * ||H e||^2)) for rows of statistics.

    ``mu_sq`` and ``sigma_sq`` are (k, g): the squared mean and the
    variance of an independent CN entry of H e for each of g receive
    antenna groups, ``antennas[u]`` antennas in group u. With c =
    gamma_ex / (2 sin^2 theta), Craig's formula and the MGF of
    |CN(mu, sigma^2)|^2 give (1/pi) int_0^{pi/2} prod_r exp(-c |mu_r|^2 /
    (1 + c sigma_r^2)) / (1 + c sigma_r^2) dtheta. Returns (k, n_snr).
    """
    c = (gamma_ex[:, None] / (2.0 * np.sin(theta) ** 2))[None, :, :, None]
    k, g = mu_sq.shape
    block = max(_EVAL_ELEMENTS // (c.size * g), 1)
    out = np.empty((k, gamma_ex.size))
    for lo in range(0, k, block):
        mu = mu_sq[lo : lo + block, None, None, :]
        cs = c * sigma_sq[lo : lo + block, None, None, :]
        log_f = -(c * mu / (1.0 + cs) + np.log1p(cs)) @ antennas
        out[lo : lo + block] = np.exp(log_f) @ node_weights
    return out


def union_bound_aber(config, rng=None):
    """Exact channel-averaged union-bound ABER over the configured model.

    Under the Rician model with power imbalance s = sqrt(10**(alpha/10)),
    entry r of H e (e = x_i - x_j) is CN(mu_r, sigma_r^2) with
    |mu_r|^2 = a^2 |sum_t s_rt e_t|^2 and sigma_r^2 = b^2 sum_t s_rt^2
    |e_t|^2 (a the LoS amplitude, b the diffuse std), independently over
    r. The pairwise error probability averaged over H is then Craig's
    integral over the product of their MGFs (Simon & Alouini, Digital
    Communication over Fading Channels; Di Renzo & Haas, IEEE TVT 2012),
    evaluated by 64-node Gauss-Legendre quadrature. Each unordered pair
    is used once (the PEP is symmetric in e -> -e), weighted by the
    Hamming distance of its labels; receive antennas with equal rows of
    s share their statistics, and the integral is evaluated once per
    distinct row of statistics. Pairs are processed in bounded chunks,
    so memory does not grow with the square of the candidate count.
    Returns the raw bound per SNR point -- values above 0.5 are
    preserved.

    The quadrature matches closed forms to about 1e-14 relative. The
    exception is a pair whose mean part nearly cancels while its diffuse
    part is negligible (a near line-of-sight channel, PEP within a few
    percent of 1/2): its integrand then rises within about 1e-3 rad of
    theta = 0, and that pair's PEP is off by up to 1e-4 relative.

    No channel is drawn: ``rng`` and ``config.n_channels`` are accepted
    and ignored.
    """
    constellation = modem.build_constellation(config.modulation_order)
    x = np.asarray(modem.candidate_vectors(config.scheme, config.nt, constellation),
                   dtype=np.complex128)
    n_cand, nt = x.shape
    m = modem.check_candidate_count(n_cand)
    nr = config.nr
    s = np.ones((nr, nt)) if config.imbalance is None else config.imbalance.amplitude_scale()
    s, antennas = np.unique(s, axis=0, return_counts=True)
    g = s.shape[0]
    a_sq = config.fading.los_amplitude**2
    b_sq = config.fading.diffuse_std**2
    gamma_ex = 10.0 ** (np.asarray(config.snr_grid_db) / 10.0) / 2.0
    theta, node_weights = _craig_quadrature()

    # Real coordinates: row k of xri is (Re x_k, Im x_k), so Re(u conj(v))
    # of two candidates is a real dot product.
    xri = np.concatenate([x.real, x.imag], axis=1)
    s_sq = np.concatenate([s, s], axis=1) ** 2
    los_re, los_im = s @ x.real.T, s @ x.imag.T  # (g, n): sum_t s_rt x_t
    energy = s_sq @ (xri**2).T  # (g, n): sum_t s_rt^2 |x_t|^2
    totals = np.zeros(gamma_ex.size)
    for lo, hi, upper, hamming in _pair_blocks(n_cand):
        # Per-group Gram rows sum_t s_rt^2 Re(x_it conj(x_jt)), one GEMM.
        gram = (s_sq[:, None, :] * xri[None, lo:hi, :]).reshape(-1, 2 * nt) @ xri.T
        sigma_sq = b_sq * np.maximum(energy[:, lo:hi, None] + energy[:, None, :]
                                     - 2.0 * gram.reshape(g, hi - lo, n_cand), 0.0)
        d_re = los_re[:, lo:hi, None] - los_re[:, None, :]
        d_im = los_im[:, lo:hi, None] - los_im[:, None, :]
        mu_sq = a_sq * (d_re * d_re + d_im * d_im)
        pairs = np.concatenate([mu_sq[:, upper], sigma_sq[:, upper]]).T.copy()
        distinct, inverse = np.unique(
            pairs.view(np.dtype((np.void, pairs.itemsize * 2 * g))).ravel(),
            return_inverse=True,
        )
        weight = np.bincount(inverse.ravel(), weights=hamming, minlength=distinct.size)
        distinct = distinct.view(np.float64).reshape(-1, 2 * g)
        pep = _craig_mgf_pep(distinct[:, :g], distinct[:, g:], antennas, gamma_ex,
                             theta, node_weights)
        totals += weight @ pep
    return 2.0 * totals / (m * n_cand)


@dataclass(frozen=True)
class RicianFit:
    """Rice amplitude fit: K factor, fitted parameters and GOF p-value.

    ``k_factor_db`` is -inf and ``nu`` 0 when the Rayleigh boundary is
    the maximum-likelihood answer. ``iterations`` counts score
    evaluations; ``converged`` is False when the evaluation cap cut the
    root solve short.
    """

    k_factor_db: float
    mean_amplitude: float
    nu: float
    sigma: float
    gof_p_value: float
    iterations: int
    converged: bool


_K_FLOOR_DB = -90.0
_K_CEILING_DB = 130.0
_SCORE_ULPS = 4
# The solve's step tolerance in dB, and the GOF's equal-probability classes
# (each expects at least 50 of the fit's 1000 or more samples).
_TOL_DB = 1e-9
_GOF_BINS = 20


def _rice_curve(k_db):
    """(nu, sigma^2) at K dB on the unit-power curve nu^2 + 2 sigma^2 = 1."""
    k = 10.0 ** (k_db / 10.0)
    return math.sqrt(k / (1.0 + k)), 0.5 / (1.0 + k)


# Below this argument the Bessel ratio sums the power series of I0 and I1;
# above it their Hankel expansions, whose terms at r = 25 fall below
# _SUM_RTOL of the sum after 20 terms and would start to grow only after 50.
_SERIES_LIMIT = 25.0
_SUM_RTOL = 1e-17


def _bessel_ratio(r):
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


def fit_rician(amplitude_samples, max_iterations=200):
    """Maximum-likelihood Rice fit of nonnegative amplitude samples.

    The samples are scaled to unit RMS (divided by their maximum first,
    so no square overflows); the answer does not depend on their unit.
    At a stationary point of the likelihood sigma^2 = (1 - nu^2) / 2, so
    one score equation in nu is left (Talukdar & Lawing, JASA 1991;
    Koay & Basser, J. Magn. Reson. 2006):

        s(nu) = mean(u I1(u nu / sigma^2) / I0(u nu / sigma^2)) - nu,

    whose sign is the sign of the log-likelihood's slope along that
    curve. Near nu = 0, s = nu^3 (1 - mean(u^4) / 2) + O(nu^5), so when
    mean(u^4) >= 2 the Rayleigh boundary nu = 0 is the maximum: the fit
    reports K = -inf dB and evaluates no score. Otherwise s has one
    interior root, the maximum (Carobbi & Cati, IEEE Trans. Instrum.
    Meas., 2008), solved in K = nu^2 / (2 sigma^2) in dB: from the moment
    estimate K = w / (1 - w), w = sqrt(2 - mean(u^4)) (Greenstein,
    Michelson & Erceg, IEEE Commun. Lett., 1999), by Newton steps on the
    analytic slope (A = I1 / I0 has A' = 1 - A / r - A^2; A comes from the
    power series of I0 and I1 below r = 25 and their Hankel expansions
    above, within 3e-15 relative of scipy's i1e / i0e) inside a
    bisection bracket on [-90, 130] dB that each score's sign narrows,
    until a step is within 1e-9 dB (nu and sigma then hold to about
    1.2e-10 relative) or within what the score resolves, 4 ulps of nu
    over its slope (about 7.6e-15 * 10^(K/10) dB at large K, above
    1e-9 dB past about 51 dB). A root within that of the floor is
    reported as the Rayleigh boundary; one within it of the ceiling, above
    which the score cannot resolve K in double precision, raises
    ``DegenerateInputError``.

    ``max_iterations`` caps the score evaluations and ``iterations``
    counts them; ``converged`` is False when the cap cut the solve
    short. The p-value is a chi-squared goodness-of-fit test over 20
    equal-probability classes of the fitted distribution, counted
    through its CDF. Raises :class:`ConfigurationError` unless
    ``max_iterations`` is an integer >= 1.
    """
    if not (isinstance(max_iterations, numbers.Integral) and not isinstance(max_iterations, bool)
            and max_iterations >= 1):
        raise ConfigurationError(f"max_iterations must be an integer >= 1, got {max_iterations!r}")
    x = np.asarray(amplitude_samples, dtype=np.float64)
    if x.ndim != 1 or x.size < 1000:
        raise DegenerateInputError("need at least 1000 one-dimensional samples")
    if (x < 0).any() or not np.isfinite(x).all():
        raise DegenerateInputError("amplitude samples must be finite and >= 0")
    if np.ptp(x) == 0.0:
        raise DegenerateInputError("samples are all equal; no distribution to fit")

    peak = float(x.max())
    scale = peak * float(np.sqrt(np.mean((x / peak) ** 2)))
    u = x / scale
    v = u * u
    # mean(u^4) - 1, as a variance: it does not cancel at large K.
    gamma = float(np.var(v) / np.mean(v) ** 2)

    def score(k_db):
        """s, ds/dK_dB = nu ln(10) / 10 * ((1 + nu^2) / (2 sigma^2) *
        mean(u^2 A'(r)) - sigma^2) and nu, as c = nu / sigma^2 = 2 sqrt(K (1 + K))."""
        nu, sigma_sq = _rice_curve(k_db)
        c = nu / sigma_sq
        r = u * c
        ua = u * _bessel_ratio(r)
        # u^2 A'(r). 1 - A/r - A^2 cancels as r grows; past r = 1e4 the series
        # 1/(2 r^2) + 1/(4 r^3) is closer (7.5e-9 relative there, and falling).
        v_slope = np.where(r < 1e4, v - ua * ua - ua / c, (0.5 + 0.25 / np.maximum(r, 1e4)) / c**2)
        slope = (1.0 + nu * nu) / (2.0 * sigma_sq) * float(np.mean(v_slope)) - sigma_sq
        return float(np.mean(ua)) - nu, nu * slope * math.log(10.0) / 10.0, nu

    k_db, evaluations, converged = float("-inf"), 0, True
    if gamma < 1.0:
        w = math.sqrt(1.0 - gamma)
        lo, hi = _K_FLOOR_DB, _K_CEILING_DB
        t = min(max(10.0 * math.log10(w * (1.0 + w) / gamma), lo), hi) if gamma else hi
        step, converged = hi - lo, False
        while evaluations < max_iterations and not converged:
            evaluations += 1
            s, slope, nu = score(t)
            lo, hi = (t, hi) if s > 0 else (lo, t)
            last, step = step, -s / slope if slope < 0 else math.inf
            # mean(u A) - nu rounds within a few ulps of nu (2.5 measured at
            # 60-120 dB), and K resolves no finer than that over the slope.
            stop = max(_TOL_DB, _SCORE_ULPS * math.ulp(nu) / -slope) if slope < 0 else _TOL_DB
            # Bisect where Newton leaves the bracket or does not halve the step.
            if not lo <= t + step <= hi or abs(step) > 0.5 * abs(last):
                step = 0.5 * (lo + hi) - t
            t += step
            converged = abs(step) < stop
        if converged and t > _K_CEILING_DB - stop:
            raise DegenerateInputError(f"K is at or above {_K_CEILING_DB:g} dB, where the "
                                       "profile score cannot resolve it in double precision")
        if not (converged and t < _K_FLOOR_DB + stop):
            k_db = t
    nu_unit, sigma_sq_unit = _rice_curve(k_db)
    sigma_unit = math.sqrt(sigma_sq_unit)
    return RicianFit(
        k_factor_db=k_db,
        mean_amplitude=float(np.mean(u)) * scale,
        nu=nu_unit * scale,
        sigma=sigma_unit * scale,
        gof_p_value=_rice_gof_p_value(u, nu_unit, sigma_unit),
        iterations=evaluations,
        converged=converged,
    )


def _rice_gof_p_value(x, nu, sigma):
    """Chi-squared GOF of samples against a fitted Rice(nu, sigma).

    Under the fit, y = (x/sigma)^2 is noncentral chi-squared with 2
    degrees of freedom and noncentrality nc = (nu/sigma)^2. Its
    ``_GOF_BINS`` equal-probability classes (Mann & Wald, Ann. Math.
    Statist., 1942) are counted without their edges: a sample lies below
    the edge at level q exactly when the fitted CDF at it is below q, so
    a bisection over the sorted samples' ranks finds each level's count,
    in log2(n) rounds of the CDF at one sample per level. Two parameters
    were estimated from the data, so the statistic has ``_GOF_BINS`` - 3
    degrees of freedom; the p-value is the closed-form chi-squared tail
    ``_chi2_sf``.
    """
    n = x.size
    cdf = _ncx2_cdf((nu / sigma) ** 2)
    levels = np.arange(1, _GOF_BINS) / _GOF_BINS
    lo, hi = np.zeros(levels.size, dtype=np.int64), np.full(levels.size, n)
    y = np.sort((x / sigma) ** 2)
    for _ in range(n.bit_length()):
        mid = (lo + hi) // 2
        below = cdf(y[np.minimum(mid, n - 1)]) < levels
        lo, hi = np.where(below, np.minimum(mid + 1, hi), lo), np.where(below, hi, mid)
    counts = np.diff(lo, prepend=0, append=n)
    expected = n / _GOF_BINS
    statistic = float(np.sum((counts - expected) ** 2) / expected)
    return _chi2_sf(_GOF_BINS - 1 - 2, statistic)


def _ncx2_cdf(nc):
    """The CDF of noncentral chi-squared with 2 degrees of freedom and
    noncentrality nc >= 0, as a function of an array y >= 0.

    At nc = 0 it is 1 - e^(-y/2). Up to nc = 1e6 it is the Poisson mixture
    of central laws (Johnson, Kotz & Balakrishnan, Continuous Univariate
    Distributions vol. 2, ch. 29), F(y) = P(Pois(y/2) > Pois(nc/2)), a sum
    over Poisson windows; y is clipped at the law's mean + 40 sd, where F
    is 1, so that no outlier widens them. Above, it is the Gaussian limit
    sqrt(y) = sqrt(nc) + 1/(2 sqrt(nc)) + N(0, 1), off by about 0.06/nc.
    """
    if nc == 0:
        return lambda y: -np.expm1(-0.5 * y)
    if nc > 1e6:
        shift = math.sqrt(nc) + 0.5 / math.sqrt(nc)
        return lambda y: q_function(shift - np.sqrt(y))
    rows, starts = _poisson_rows(np.array([0.5 * nc]), _poisson_width(0.5 * nc))
    lam_size, lam_start = rows.shape[1], starts[0]
    # P(Pois(nc/2) < i) at position i - lam_start.
    lam_below = np.concatenate(([0.0], np.cumsum(rows[0])))
    h_max = 0.5 * (2.0 + nc + 80.0 * math.sqrt(1.0 + nc))

    def cdf(y):
        # y = 0 gives the point mass at 0, so F(0) = 0.
        h = np.minimum(0.5 * y, h_max)
        rows, start = _poisson_rows(h, _poisson_width(h.max()))
        pos = start[:, None] - lam_start + np.arange(rows.shape[1])
        return (rows * lam_below[np.clip(pos, 0, lam_size)]).sum(axis=1)

    return cdf


def _chi2_sf(dof, x):
    """P(chi^2_dof > x) for an integer dof >= 1 (Abramowitz & Stegun 26.4.4-5).

    With h = x/2, an even dof gives e^-h sum_{k < dof/2} h^k / k! and an
    odd dof erfc(sqrt(h)) + e^-h sum_{k < (dof-1)/2} h^(k+1/2) / Gamma(k+3/2).
    """
    if x <= 0.0:
        return 1.0
    h = 0.5 * x
    if dof % 2 == 0:
        return _poisson_sum(0.0, dof // 2, h)
    return math.erfc(math.sqrt(h)) + _poisson_sum(0.5, dof // 2, h)


def _poisson_sum(a, count, h):
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


def _poisson_rows(mean, width):
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


def _poisson_width(mean):
    """Half-width of a window that holds a Poisson(mean) law to about 1e-20."""
    return math.ceil(10.0 * math.sqrt(mean)) + 10
