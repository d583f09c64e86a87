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
chi-squared goodness-of-fit test. The fit solves the one-dimensional
profile score in nu (sigma follows from nu through the second moment)
by a coarse K grid and ``brentq``, and takes the global likelihood
maximum among its roots and the Rayleigh boundary nu = 0, which it
reports as K = -inf dB. ``RicianFit.iterations`` counts
score evaluations, ``max_iterations`` caps them, and
``RicianFit.converged`` says whether every root refinement finished.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import channel as channel_mod
from . import modem
from .errors import ConfigurationError, DegenerateInputError, DimensionError

__all__ = [
    "BoundConfig",
    "RicianFit",
    "q_function",
    "union_bound_aber_for_channels",
    "union_bound_aber",
    "fit_rician",
]

MAX_CANDIDATES = 2**16


def q_function(w):
    """Gaussian tail probability Q(w) = P(N(0,1) > w)."""
    from scipy import special

    return 0.5 * special.erfc(np.asarray(w, dtype=np.float64) / np.sqrt(2.0))


def _check_candidate_count(n_cand):
    """log2 of a candidate count that is a power of two in [2, MAX_CANDIDATES]."""
    if n_cand < 2 or n_cand & (n_cand - 1):
        raise ConfigurationError("candidate count must be a power of two >= 2")
    if n_cand > MAX_CANDIDATES:
        raise ConfigurationError(
            f"candidate set of {n_cand} exceeds the {MAX_CANDIDATES} guard"
        )
    return n_cand.bit_length() - 1


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
    m = _check_candidate_count(n_cand)
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

    ``n_channels`` is accepted and checked (>= 1) for callers that still
    pass it, but the bound samples no channels and does not read it.
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
        if self.nr < 1:
            raise ConfigurationError("nr must be >= 1")
        if self.n_channels < 1:
            raise ConfigurationError("n_channels must be >= 1")
        grid = channel_mod.check_snr_grid(self.snr_grid_db)
        if list(grid) != sorted(grid):
            raise ConfigurationError("snr_grid_db must be sorted ascending")
        object.__setattr__(self, "snr_grid_db", grid)
        # Refuse the points where nr pair statistics, each at most (2 s_max
        # ||x||_1)^2, times gamma_ex / (2 sin^2 theta) at the smallest node
        # would overflow and make the bound NaN.
        modem.bits_per_vector(self.scheme, self.nt, self.modulation_order)
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
    m = _check_candidate_count(n_cand)
    nr = config.nr
    if config.imbalance is None:
        s = np.ones((nr, nt))
    elif config.imbalance.shape != (nr, nt):
        raise DimensionError(
            f"imbalance profile shape {config.imbalance.shape} does not match ({nr}, {nt})"
        )
    else:
        s = config.imbalance.amplitude_scale()
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
        stats = np.empty((2 * g, hi - lo, n_cand))
        mu_sq, sigma_sq = stats[:g], stats[g:]
        # Per-group Gram rows sum_t s_rt^2 Re(x_it conj(x_jt)), one GEMM.
        gram = (s_sq[:, None, :] * xri[None, lo:hi, :]).reshape(-1, 2 * nt) @ xri.T
        np.subtract(energy[:, lo:hi, None] + energy[:, None, :],
                    2.0 * gram.reshape(g, hi - lo, n_cand), out=sigma_sq)
        np.maximum(sigma_sq, 0.0, out=sigma_sq)
        sigma_sq *= b_sq
        d_re = los_re[:, lo:hi, None] - los_re[:, None, :]
        d_im = los_im[:, lo:hi, None] - los_im[:, None, :]
        np.multiply(d_re, d_re, out=mu_sq)
        mu_sq += d_im * d_im
        mu_sq *= a_sq
        pairs = np.ascontiguousarray(stats[:, upper].T)
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
    evaluations; ``converged`` is False when the evaluation cap cut a
    root refinement short.
    """

    k_factor_db: float
    mean_amplitude: float
    nu: float
    sigma: float
    gof_p_value: float
    iterations: int
    converged: bool


# Coarse K grid (dB) on which the score's sign changes are found. It is
# extended in 30 dB steps downwards while the score is negative (a root
# may lie between the boundary and the grid) and upwards while positive.
_K_GRID_DB = np.linspace(-30.0, 60.0, 7)
_K_STEP_DB = 30.0
_K_FLOOR_DB = -90.0
_K_CEILING_DB = 300.0


def _rice_curve(k_db):
    """(nu, sigma^2) at K dB on the unit-power curve nu^2 + 2 sigma^2 = 1."""
    k = 10.0 ** (k_db / 10.0)
    return math.sqrt(k / (1.0 + k)), 0.5 / (1.0 + k)


def _rice_log_likelihood(u, nu, sigma_sq):
    """Mean Rice log-likelihood of the samples ``u``, less mean(log u).

    log I0(r) = log i0e(r) + r, and r - (u^2 + nu^2) / (2 sigma^2) is
    -(u - nu)^2 / (2 sigma^2), which does not cancel at large K.
    """
    from scipy import special

    r = u * (nu / sigma_sq)
    return float(np.mean(np.log(special.i0e(r)) - (u - nu) ** 2 / (2.0 * sigma_sq))
                 - np.log(sigma_sq))


def fit_rician(amplitude_samples, tol=1e-9, max_iterations=200, gof_bins=20):
    """Maximum-likelihood Rice fit of nonnegative amplitude samples.

    The samples are scaled to unit RMS (divided by their maximum first,
    so no square overflows); the answer does not depend on their unit.
    At a stationary point of the likelihood sigma^2 = (1 - nu^2) / 2, so
    one score equation in nu is left (Talukdar & Lawing, JASA 1991;
    Koay & Basser, J. Magn. Reson. 2006):

        s(nu) = mean(u I1(u nu / sigma^2) / I0(u nu / sigma^2)) - nu,

    whose sign is the sign of the log-likelihood's slope along that
    curve. It is parametrised by K = nu^2 / (2 sigma^2) in dB. Each
    change of sign from + to - on a coarse K grid is refined with
    ``scipy.optimize.brentq`` to ``tol`` dB (K in dB is unit-free; nu and
    sigma then hold to about 0.12 * tol relative), and the candidate with
    the largest log-likelihood is returned. The boundary nu = 0, where
    the Rayleigh ML sigma^2 is 1 / 2, is always a candidate: s vanishes
    there like nu^3, and when the boundary wins the fit reports
    K = -inf dB as its answer, not as a failure.

    ``max_iterations`` caps the score evaluations (the coarse grid, 7 to
    17 of them, is always evaluated in full) and ``iterations`` counts
    them; ``converged`` is False when the cap cut a refinement short.
    The p-value is a chi-squared goodness-of-fit test over ``gof_bins``
    equal-probability bins of the fitted distribution (merged while an
    expected count would fall below 5).
    """
    from scipy import optimize, special

    x = np.asarray(amplitude_samples, dtype=np.float64)
    if x.ndim != 1 or x.size < 1000:
        raise DegenerateInputError("need at least 1000 one-dimensional samples")
    if (x < 0).any() or not np.isfinite(x).all():
        raise DegenerateInputError("amplitude samples must be finite and >= 0")
    if np.ptp(x) == 0.0:
        raise DegenerateInputError("samples are all equal; no distribution to fit")
    if not tol > 0 or max_iterations < 1:
        raise ConfigurationError("tol must be > 0 and max_iterations >= 1")

    peak = float(x.max())
    scale = peak * float(np.sqrt(np.mean((x / peak) ** 2)))
    u = x / scale
    evaluations = 0

    def score(k_db):
        nonlocal evaluations
        evaluations += 1
        nu, sigma_sq = _rice_curve(k_db)
        r = u * (nu / sigma_sq)
        # i1e/i0e keeps the Bessel ratio finite for large arguments.
        return float(np.mean(u * (special.i1e(r) / special.i0e(r)))) - nu

    grid = list(_K_GRID_DB)
    values = [score(k) for k in grid]
    while values[0] < 0 and grid[0] > _K_FLOOR_DB:
        grid.insert(0, grid[0] - _K_STEP_DB)
        values.insert(0, score(grid[0]))
    while values[-1] > 0 and grid[-1] < _K_CEILING_DB:
        grid.append(grid[-1] + _K_STEP_DB)
        values.append(score(grid[-1]))

    candidates = [float("-inf")]
    converged = True
    for lo, hi, s_lo, s_hi in zip(grid, grid[1:], values, values[1:]):
        if not s_lo > 0 >= s_hi:
            continue
        # brentq evaluates both ends again before it iterates.
        k_db, result = optimize.brentq(
            score, lo, hi, xtol=tol, maxiter=max(max_iterations - evaluations - 2, 0),
            full_output=True, disp=False,
        )
        converged = converged and result.converged
        candidates.append(k_db)
    k_db = max(candidates, key=lambda k: _rice_log_likelihood(u, *_rice_curve(k)))
    nu_unit, sigma_sq_unit = _rice_curve(k_db)
    sigma_unit = math.sqrt(sigma_sq_unit)
    return RicianFit(
        k_factor_db=k_db,
        mean_amplitude=float(np.mean(u)) * scale,
        nu=nu_unit * scale,
        sigma=sigma_unit * scale,
        gof_p_value=_rice_gof_p_value(u, nu_unit, sigma_unit, gof_bins),
        iterations=evaluations,
        converged=converged,
    )


def _rice_gof_p_value(x, nu, sigma, n_bins):
    """Chi-squared GOF of samples against a fitted Rice(nu, sigma).

    Under the fit, (x/sigma)^2 is noncentral chi-squared with 2 degrees
    of freedom and noncentrality (nu/sigma)^2; bin edges are its
    equal-probability quantiles. Two parameters were estimated from the
    data, so the statistic has n_bins - 3 degrees of freedom.

    The quantiles and the tail probability come from the ``scipy.special``
    functions behind ``scipy.stats.ncx2.ppf`` (``chndtrix``; at nc = 0,
    the central quantile 2 * gammaincinv(1, q)) and ``scipy.stats.chi2.sf``
    (``chdtrc``), so ``scipy.stats`` and its import cost stay out.
    """
    from scipy import special

    n = x.size
    while n_bins > 3 and n / n_bins < 5:
        n_bins -= 1
    if n_bins <= 3:
        raise DegenerateInputError("too few samples for a chi-squared GOF")
    nc = (nu / sigma) ** 2
    q = np.arange(1, n_bins) / n_bins
    edges = special.chndtrix(q, 2, nc) if nc != 0 else 2.0 * special.gammaincinv(1.0, q)
    counts, _ = np.histogram((x / sigma) ** 2, bins=np.concatenate(([0.0], edges, [np.inf])))
    expected = n / n_bins
    statistic = float(np.sum((counts - expected) ** 2) / expected)
    dof = n_bins - 1 - 2
    return float(special.chdtrc(dof, statistic))

