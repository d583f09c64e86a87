"""Flat MIMO channel models: Rician fading with per-path power imbalance.

Each entry of the (nr, nt) channel matrix is drawn independently as

    h = sqrt(K / (K + 1)) + sqrt(1 / (K + 1)) * w,   w ~ CN(0, 1),

i.e. a fixed zero-phase specular part plus a unit-variance diffuse part,
so E[|h|^2] = 1 before imbalance. K = 0 (``-inf`` dB) recovers Rayleigh
fading. A power-imbalance profile then scales entry (r, t) by
sqrt(10**(alpha_db[r, t] / 10)), expressing each path's average power
relative to the reference path (0, 0).
"""

import math
from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import ConfigurationError, DimensionError

__all__ = [
    "db_to_linear",
    "check_snr_grid",
    "check_offset",
    "FadingModel",
    "PowerImbalance",
    "imbalance_profile",
    "draw_channel",
    "draw_channels",
    "propagate_symbols",
    "propagate_waveform",
    "carrier_ramp",
    "awgn",
]

# Samples per block of the sample-path stages: 2**15 complex samples are
# 512 KiB, small enough to stay in cache, large enough that the per-block
# Python overhead is negligible next to the arithmetic.
SAMPLE_BLOCK = 1 << 15

# Measured per-path gain offsets (dB) of two 2x2 receiver placements,
# rows = receive antenna, columns = transmit antenna.
_PROFILES = {
    "none": None,
    "rx_config_1": [[0.0, 0.88], [0.25, 1.10]],
    "rx_config_2": [[0.0, 1.13], [0.29, 1.17]],
}


def db_to_linear(db, what):
    """10**(db/10) as a float; :class:`ConfigurationError` names ``what``
    when the linear value overflows a float (above about 3082 dB)."""
    try:
        return 10.0 ** (float(db) / 10.0)
    except OverflowError:
        raise ConfigurationError(f"{what} overflows a float in linear units") from None


def check_snr_grid(snr_grid_db):
    """An SNR grid in dB as a tuple of floats. :class:`ConfigurationError`
    unless it is nonempty and finite and every point's linear SNR and
    noise variance fit a float (|SNR| below about 3082 dB)."""
    try:
        grid = tuple(float(s) for s in snr_grid_db)
    except (TypeError, ValueError):
        raise ConfigurationError("snr_grid_db must be a sequence of numbers") from None
    if not grid:
        raise ConfigurationError("snr_grid_db must be nonempty")
    if not np.isfinite(grid).all():
        raise ConfigurationError(f"snr_grid_db must be finite, got {grid!r}")
    for snr_db in grid:
        db_to_linear(snr_db, f"the SNR of {snr_db!r} dB")
        db_to_linear(-snr_db, f"the noise variance at {snr_db!r} dB SNR")
    return grid


def check_offset(fo_cycles_per_sample):
    """:class:`ConfigurationError` unless the carrier offset is one real
    number in [-0.5, 0.5] cycles per sample; beyond, an offset aliases.
    NaN, infinities, lists and arrays (0-d included) are refused."""
    x = fo_cycles_per_sample
    if not (isinstance(x, Real) and abs(x) <= 0.5):
        raise ConfigurationError(f"carrier offset fo_cycles_per_sample must be a number in "
                                 f"[-0.5, 0.5], got {x!r}")


@dataclass(frozen=True)
class FadingModel:
    """Rician small-scale fading with K factor in dB (-inf = Rayleigh)."""

    k_factor_db: float = float("-inf")

    def __post_init__(self):
        if not (isinstance(self.k_factor_db, Real) and -np.inf <= self.k_factor_db < np.inf):
            raise ConfigurationError(f"K must be finite or -inf dB, got {self.k_factor_db!r}")
        db_to_linear(self.k_factor_db, f"K of {self.k_factor_db!r} dB")

    @property
    def k_linear(self):
        return db_to_linear(self.k_factor_db, "K")

    @property
    def los_amplitude(self):
        k = self.k_linear
        return float(np.sqrt(k / (k + 1.0)))

    @property
    def diffuse_std(self):
        """Per-complex-entry std of the scattered part (total, both axes)."""
        return float(np.sqrt(1.0 / (self.k_linear + 1.0)))


@dataclass(frozen=True)
class PowerImbalance:
    """Per-path average-gain offsets in dB, shape (nr, nt).

    Entry (0, 0) is the reference and must be 0; all offsets must be
    finite and nonnegative (paths are expressed relative to the weakest).
    """

    alpha_db: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.alpha_db, dtype=np.float64))
        if a.ndim != 2:
            raise DimensionError("imbalance profile must be a 2-D matrix")
        if not np.isfinite(a).all():
            raise ConfigurationError("imbalance offsets must be finite")
        if a[0, 0] != 0.0:
            raise ConfigurationError("reference path offset alpha[0, 0] must be 0 dB")
        if (a < 0).any():
            raise ConfigurationError("imbalance offsets must be >= 0 dB")
        object.__setattr__(self, "alpha_db", a)

    @property
    def shape(self):
        return self.alpha_db.shape

    def amplitude_scale(self):
        """Entrywise sqrt(10**(alpha/10)) applied to the channel matrix."""
        return np.sqrt(10.0 ** (self.alpha_db / 10.0))


def imbalance_profile(name, nr=2, nt=2):
    """Named imbalance profile, or None for the balanced case."""
    if name not in _PROFILES:
        raise ConfigurationError(
            f"unknown imbalance profile {name!r}; choose from {sorted(_PROFILES)}"
        )
    raw = _PROFILES[name]
    if raw is None:
        return None
    pi = PowerImbalance(np.array(raw))
    if pi.shape != (nr, nt):
        raise DimensionError(
            f"profile {name!r} is for a {pi.shape} array, requested ({nr}, {nt})"
        )
    return pi


def draw_channel(nr, nt, fading, imbalance=None, rng=None):
    """Draw one (nr, nt) channel matrix."""
    return draw_channels(1, nr, nt, fading, imbalance, rng)[0]


def _interleaved_normal(rng, shape):
    """Complex array whose (re, im) pairs are one (*shape, 2) standard normal draw."""
    return rng.standard_normal(shape + (2,)).view(np.complex128)[..., 0]


def draw_channels(n, nr, nt, fading, imbalance=None, rng=None):
    """Draw an (n, nr, nt) stack of independent channel matrices."""
    if rng is None:
        rng = np.random.default_rng()
    if imbalance is not None and imbalance.shape != (nr, nt):
        raise DimensionError(
            f"imbalance profile shape {imbalance.shape} does not match ({nr}, {nt})"
        )
    h = _interleaved_normal(rng, (n, nr, nt))
    h /= np.sqrt(2.0)
    h *= fading.diffuse_std
    h += fading.los_amplitude
    if imbalance is not None:
        h *= imbalance.amplitude_scale()[None, :, :]
    return h


def awgn(shape, noise_var, rng):
    """Circular complex Gaussian noise with total variance noise_var."""
    w = _interleaved_normal(rng, shape)
    w *= np.sqrt(noise_var / 2.0)
    return w


def propagate_symbols(vectors, h, noise_var, rng):
    """y = H x + n for a block of (n, nt) transmit vectors.

    ``noise_var`` is the total variance per complex receive sample
    (split evenly between real and imaginary parts).
    """
    x = np.asarray(vectors)
    if x.ndim != 2 or x.shape[1] != h.shape[1]:
        raise DimensionError("transmit block must be (n, nt) matching H")
    y = x @ h.T
    if noise_var > 0:
        y = y + awgn(y.shape, noise_var, rng)
    return y


def propagate_waveform(samples, h, fo_cycles_per_sample=0.0, noise_var=0.0, rng=None):
    """Mix per-antenna sample streams through a flat channel.

    ``samples`` is an (nt, n_samples) array, or a block source with a
    ``shape`` (nt, n_samples) and a ``segment(start, stop)`` that builds
    those samples (``txchain.TransmissionVector``). The output
    (nr, n_samples) is (H @ samples) rotated by exp(2j*pi*fo*k) -- a
    constant carrier frequency offset in cycles per sample, within
    [-0.5, 0.5] -- plus complex AWGN of total variance ``noise_var`` per
    sample. The noise equals one (n_samples, nr) :func:`awgn` draw,
    transposed, so the generator fills it sample by sample. One loop
    takes a block of whole :func:`carrier_ramp` blocks (about
    ``SAMPLE_BLOCK`` samples) at a time: it mixes that block's input
    into its slice of the output, then rotates it and adds its noise.
    The output is the only full-length array the call allocates.
    """
    source = samples if hasattr(samples, "segment") else np.asarray(samples)
    if len(source.shape) != 2 or source.shape[0] != h.shape[1]:
        raise DimensionError("sample block must be (nt, n_samples) matching H")
    segment = getattr(source, "segment", lambda a, b: source[:, a:b])
    check_offset(fo_cycles_per_sample)
    if noise_var > 0 and rng is None:
        raise ConfigurationError("rng is required when noise_var > 0")
    nr, n = h.shape[0], source.shape[1]
    y = np.empty((nr, n), dtype=np.result_type(h, segment(0, 0)))
    if fo_cycles_per_sample != 0.0:
        outer, inner = _ramp_factors(fo_cycles_per_sample, n)
    ramp_block = _ramp_block(n)
    per_block = max(1, SAMPLE_BLOCK // ramp_block)
    for b in range(0, -(-n // ramp_block), per_block):
        start = b * ramp_block
        block = y[:, start : start + per_block * ramp_block]
        np.matmul(h, segment(start, start + block.shape[1]), out=block)
        if fo_cycles_per_sample != 0.0:
            block *= (outer[b : b + per_block] * inner).reshape(-1)[: block.shape[1]]
        if noise_var > 0:
            block += awgn((block.shape[1], nr), noise_var, rng).T
    return y


def _ramp_block(n):
    """Indices per block of an n-index :func:`carrier_ramp`."""
    return max(1, math.isqrt(n))


def _ramp_factors(delta, n, first_index=0):
    """The (n_blocks, 1) block phasors and (block,) in-block phasors of
    :func:`carrier_ramp`, whose products are its entries."""
    block = _ramp_block(n)
    n_blocks = -(-n // block)
    w = 2.0 * np.pi * delta
    start = first_index + block * np.arange(n_blocks)[:, None]
    return np.exp(1j * (w * start)), np.exp(1j * (w * np.arange(block)))


def carrier_ramp(delta, n, first_index=0):
    """exp(2j*pi*delta*(first_index + k)) for k = 0..n-1, an (n,) array.

    ``delta`` is one offset in cycles per sample and ``first_index`` one
    integer; an offset that :func:`check_offset` refuses (outside
    [-0.5, 0.5], NaN and infinities included, or not a single number)
    raises :class:`ConfigurationError`.
    The ramp is a block phasor (one per run of about sqrt(n) indices)
    times an in-block phasor: about 2 sqrt(n) complex exponentials
    instead of n, within a few ulps of the largest phase of the direct
    ``np.exp`` (4.5e-13 at 3.1e3 rad).
    """
    check_offset(delta)
    outer, inner = _ramp_factors(delta, n, first_index)
    return (outer * inner).reshape(-1)[:n]
