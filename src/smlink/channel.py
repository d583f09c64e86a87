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
from numbers import Integral, Real

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
    "ReceivedWaveform",
    "check_noise_var",
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
    unless it is a nonempty sequence of real numbers (a str or bytes is no
    grid, and bool is no number), finite, and every point's linear SNR and
    noise variance fit a float (|SNR| below about 3082 dB)."""
    try:
        points = None if isinstance(snr_grid_db, (str, bytes)) else tuple(snr_grid_db)
    except TypeError:
        points = None
    if points is None or not all(isinstance(s, Real) and not isinstance(s, bool) for s in points):
        raise ConfigurationError("snr_grid_db must be a sequence of numbers")
    try:
        grid = tuple(float(s) for s in points)
    except OverflowError:
        raise ConfigurationError("snr_grid_db holds a number too large for a float") from None
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
        k = self.k_factor_db
        if isinstance(k, bool) or not (isinstance(k, Real) and -np.inf <= k < np.inf):
            raise ConfigurationError(f"K must be finite or -inf dB (not a bool), got {k!r}")
        db_to_linear(k, f"K of {k!r} dB")

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
    if not isinstance(name, str) or name not in _PROFILES:
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
    """Draw an (n, nr, nt) stack of independent channel matrices; a size that
    is not an integer >= 0 raises :class:`DimensionError`."""
    if not all(isinstance(k, Integral) and k >= 0 for k in (n, nr, nt)):
        raise DimensionError(f"channel stack sizes must be integers >= 0, got {(n, nr, nt)}")
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


def check_noise_var(noise_var):
    """:class:`ConfigurationError` unless the noise variance is finite and
    nonnegative (NaN, infinities and negative values are refused)."""
    if not 0.0 <= noise_var < np.inf:
        raise ConfigurationError(f"noise_var must be finite and >= 0, got {noise_var!r}")


def awgn(shape, noise_var, rng):
    """Circular complex Gaussian noise with total variance noise_var, which
    must be finite and nonnegative (:func:`check_noise_var`)."""
    check_noise_var(noise_var)
    w = _interleaved_normal(rng, shape)
    w *= np.sqrt(noise_var / 2.0)
    return w


def propagate_symbols(vectors, h, noise_var, rng):
    """y = H x + n for a block of (n, nt) transmit vectors.

    ``noise_var`` is the total variance per complex receive sample
    (split evenly between real and imaginary parts); any value but 0 goes
    to :func:`awgn`, which refuses a negative or non-finite one.
    """
    x = np.asarray(vectors)
    if x.ndim != 2 or x.shape[1] != h.shape[1]:
        raise DimensionError("transmit block must be (n, nt) matching H")
    y = x @ h.T
    if noise_var != 0:
        y = y + awgn(y.shape, noise_var, rng)
    return y


def propagate_waveform(samples, h, fo_cycles_per_sample=0.0, noise_var=0.0, rng=None):
    """Mix per-antenna sample streams through a flat channel.

    ``samples`` is an (nt, n_samples) array, or a block source with a
    ``shape`` (nt, n_samples) and a ``segment(start, stop)`` that builds
    those samples (``txchain.TransmissionVector``). The (nr, n_samples)
    output is (H @ samples) rotated by exp(2j*pi*fo*k) -- a constant
    carrier frequency offset in cycles per sample, within [-0.5, 0.5] --
    plus complex AWGN of total variance ``noise_var`` per sample, which
    must be finite and nonnegative. Nothing is computed here: the result
    is a :class:`ReceivedWaveform`, a block source that builds any run of
    the output on demand, so no array the length of the output is held
    unless a caller asks for one with ``segment(0, n_samples)``.
    """
    return ReceivedWaveform(samples, h, fo_cycles_per_sample, noise_var, rng)


def segment_reader(samples):
    """``(segment, shape)`` of a block source, or of an array (a 1-D one is
    one stream) read through slices: ``segment(start, stop)`` gives samples
    ``start`` to ``stop`` of every stream."""
    if hasattr(samples, "segment"):
        return samples.segment, samples.shape
    y = np.atleast_2d(np.asarray(samples))
    return (lambda start, stop: y[:, start:stop]), y.shape


class ReceivedWaveform:
    """The output of :func:`propagate_waveform` as a block source.

    The output is built on a fixed grid of blocks, each a run of whole
    :func:`carrier_ramp` blocks (about ``SAMPLE_BLOCK`` samples): H times
    the block's input, rotated by its ramp, plus its noise, one
    (block, nr) :func:`awgn` draw transposed, so the generator fills the
    noise sample by sample as one (n_samples, nr) draw would. The
    generator's state is saved at the start of every block reached and
    set again before each block's draw, so a block drawn twice (by a
    backward read) draws the same normals, and the output does not
    depend on the order of the reads. The last block of each read is
    kept (unless it ends the output), so a read that overlaps the
    previous one by less than a block (a filter tail) draws nothing
    twice; a forward read in stream order draws every normal exactly
    once. Other blocks that lie wholly inside a read are built straight
    into its output.
    """

    def __init__(self, samples, h, fo_cycles_per_sample=0.0, noise_var=0.0, rng=None):
        source = samples if hasattr(samples, "segment") else np.asarray(samples)
        if len(source.shape) != 2 or source.shape[0] != h.shape[1]:
            raise DimensionError("sample block must be (nt, n_samples) matching H")
        self._input, (_, n) = segment_reader(source)
        check_offset(fo_cycles_per_sample)
        check_noise_var(noise_var)
        if noise_var > 0 and rng is None:
            raise ConfigurationError("rng is required when noise_var > 0")
        self.shape = (h.shape[0], n)
        self.dtype = np.result_type(h, self._input(0, 0))
        self._h, self._fo, self._noise_var, self._rng = h, fo_cycles_per_sample, noise_var, rng
        if fo_cycles_per_sample != 0.0:
            self._outer, self._inner = _ramp_factors(fo_cycles_per_sample, n)
        ramp_block = _ramp_block(n)
        self._ramp_blocks = max(1, SAMPLE_BLOCK // ramp_block)
        self._block = self._ramp_blocks * ramp_block
        self._states = [rng.bit_generator.state] if noise_var > 0 else []
        self._kept, self._kept_index = None, None

    @property
    def size(self):
        return self.shape[0] * self.shape[1]

    def segment(self, start, stop):
        """Samples ``start`` to ``stop`` of every receive stream, a new (nr, stop - start) array."""
        nr, n = self.shape
        if not 0 <= start <= stop <= n:
            raise DimensionError(f"segment [{start}, {stop}) outside the {n}-sample output")
        out = np.empty((nr, stop - start), dtype=self.dtype)
        first, last = start // self._block, -(-stop // self._block) - 1
        for k in range(first, last + 1):
            a, b = k * self._block, min((k + 1) * self._block, n)
            # The read's last block is kept for the next read, unless it ends the output.
            if k != self._kept_index and start <= a and b <= stop and (k < last or b == n):
                self._build(k, out[:, a - start : b - start])
                continue
            if k != self._kept_index:
                if self._kept is None:
                    self._kept = np.empty((nr, self._block), dtype=self.dtype)
                self._build(k, self._kept[:, : b - a])
                self._kept_index = k
            lo, hi = max(a, start), min(b, stop)
            out[:, lo - start : hi - start] = self._kept[:, lo - a : hi - a]
        return out

    def _build(self, k, out):
        """Write block k of the output into ``out``."""
        a, length = k * self._block, out.shape[1]
        np.matmul(self._h, self._input(a, a + length), out=out)
        if self._fo != 0.0:
            outer = self._outer[k * self._ramp_blocks : (k + 1) * self._ramp_blocks]
            out *= (outer * self._inner).reshape(-1)[:length]
        if self._noise_var > 0:
            states = self._states
            while len(states) <= k:  # a block past those reached: draw up to it first
                j = len(states) - 1
                self._build(j, np.empty((out.shape[0], self._block), dtype=self.dtype))
            self._rng.bit_generator.state = states[k]
            out += awgn((length, out.shape[0]), self._noise_var, self._rng).T
            if k + 1 == len(states):
                states.append(self._rng.bit_generator.state)


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
    raises :class:`ConfigurationError`, and ``n`` that is not an integer
    >= 0 :class:`DimensionError`.
    The ramp is a block phasor (one per run of about sqrt(n) indices)
    times an in-block phasor: about 2 sqrt(n) complex exponentials
    instead of n, within a few ulps of the largest phase of the direct
    ``np.exp`` (4.5e-13 at 3.1e3 rad).
    """
    check_offset(delta)
    if not (isinstance(n, Integral) and n >= 0):
        raise DimensionError(f"ramp length must be an integer >= 0, got {n!r}")
    outer, inner = _ramp_factors(delta, n, first_index)
    return (outer * inner).reshape(-1)[:n]
