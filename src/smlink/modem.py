"""Bit mapping, constellations and maximum-likelihood detection.

Two transmit schemes are implemented:

* ``sm`` -- spatial modulation: per symbol, the first log2(nt) bits pick
  the single active antenna (natural binary, ``00...0`` -> antenna 1) and
  the remaining log2(M) bits pick a Gray-labelled constellation point.
* ``smx`` -- spatial multiplexing: nt * log2(M) bits per symbol, one
  constellation point per antenna, scaled by 1/sqrt(nt) so the transmit
  vector has unit average energy in both schemes.

Candidate sets are always enumerated by the integer value of the bit
block (MSB first), which also defines the detector tie-break order.
"""

from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

import numpy as np

from . import kernels
from .errors import ConfigurationError, DimensionError, FramingError, RangeError

__all__ = [
    "Constellation",
    "ComplexityReport",
    "build_constellation",
    "bits_to_indices",
    "indices_to_bits",
    "bits_per_vector",
    "modulate",
    "sm_modulate",
    "smx_modulate",
    "candidate_vectors",
    "ml_detect_batch",
    "sm_ml_detect_batch",
    "receiver_complexity",
    "complexity_report",
]

SUPPORTED_ORDERS = (2, 4, 16, 64, 256)
MAX_CANDIDATES = 2**16


@dataclass(frozen=True)
class Constellation:
    """Unit-average-energy constellation with Gray bit labels.

    ``points[i]`` is the point whose bit label is the binary word ``i``
    (MSB first); the Gray structure lives in the point geometry, so
    adjacent points differ in exactly one label bit.
    """

    order: int
    points: np.ndarray

    @property
    def bits_per_symbol(self):
        return self.order.bit_length() - 1


@dataclass(frozen=True)
class ComplexityReport:
    """Real-multiplication counts of the two ML receivers and their gap."""

    nt: int
    nr: int
    bits_per_symbol: int
    sm_real_multiplications: int
    smx_real_multiplications: int
    relative_reduction_percent: Fraction


def _gray_decode(g):
    b = 0
    while g:
        b ^= g
        g >>= 1
    return b


def _bits_per_symbol(order):
    """log2 of a constellation order in ``SUPPORTED_ORDERS``."""
    if order not in SUPPORTED_ORDERS:
        raise ConfigurationError(
            f"unsupported modulation order {order}; choose from {SUPPORTED_ORDERS}"
        )
    return order.bit_length() - 1


def build_constellation(order):
    """Build the Gray-labelled constellation for a supported order."""
    k = _bits_per_symbol(order)
    if order == 2:
        points = np.array([1.0 + 0.0j, -1.0 + 0.0j])
    else:
        half = k // 2
        levels = 2**half
        points = np.empty(order, dtype=np.complex128)
        for label in range(order):
            i_idx = _gray_decode(label >> half)
            q_idx = _gray_decode(label & (levels - 1))
            points[label] = ((levels - 1) - 2 * i_idx) + 1j * ((levels - 1) - 2 * q_idx)
        points /= np.sqrt(2.0 * (order - 1) / 3.0)
    return Constellation(order=order, points=points)


def _as_bits(bits):
    b = np.asarray(bits)
    if b.ndim != 1:
        raise DimensionError("bit array must be one-dimensional")
    if b.size and not ((b == 0) | (b == 1)).all():
        raise FramingError("bit array may only contain 0 and 1")
    return b.astype(np.uint8)


def _check_block_size(m):
    if not (isinstance(m, Integral) and m >= 1):
        raise ConfigurationError(f"bit-block size must be an integer >= 1, got {m!r}")


def bits_to_indices(bits, m):
    """Pack a flat 0/1 array into m-bit block indices, MSB first; ``m`` below 1
    raises :class:`ConfigurationError`."""
    _check_block_size(m)
    b = _as_bits(bits)
    if b.size % m:
        raise FramingError(f"bit count {b.size} is not a multiple of block size {m}")
    weights = 1 << np.arange(m - 1, -1, -1, dtype=np.int64)
    return b.reshape(-1, m).astype(np.int64) @ weights


def indices_to_bits(indices, m):
    """Inverse of :func:`bits_to_indices`; an index outside [0, 2**m) raises
    :class:`RangeError`, and ``m`` below 1 :class:`ConfigurationError`."""
    _check_block_size(m)
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size and not (idx.min() >= 0 and idx.max() < 1 << m):
        raise RangeError(f"bit-block indices must lie in [0, {1 << m}) for m={m}")
    shifts = np.arange(m - 1, -1, -1, dtype=np.int64)
    return ((idx[:, None] >> shifts) & 1).astype(np.uint8).reshape(-1)


def bits_per_vector(scheme, nt, order):
    """Bits carried by one transmit vector: the one check that ``scheme``,
    ``nt`` and the constellation ``order`` describe a link."""
    if nt < 1 or nt & (nt - 1):
        raise ConfigurationError(f"antenna count {nt} must be a power of two")
    k = _bits_per_symbol(order)
    if scheme == "sm":
        return (nt.bit_length() - 1) + k
    if scheme == "smx":
        return nt * k
    raise ConfigurationError(f"unknown scheme {scheme!r}")


def modulate(bits, scheme, nt, constellation):
    """Map bits to the (n, nt) transmit vectors of either scheme."""
    if scheme == "sm":
        return sm_modulate(bits, nt, constellation)[1]
    if scheme == "smx":
        return smx_modulate(bits, nt, constellation)
    raise ConfigurationError(f"unknown scheme {scheme!r}")


def sm_modulate(bits, nt, constellation):
    """Map bits to spatial-modulation vectors.

    Returns ``(antenna, vectors)``: the (n,) 0-based active-antenna
    indices and the (n, nt) complex array with that antenna's
    constellation point as the single nonzero entry of each row.
    """
    m = bits_per_vector("sm", nt, constellation.order)
    blocks = bits_to_indices(bits, m)
    antenna = blocks >> constellation.bits_per_symbol
    points = constellation.points[blocks & (constellation.order - 1)]
    vectors = np.zeros((blocks.size, nt), dtype=np.complex128)
    vectors[np.arange(blocks.size), antenna] = points
    return antenna, vectors


def smx_modulate(bits, nt, constellation):
    """Map bits to (n, nt) spatial-multiplexing vectors, unit total energy.

    Each vector's bits give its per-antenna point indices, antenna 1 first.
    """
    k = constellation.bits_per_symbol
    if np.size(bits) % (nt * k):
        raise FramingError(
            f"bit count {np.size(bits)} is not a multiple of {nt * k} (nt*log2(M))"
        )
    return constellation.points[bits_to_indices(bits, k).reshape(-1, nt)] / np.sqrt(nt)


def check_candidate_bits(m):
    """``m`` when a set of 2**m candidates is within ``MAX_CANDIDATES``.

    Compares m with log2(MAX_CANDIDATES) and never forms 2**m, so the
    check costs the same for any m.
    """
    if m > MAX_CANDIDATES.bit_length() - 1:
        # 2**m, not its digits: a count past 4300 digits has no str form.
        raise ConfigurationError(f"candidate set of 2**{m} exceeds the {MAX_CANDIDATES} guard")
    return m


def check_candidate_count(n_cand):
    """log2 of a candidate count that is a power of two in [2, MAX_CANDIDATES]."""
    if n_cand < 2 or n_cand & (n_cand - 1):
        raise ConfigurationError("candidate count must be a power of two >= 2")
    return check_candidate_bits(n_cand.bit_length() - 1)


def candidate_vectors(scheme, nt, constellation):
    """All 2**m transmit vectors in bit-block enumeration order.

    Row ``b`` is the vector produced by the m-bit block with integer value
    ``b``; detectors and the union bound all share this ordering.
    """
    m = check_candidate_bits(bits_per_vector(scheme, nt, constellation.order))
    return modulate(indices_to_bits(np.arange(2**m), m), scheme, nt, constellation)


# A non-finite channel is refused by the kernel; the warnings of its images are not raised.
@np.errstate(invalid="ignore", over="ignore")
def ml_detect_batch(y, h, candidates):
    """Brute-force ML over an explicit candidate set, one decision per row.

    ``y`` is (n, nr). Row i's decision is the candidate index minimizing
    ||y_i - H x||^2; ties go to the lowest candidate index. A NaN or
    infinite entry of ``y`` or ``h`` raises :class:`DegenerateInputError`;
    shapes that do not match, or an empty candidate set, raise
    :class:`DimensionError`.
    """
    y, h = _check_block_and_channel(y, h)
    x = np.asarray(candidates, dtype=np.complex128)
    if x.ndim != 2 or not len(x) or x.shape[1] != h.shape[1]:
        raise DimensionError("candidate set must be a non-empty (n_cand, nt) matching H")
    hx = x @ h.T  # (n_cand, nr)
    return kernels.detect_min_indices(y, hx)


def sm_ml_detect_batch(y, h, constellation):
    """ML detector specialised to one active antenna, one decision per row.

    Minimises sum_r |y_r - h[r, a] s|^2 over the nt * M single-antenna
    images h[:, a] * s, built straight from the channel columns and
    searched by the shared metric kernel of :mod:`smlink.kernels` in flat
    order a * M + p, so ties resolve to the lowest (antenna, point) pair.
    Returns the flat indices a * M + p, which equal the bit-block values.
    A NaN or infinite entry of ``y`` or ``h`` raises :class:`DegenerateInputError`,
    and shapes that do not match :class:`DimensionError`.
    """
    y, h = _check_block_and_channel(y, h)
    return kernels.sm_detect_min_indices(y, h, constellation.points)


def _check_block_and_channel(y, h):
    """``y`` and ``h`` as complex arrays, checked to be (n, nr) and (nr, nt) of one nr."""
    y = np.asarray(y, dtype=np.complex128)
    h = np.asarray(h, dtype=np.complex128)
    if y.ndim != 2 or h.ndim != 2 or y.shape[1] != h.shape[0]:
        raise DimensionError("received block must be (n, nr) matching an (nr, nt) H")
    return y, h


def receiver_complexity(scheme, nt, nr, bits_per_symbol):
    """Real multiplications per detected symbol of the ML receiver."""
    if nt < 1 or nt & (nt - 1) or nr < 1 or bits_per_symbol < 1:
        raise ConfigurationError(
            f"need power-of-two nt, nr >= 1, m >= 1; got {nt}, {nr}, {bits_per_symbol}")
    if scheme == "sm":
        return 8 * nr * 2**bits_per_symbol
    if scheme == "smx":
        return 4 * (nt + 1) * nr * 2**bits_per_symbol
    raise ConfigurationError(f"unknown scheme {scheme!r}")


def complexity_report(nt, nr, bits_per_symbol):
    """Compare both receivers at equal spectral efficiency.

    The relative reduction is exact rational arithmetic:
    100 * (1 - 2/(nt + 1)).
    """
    sm = receiver_complexity("sm", nt, nr, bits_per_symbol)
    smx = receiver_complexity("smx", nt, nr, bits_per_symbol)
    reduction = Fraction(100) * (1 - Fraction(sm, smx))
    return ComplexityReport(
        nt=nt,
        nr=nr,
        bits_per_symbol=bits_per_symbol,
        sm_real_multiplications=sm,
        smx_real_multiplications=smx,
        relative_reduction_percent=reduction,
    )
