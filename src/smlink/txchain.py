"""Transmitter chain: frames, pulse shaping and the on-air transmission.

Symbol-domain frames carry, in order: a zero pad, a pilot signal
(:meth:`FrameLayout.pilot_signal`, all antennas simultaneously), a
constant-valued frequency-offset preamble on antenna 1 only, the data
vectors, a second pilot signal and a trailing zero pad.

The frames of a transmission form one (nt, n_frames * frame_symbols)
symbol stream, which is upsampled and root-raised-cosine shaped into
the data section of a transmission that is prefixed by a synchronization
section (20 full-scale single-sample pulses on antenna 1, spaced 51
symbol durations apart) and an SNR-estimation section (per antenna in
turn, 5 alternating on/off constant-amplitude blocks). The shaped data
stream is scaled so its peak amplitude equals ``power_factor``; the
sync pulses stay at the quantizer full scale, which pins the
peak-to-data amplitude ratio (about 21.1 dB at the default factor).

:func:`build_transmission` runs the whole :class:`Chain` from a bit
array: modulate, frame, assemble; it is the only way to a transmission.
The result is a block source that stores no samples: it keeps the
payload bits and the chain, and builds any run of samples on demand
(:meth:`TransmissionVector.segment`), modulating, framing and shaping
only the frames the run reaches. The peak that sets the scale comes
from one shaping pass, a block at a time, before any sample is handed
out. The channel and the int16 writer take the transmission one
``SAMPLE_BLOCK`` at a time, so no array the length of the transmission
or of its data section is ever held; at the default layout the sounding
section is about 90% of the samples. The capture
files come back the same way: :func:`read_captures` returns a block
source (:class:`CaptureFiles`) whose segments are read from the files by
seek, so the receiver never holds a capture-length array either.
"""

import contextlib
import functools
import json
import os
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import modem
from .channel import SAMPLE_BLOCK, buffer_prefix, segment_buffer, segment_reader
from .errors import ConfigurationError, DimensionError, FramingError, RangeError
from .fileio import build, read_json
# The layouts, the Chain and the pilots live in smlink.layout; exported here too.
from .layout import (
    FO_EDGE_MARGIN,
    FULL_SCALE,
    Chain,
    FrameLayout,
    TransmissionLayout,
    check_filter,
    check_frame_duration,
    pilot_matrix,
    pilot_sequence,
)

__all__ = [
    "FrameLayout",
    "TransmissionLayout",
    "Chain",
    "TransmissionVector",
    "pilot_sequence",
    "pilot_matrix",
    "check_frame_duration",
    "rrc_taps",
    "build_frame",
    "pulse_shape",
    "build_transmission",
    "quantize_i16",
    "dequantize_i16",
    "CaptureFiles",
    "read_captures",
    "write_waveform",
    "read_sidecar",
]

# Samples per run of the shaping convolution: a quarter block keeps the
# zero-stuffed row and its convolution to about 128 KiB each.
_SHAPE_RUN = SAMPLE_BLOCK // 4
SIDECAR_SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class _FrameStream:
    """The (nt, n_frames * frame_symbols) frame stream of a payload, as a block source.

    ``segment(start, stop, out=None)`` modulates (:func:`modem.modulate`)
    and frames (:func:`build_frame`) only the frames the run touches;
    modulation and framing act symbol by symbol, so each run equals the
    same slice of the whole stream.
    """

    bits: np.ndarray
    chain: Chain
    constellation: modem.Constellation
    dtype = np.dtype(np.complex128)

    @property
    def shape(self):
        chain = self.chain
        return chain.nt, chain.transmission_layout.n_frames * chain.frame_layout.frame_symbols

    def segment(self, start, stop, out=None):
        chain, fl = self.chain, self.chain.frame_layout
        fs = fl.frame_symbols
        first, last = start // fs, -(-stop // fs)
        frame_bits = self.bits.size // chain.transmission_layout.n_frames
        vectors = modem.modulate(self.bits[first * frame_bits : last * frame_bits],
                                 chain.scheme, chain.nt, self.constellation)
        frames = build_frame(
            vectors.reshape(last - first, fl.data_symbols_per_frame, chain.nt), fl)
        run = frames[:, start - first * fs : stop - first * fs]
        if out is None:
            return run
        out = segment_buffer(out, run.shape, self.dtype)
        out[...] = run
        return out


@dataclass(frozen=True)
class TransmissionVector:
    """A transmission as a block source, plus the bookkeeping to parse it back.

    ``stream`` is the payload's frame stream, which keeps the bits and the
    :class:`Chain` and modulates them as they are read; no shaped sample
    is stored. :meth:`segment` builds any run of the (nt, n) sample
    streams from it. ``sections`` maps section name -> (start, length) in
    samples, as :meth:`TransmissionLayout.sections` gives it;
    ``symbol_scale`` is the factor applied to the shaped frame stream so
    that its peak equals ``power_factor`` (the quantized data maximum),
    and ``x_max``, equal to it, is the sounding on-block level.
    """

    stream: _FrameStream
    symbol_scale: float
    dtype = np.dtype(np.complex128)

    @property
    def chain(self):
        return self.stream.chain

    @functools.cached_property
    def _taps(self):
        fl = self.chain.frame_layout
        return rrc_taps(fl.rrc_num_taps, fl.rrc_rolloff, fl.upsample_factor)

    @property
    def sections(self):
        return self.chain.transmission_layout.sections(self.nt, self.chain.frame_layout)[0]

    @property
    def x_max(self):
        return self.chain.transmission_layout.power_factor

    @property
    def nt(self):
        return self.chain.nt

    @property
    def shape(self):
        """(nt, n) of the whole transmission."""
        start, length = self.sections["data"]
        return self.nt, start + length

    @property
    def samples(self):
        """The whole (nt, n) transmission as one array, built on each access."""
        return self.segment(0, self.shape[1])

    def segment(self, start, stop, out=None):
        """Samples ``start`` to ``stop`` of every antenna, written into ``out``
        (:func:`smlink.channel.segment_buffer`) or a new (nt, stop - start) array.

        Data samples are the frame stream's :func:`pulse_shape` times
        ``symbol_scale``, bit for bit: only the symbols the run and the
        filter's reach before it touch are read and shaped.
        """
        nt, n = self.shape
        if not 0 <= start <= stop <= n:
            raise DimensionError(f"segment [{start}, {stop}) outside the {n}-sample transmission")
        out = segment_buffer(out, (nt, stop - start), self.dtype)
        fl, layout = self.chain.frame_layout, self.chain.transmission_layout
        sections, period = layout.sections(nt, fl)
        data_start = sections["data"][0]
        out[:, : max(min(stop, data_start) - start, 0)] = 0.0  # the shaping writes the rest
        first_pulse = -(-start // period) * period
        out[0, np.arange(first_pulse, min(stop, sections["sync"][1]), period) - start] = 1.0
        # Antenna t's run holds blocks 2*snr_blocks*t onwards; its even blocks are on.
        snr_start, snr_len = sections["snr"]
        block = layout.snr_block_symbols * fl.upsample_factor
        lo, hi = max(start, snr_start) - snr_start, min(stop, snr_start + snr_len) - snr_start
        for b in range(lo // block, -(-hi // block)):
            if b % 2 == 0:
                a = snr_start + b * block
                out[b // (2 * layout.snr_blocks),
                    max(a, start) - start : min(a + block, stop) - start] = self.x_max
        if stop > data_start:
            lo = max(start, data_start)
            data = out[:, lo - start :]
            _shape_into(data, self.stream, self._taps, fl.upsample_factor, lo - data_start)
            data *= self.symbol_scale
        return out


def rrc_taps(num_taps=40, rolloff=0.75, upsample_factor=4):
    """Unit-energy root-raised-cosine taps at ``upsample_factor`` samples/symbol.

    The impulse response is centered on the tap grid; the removable
    singularities at t = 0 and |t| = 1/(4*rolloff) symbol durations use
    their analytic limits.
    """
    check_filter(num_taps, rolloff, upsample_factor)
    beta = float(rolloff)
    t = (np.arange(num_taps) - (num_taps - 1) / 2.0) / upsample_factor
    h = np.empty(num_taps)
    for k, tk in enumerate(t):
        if abs(tk) < 1e-12:
            h[k] = 1.0 - beta + 4.0 * beta / np.pi
        elif abs(abs(tk) - 1.0 / (4.0 * beta)) < 1e-12:
            h[k] = (beta / np.sqrt(2.0)) * (
                (1.0 + 2.0 / np.pi) * np.sin(np.pi / (4.0 * beta))
                + (1.0 - 2.0 / np.pi) * np.cos(np.pi / (4.0 * beta))
            )
        else:
            num = np.sin(np.pi * tk * (1.0 - beta)) + 4.0 * beta * tk * np.cos(
                np.pi * tk * (1.0 + beta)
            )
            h[k] = num / (np.pi * tk * (1.0 - (4.0 * beta * tk) ** 2))
    return h / np.sqrt(np.sum(h**2))


def build_frame(data_vectors, layout):
    """Build the frames around (n_frames, data_symbols_per_frame, nt) data vectors.

    Returns the (nt, n_frames * frame_symbols) symbol stream, frames back to back.
    """
    x = np.asarray(data_vectors, dtype=np.complex128)
    if x.ndim != 3:
        raise DimensionError("data vectors must form an (n_frames, n, nt) array")
    n_frames, n, nt = x.shape
    if n != layout.data_symbols_per_frame:
        raise FramingError(
            f"got {n} data vectors per frame, layout wants {layout.data_symbols_per_frame}"
        )
    stream = np.zeros((nt, n_frames * layout.frame_symbols), dtype=np.complex128)
    frames = stream.reshape(nt, n_frames, layout.frame_symbols)
    sections = layout.sections()
    for name in ("pilot_first", "pilot_second"):
        frames[..., sections[name]] = layout.pilot_signal(nt)[:, None]
    frames[0, :, sections["fo"]] = 1.0
    frames[..., sections["data"]] = x.transpose(2, 0, 1)
    return stream


def pulse_shape(symbols, taps, upsample_factor):
    """Upsample (insert zeros) and filter; full convolution per antenna.

    Accepts an (nt, n_symbols) matrix and returns
    (nt, n_symbols*U + len(taps) - 1), built one run of ``SAMPLE_BLOCK``
    samples at a time by the shaping that
    :meth:`TransmissionVector.segment` uses; every output is the dot
    product over the same terms as in one ``np.convolve`` of the whole
    row, and the tests hold the two equal bit for bit.
    """
    s = np.atleast_2d(np.asarray(symbols, dtype=np.complex128))
    n = s.shape[1] * upsample_factor + len(taps) - 1
    shaped = np.empty((s.shape[0], n), dtype=np.complex128)
    for a in range(0, n, SAMPLE_BLOCK):
        _shape_into(shaped[:, a : a + SAMPLE_BLOCK], s, taps, upsample_factor, a)
    return shaped


def _shape_into(out, symbols, taps, upsample_factor, start):
    """Write samples ``start`` to ``start + out.shape[1]`` of the shaped
    (nt, n_symbols) stream ``symbols`` (an array or a block source) into
    the (nt, k) array ``out``.

    Only the symbols from len(taps) - 1 upsampled samples before
    ``start`` are read, once. The output is then built in runs of
    ``_SHAPE_RUN`` samples, a row at a time: each run's symbols are
    zero-stuffed into one row buffer and convolved. A run shorter than the
    filter is widened to its length, so every output is the dot product
    over the same terms, in the same order, as in one ``np.convolve`` of
    the whole zero-stuffed row (the partial ones at either end of the
    stream included), whatever the runs.
    """
    segment, (_, n_symbols), _ = segment_reader(symbols)
    u, n_taps, n = upsample_factor, len(taps), n_symbols * upsample_factor
    stop = start + out.shape[1]
    a, b = _shaping_reach(start, stop, n_taps, n)
    first = -(-a // u)
    rows = segment(first, -(-b // u))
    up = np.empty(min(b - a, _SHAPE_RUN + n_taps - 1), dtype=np.complex128)
    for run_start in range(start, stop, _SHAPE_RUN):
        run_stop = min(run_start + _SHAPE_RUN, stop)
        # The runs' reaches lie within the whole one's, so their symbols were read.
        ra, rb = _shaping_reach(run_start, run_stop, n_taps, n)
        run_first = -(-ra // u)
        stuffed = up[: rb - ra]
        stuffed[:] = 0.0
        for row, shaped in zip(rows, out):
            stuffed[run_first * u - ra :: u] = row[run_first - first : -(-rb // u) - first]
            shaped[run_start - start : run_stop - start] = np.convolve(stuffed, taps)[
                run_start - ra : run_stop - ra]


def _shaping_reach(start, stop, n_taps, n):
    """The samples [a, b) of an ``n``-sample zero-stuffed stream that its
    shaped outputs ``start`` to ``stop`` are convolved from: n_taps - 1
    before ``start`` up to ``stop``, widened to n_taps samples where the
    run is shorter, within the stream."""
    a = max(start - n_taps + 1, 0)
    b = min(max(stop, a + n_taps), n)
    return max(min(a, b - n_taps), 0), b


def assemble_transmission(stream):
    """Scale a payload's shaped frame stream and prefix the sync and SNR sections.

    ``stream`` is the frame stream :func:`build_transmission` makes, read
    through its ``segment``. One shaping pass, a ``SAMPLE_BLOCK`` at a
    time, finds the shaped stream's peak amplitude and component extremes;
    no shaped sample is kept. The pilots and the offset preamble are never
    zero, so the peak is not either. The shaped stream is scaled by
    symbol_scale = power_factor / (its peak amplitude); SNR on-blocks run
    at the resulting data maximum; sync pulses stay at amplitude 1 (full
    scale), whatever the data peak: the receiver finds them by their
    period, not by their level. Any sample magnitude above full scale, or
    a NaN, raises :class:`RangeError`, and a frame that lasts the
    coherence budget or longer at ``sample_rate``
    (:func:`check_frame_duration`) raises :class:`ConfigurationError`.
    """
    frame_layout, layout = stream.chain.frame_layout, stream.chain.transmission_layout
    check_frame_duration(frame_layout, layout)
    u = frame_layout.upsample_factor
    taps = rrc_taps(frame_layout.rrc_num_taps, frame_layout.rrc_rolloff, u)

    # Peak amplitude, largest and -smallest component; NaN propagates through each.
    extremes = np.full(3, -np.inf)
    n = stream.shape[1] * u + len(taps) - 1
    buffer = np.empty((stream.shape[0], min(SAMPLE_BLOCK, n)), dtype=np.complex128)
    for a in range(0, n, SAMPLE_BLOCK):
        run = buffer[:, : min(SAMPLE_BLOCK, n - a)]
        _shape_into(run, stream, taps, u, a)
        components = run.view(np.float64)
        np.maximum(extremes, [np.abs(run).max(), components.max(), -components.min()],
                   out=extremes)
    peak, top, bottom = (float(e) for e in extremes)
    symbol_scale = layout.power_factor / peak
    # The sync pulses sit at full scale and the SNR blocks at the power factor,
    # so the data section and that factor are the only places a component can
    # exceed it. Scaling by symbol_scale >= 0 is monotone: the scaled extremes
    # are the extremes scaled.
    if not (layout.power_factor <= 1.0 and top * symbol_scale <= 1.0
            and bottom * symbol_scale <= 1.0):
        raise RangeError("scaled transmission exceeds quantizer full scale or is NaN")
    return TransmissionVector(stream, symbol_scale)


def build_transmission(bits, chain):
    """Modulate bits, frame them and assemble the transmission of ``chain``:
    the one way to a :class:`TransmissionVector`.

    ``chain`` must be a :class:`Chain` (:class:`ConfigurationError`
    otherwise), and ``bits`` one-dimensional with exactly
    ``chain.payload_bits`` bits; anything else raises
    :class:`DimensionError` or :class:`FramingError`. The transmission
    keeps a copy of the bits and modulates the frames as its samples are
    read; the shaping pass of :func:`assemble_transmission` reads them all
    once, so a bit that is not 0 or 1 is refused here.
    """
    if not isinstance(chain, Chain):
        raise ConfigurationError(f"chain must be a txchain.Chain, got {type(chain).__name__}")
    bits = np.array(bits)
    if bits.ndim != 1:
        raise DimensionError("bit array must be one-dimensional")
    if bits.size != chain.payload_bits:
        raise FramingError(
            f"{bits.size} bits do not fill {chain.transmission_layout.n_frames} frames of "
            f"{chain.frame_layout.data_symbols_per_frame} {chain.bits_per_vector}-bit vectors"
        )
    stream = _FrameStream(bits, chain, modem.build_constellation(chain.modulation_order))
    return assemble_transmission(stream)


def quantize_i16(waveform):
    """Map complex samples to interleaved I,Q little-endian int16 at full scale 32767.

    Rounds to nearest, ties to even, one block of components at a time;
    components above 1.0 in magnitude or NaN raise :class:`RangeError`.
    """
    flat = np.ascontiguousarray(waveform, dtype=np.complex128).reshape(-1).view(np.float64)
    if flat.size and not (flat.max() <= 1.0 and flat.min() >= -1.0):
        raise RangeError("sample magnitude above full scale or NaN; rescale before quantizing")
    codes = np.empty(flat.size, dtype="<i2")
    for s in range(0, flat.size, 2 * SAMPLE_BLOCK):
        np.rint(flat[s : s + 2 * SAMPLE_BLOCK] * FULL_SCALE,
                out=codes[s : s + 2 * SAMPLE_BLOCK], casting="unsafe")
    return codes


def dequantize_i16(codes):
    """Inverse of :func:`quantize_i16` (up to the 0.5 LSB rounding).

    Interleaved I,Q codes along the last axis give complex samples along it.
    """
    c = np.asarray(codes)
    if c.ndim == 0 or c.shape[-1] % 2:
        raise FramingError("interleaved I,Q buffer must have even length")
    flat = c.astype(np.float64)
    flat /= FULL_SCALE
    return flat.view(np.complex128)


@dataclass(frozen=True)
class CaptureFiles:
    """Equal-length int16 I,Q capture files as a block source of (n_files, n) streams.

    :meth:`segment` opens each file, seeks to its ``start`` sample and
    dequantizes one ``SAMPLE_BLOCK`` at a time into its row; no file
    stays open between calls.
    """

    paths: tuple
    n: int
    dtype = np.dtype(np.complex128)

    @property
    def shape(self):
        return len(self.paths), self.n

    @property
    def size(self):
        return len(self.paths) * self.n

    def segment(self, start, stop, out=None):
        """Samples ``start`` to ``stop`` of every file, written into ``out``
        (:func:`smlink.channel.segment_buffer`) or a new (n_files, stop - start)
        array; a file that ends before ``stop`` raises :class:`FramingError`."""
        if not 0 <= start <= stop <= self.n:
            raise DimensionError(f"segment [{start}, {stop}) outside the {self.n}-sample captures")
        out = segment_buffer(out, (len(self.paths), stop - start), self.dtype)
        codes = np.empty(2 * min(out.shape[1], SAMPLE_BLOCK), dtype="<i2")
        for row, path in zip(out, self.paths):
            with open(path, "rb") as fh:
                fh.seek(4 * start)
                for s in range(0, row.size, SAMPLE_BLOCK):
                    block = row[s : s + SAMPLE_BLOCK]
                    buf = codes[: 2 * block.size]
                    if fh.readinto(buf) != buf.nbytes:
                        raise FramingError(f"capture {path} ended before its {self.n} samples")
                    block[:] = dequantize_i16(buf)
        return out


def read_captures(paths):
    """The equal-length int16 I,Q capture files ``paths`` as a :class:`CaptureFiles`
    source of (n_files, n) complex streams; nothing is read until a segment is.

    A file whose size is not a whole number of 4-byte I,Q pairs raises
    :class:`FramingError`; files that differ in length raise
    :class:`ConfigurationError`.
    """
    sizes = [os.path.getsize(p) for p in paths]
    for path, size in zip(paths, sizes):
        if size % 4:
            raise FramingError(f"capture {path}: {size} bytes is not a whole number of "
                               "4-byte I,Q pairs")
    if not sizes or len(set(sizes)) > 1:
        raise ConfigurationError(
            f"need captures of equal length, got {[n // 4 for n in sizes]} samples"
        )
    return CaptureFiles(tuple(paths), sizes[0] // 4)


def write_waveform(prefix, tx):
    """Write per-antenna I16 files plus a JSON sidecar; returns sidecar path.

    Files: ``<prefix>_ant<k>.bin`` (little-endian int16, interleaved I,Q)
    and ``<prefix>_meta.json``, which holds ``tx.chain`` (the keys
    :func:`read_sidecar` builds it from), its payload size and the
    transmission's bookkeeping. The samples are built into one buffer,
    quantized and written one ``SAMPLE_BLOCK`` at a time, to each antenna's
    file in turn. A ``tx`` that is not a :class:`TransmissionVector` raises
    :class:`ConfigurationError` before anything is written.
    """
    if not isinstance(tx, TransmissionVector):
        raise ConfigurationError(
            f"tx must be a txchain.TransmissionVector, got {type(tx).__name__}")
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    files = [f"{prefix.name}_ant{t + 1}.bin" for t in range(tx.nt)]
    n = tx.shape[1]
    buffer = np.empty((tx.nt, min(SAMPLE_BLOCK, n)), dtype=tx.dtype)
    with contextlib.ExitStack() as stack:
        handles = [stack.enter_context(open(prefix.parent / name, "wb")) for name in files]
        for s in range(0, n, SAMPLE_BLOCK):
            k = min(SAMPLE_BLOCK, n - s)
            for fh, row in zip(handles, tx.segment(s, s + k, out=buffer_prefix(buffer, k))):
                quantize_i16(row).tofile(fh)
    layout = tx.chain.transmission_layout
    meta = {
        **asdict(tx.chain),
        "n_bits": tx.chain.payload_bits,
        "schema_version": SIDECAR_SCHEMA_VERSION,
        "sample_rate": layout.sample_rate,
        "full_scale": FULL_SCALE,
        "power_factor": layout.power_factor,
        "symbol_scale": tx.symbol_scale,
        "x_max": tx.x_max,
        "sections": {k: list(v) for k, v in tx.sections.items()},
        "files": files,
    }
    sidecar = prefix.parent / f"{prefix.name}_meta.json"
    sidecar.write_text(json.dumps(meta, indent=2, sort_keys=True))
    return sidecar


def read_sidecar(sidecar_path):
    """Check a sidecar's schema version and build the :class:`Chain` of its chain
    keys (an encode config); other keys pass. Returns ``(meta, chain)``."""
    meta = read_json(sidecar_path, "sidecar")
    if meta.get("schema_version") != SIDECAR_SCHEMA_VERSION:
        raise ConfigurationError(f"unsupported sidecar schema {meta.get('schema_version')!r}")
    chain_keys = {f.name for f in fields(Chain)}
    return meta, build(Chain, {k: v for k, v in meta.items() if k in chain_keys}, "sidecar")

