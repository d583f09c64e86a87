"""Transmitter chain: frames, pulse shaping and the on-air transmission.

Symbol-domain frames carry, in order: a zero pad, a pilot signal (ten
repetitions of length-10 orthogonal pilot sequences, all antennas
simultaneously), a constant-valued frequency-offset preamble on antenna
1 only, the data vectors, a second pilot signal and a trailing zero pad.

The frames of a transmission form one (nt, n_frames * frame_symbols)
symbol stream, which is upsampled and root-raised-cosine shaped into
the data section of a transmission that is prefixed by a synchronization
section (20 full-scale single-sample pulses on antenna 1, spaced 51
symbol durations apart) and an SNR-estimation section (per antenna in
turn, 5 alternating on/off constant-amplitude blocks). The shaped data
stream is scaled so its peak amplitude equals ``power_factor``; the
sync pulses stay at the quantizer full scale, which pins the
peak-to-data amplitude ratio (about 21.1 dB at the default factor).

:func:`build_transmission` runs the whole chain from a bit array:
modulate, frame, assemble.
"""

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import modem
from .channel import SAMPLE_BLOCK
from .errors import (
    ConfigurationError,
    DegenerateInputError,
    DimensionError,
    FramingError,
    RangeError,
)
from .fileio import build, check_fields, read_json

__all__ = [
    "FrameLayout",
    "TransmissionLayout",
    "TransmissionVector",
    "pilot_sequence",
    "pilot_matrix",
    "rrc_taps",
    "build_frame",
    "pulse_shape",
    "assemble_transmission",
    "build_transmission",
    "quantize_i16",
    "dequantize_i16",
    "read_captures",
    "write_waveform",
    "read_sidecar",
    "read_waveform",
]

FULL_SCALE = 32767
SIDECAR_SCHEMA_VERSION = "1"
# Sidecar keys the readers check (``cli encode`` adds the last two); others pass.
_SIDECAR_FIELDS = {"nt": int, "symbol_scale": float, "files": list, "frame_layout": dict,
                   "transmission_layout": dict, "scheme": str, "modulation_order": int}
_COHERENCE_LIMIT_S = 7e-3


@dataclass(frozen=True)
class FrameLayout:
    """Symbol-domain frame sectioning and shaping parameters."""

    zero_pad_len: int = 50
    pilot_sequences_per_signal: int = 10
    pilot_seq_len: int = 10
    fo_seq_len: int = 1000
    data_symbols_per_frame: int = 1000
    upsample_factor: int = 4
    rrc_num_taps: int = 40
    rrc_rolloff: float = 0.75

    def __post_init__(self):
        if min(self.zero_pad_len, self.fo_seq_len, self.data_symbols_per_frame) < 0:
            raise ConfigurationError("section lengths must be nonnegative")
        if self.pilot_sequences_per_signal < 1 or self.pilot_seq_len < 1:
            raise ConfigurationError("pilot signal needs at least one sequence")
        _check_filter(self.rrc_num_taps, self.rrc_rolloff, self.upsample_factor)
        duration = self.frame_symbols * self.upsample_factor / 1e7
        if duration >= _COHERENCE_LIMIT_S:
            raise ConfigurationError(
                f"frame duration {duration * 1e3:.3f} ms exceeds the "
                f"{_COHERENCE_LIMIT_S * 1e3:.0f} ms coherence budget at 10 Ms/s"
            )

    @property
    def pilot_signal_len(self):
        return self.pilot_sequences_per_signal * self.pilot_seq_len

    @property
    def frame_symbols(self):
        """Symbols per antenna: zeros | pilot | FO | data | pilot | zeros."""
        return (
            2 * self.zero_pad_len
            + 2 * self.pilot_signal_len
            + self.fo_seq_len
            + self.data_symbols_per_frame
        )

    def sections(self):
        """Symbol-index slices of each frame section."""
        z, p = self.zero_pad_len, self.pilot_signal_len
        f, d = self.fo_seq_len, self.data_symbols_per_frame
        bounds = np.cumsum([0, z, p, f, d, p, z])
        names = ("zeros_head", "pilot_first", "fo", "data", "pilot_second", "zeros_tail")
        return {n: slice(int(a), int(b)) for n, a, b in zip(names, bounds, bounds[1:])}


@dataclass(frozen=True)
class TransmissionLayout:
    """Sample-domain transmission sectioning."""

    n_frames: int = 50
    sync_pulses: int = 20
    sync_gap_symbols: int = 50
    snr_blocks: int = 5
    snr_block_symbols: int = 50_000
    power_factor: float = 2896 / FULL_SCALE
    sample_rate: float = 10e6

    def __post_init__(self):
        if self.n_frames < 1:
            raise ConfigurationError("need at least one frame")
        if self.sync_pulses < 1 or self.sync_gap_symbols < 1:
            raise ConfigurationError("sync section needs pulses and gaps")
        if self.snr_blocks < 1 or self.snr_block_symbols < 1:
            raise ConfigurationError("SNR section needs at least one on/off block")
        if not 0 <= self.power_factor < np.inf:
            raise ConfigurationError(
                f"power factor must be finite and >= 0, got {self.power_factor!r}")
        if not 0 < self.sample_rate < np.inf:
            raise ConfigurationError(
                f"sample rate must be finite and positive, got {self.sample_rate!r}")

    def sync_samples(self, upsample_factor):
        period = (1 + self.sync_gap_symbols) * upsample_factor
        return self.sync_pulses * period

    def snr_samples(self, nt, upsample_factor):
        per_antenna = 2 * self.snr_blocks * self.snr_block_symbols * upsample_factor
        return nt * per_antenna


@dataclass(frozen=True)
class TransmissionVector:
    """Per-antenna sample streams plus the bookkeeping to parse them back.

    ``sections`` maps section name -> (start, length) in samples;
    ``symbol_scale`` is the factor applied to the shaped frame stream so
    that its peak equals ``power_factor`` (the quantized data maximum).
    """

    samples: np.ndarray
    sections: dict
    frame_layout: FrameLayout
    layout: TransmissionLayout
    symbol_scale: float
    x_max: float

    @property
    def nt(self):
        return self.samples.shape[0]


def pilot_sequence(n_t, n_theta):
    """Orthogonal pilot sequence exp(2j*pi*n_t*l/n_theta), l = 0..n_theta-1."""
    if not 1 <= n_t <= n_theta:
        raise ConfigurationError(f"antenna index {n_t} outside 1..{n_theta}")
    return np.exp(2j * np.pi * n_t * np.arange(n_theta) / n_theta)


def pilot_matrix(nt, n_theta):
    """(n_theta, nt) matrix whose column t-1 is the antenna-t sequence."""
    if nt > n_theta:
        raise ConfigurationError(
            f"pilot length {n_theta} cannot separate {nt} antennas"
        )
    return np.stack([pilot_sequence(t, n_theta) for t in range(1, nt + 1)], axis=1)


def _check_filter(num_taps, rolloff, upsample_factor):
    if num_taps < 2:
        raise ConfigurationError("need at least 2 filter taps")
    if not 0.0 < rolloff <= 1.0:
        raise ConfigurationError("roll-off must be in (0, 1]")
    if upsample_factor < 1:
        raise ConfigurationError("upsample factor must be >= 1")


def rrc_taps(num_taps=40, rolloff=0.75, upsample_factor=4):
    """Unit-energy root-raised-cosine taps at ``upsample_factor`` samples/symbol.

    The impulse response is centered on the tap grid; the removable
    singularities at t = 0 and |t| = 1/(4*rolloff) symbol durations use
    their analytic limits.
    """
    _check_filter(num_taps, rolloff, upsample_factor)
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
    pilots = np.tile(
        pilot_matrix(nt, layout.pilot_seq_len).T, (1, layout.pilot_sequences_per_signal)
    )[:, None]
    frames[..., sections["pilot_first"]] = pilots
    frames[..., sections["pilot_second"]] = pilots
    frames[0, :, sections["fo"]] = 1.0
    frames[..., sections["data"]] = x.transpose(2, 0, 1)
    return stream


def pulse_shape(symbols, taps, upsample_factor):
    """Upsample (insert zeros) and filter; full convolution per antenna.

    Accepts an (nt, n_symbols) matrix and returns
    (nt, n_symbols*U + len(taps) - 1).
    """
    s = np.atleast_2d(np.asarray(symbols, dtype=np.complex128))
    up = np.zeros((s.shape[0], s.shape[1] * upsample_factor), dtype=np.complex128)
    up[:, ::upsample_factor] = s
    return np.stack([np.convolve(row, taps) for row in up])


def assemble_transmission(stream, frame_layout, layout):
    """Shape a frame stream and prefix the sync and SNR sections.

    ``stream`` is :func:`build_frame`'s (nt, n_frames * frame_symbols)
    output; one that does not hold ``layout.n_frames`` frames of
    ``frame_layout`` raises :class:`FramingError`. The shaped stream is
    scaled by symbol_scale = power_factor / (its peak amplitude); SNR
    on-blocks run at the resulting data maximum; sync pulses stay at
    amplitude 1 (full scale). Any sample magnitude above full scale
    raises :class:`RangeError`.
    """
    stream = np.asarray(stream)
    if stream.ndim != 2 or stream.shape[1] != layout.n_frames * frame_layout.frame_symbols:
        raise FramingError(
            f"stream of shape {stream.shape} does not hold {layout.n_frames} frames "
            f"of {frame_layout.frame_symbols} symbols"
        )
    nt = stream.shape[0]
    u = frame_layout.upsample_factor
    taps = rrc_taps(frame_layout.rrc_num_taps, frame_layout.rrc_rolloff, u)

    data_wave = pulse_shape(stream, taps, u)
    peak = float(np.max(np.abs(data_wave)))
    if layout.power_factor > 0 and peak == 0.0:
        raise DegenerateInputError("all-zero frame stream cannot be power-scaled")
    symbol_scale = layout.power_factor / peak if peak > 0 else 0.0
    data_wave *= symbol_scale
    x_max = layout.power_factor if peak > 0 else 0.0
    # The sync pulses sit at full scale and the SNR blocks at x_max, so the
    # data section and x_max are the only places a component can exceed it.
    components = data_wave.view(np.float64)
    if not (x_max <= 1.0 and components.max() <= 1.0 and components.min() >= -1.0):
        raise RangeError("scaled transmission exceeds quantizer full scale or is NaN")

    sync_len = layout.sync_samples(u)
    snr_len = layout.snr_samples(nt, u)
    data_len = data_wave.shape[1]
    total = sync_len + snr_len + data_len
    samples = np.zeros((nt, total), dtype=np.complex128)

    period = (1 + layout.sync_gap_symbols) * u
    samples[0, 0 : layout.sync_pulses * period : period] = 1.0

    # The (antenna, run, block, on/off, sample) view rxchain.estimate_snr reads.
    sounding = samples[:, sync_len : sync_len + snr_len].reshape(
        nt, nt, layout.snr_blocks, 2, layout.snr_block_symbols * u
    )
    sounding[np.arange(nt), np.arange(nt), :, 0] = x_max

    samples[:, sync_len + snr_len :] = data_wave

    sections = {
        "sync": (0, sync_len),
        "snr": (sync_len, snr_len),
        "data": (sync_len + snr_len, data_len),
    }
    return TransmissionVector(
        samples=samples,
        sections=sections,
        frame_layout=frame_layout,
        layout=layout,
        symbol_scale=symbol_scale,
        x_max=x_max,
    )


def build_transmission(bits, scheme, nt, constellation, frame_layout, layout):
    """Modulate bits, frame them and assemble the transmission.

    ``bits`` must fill exactly ``layout.n_frames`` frames of
    ``frame_layout.data_symbols_per_frame`` vectors each; anything else
    raises :class:`FramingError`.
    """
    vectors = modem.modulate(bits, scheme, nt, constellation)
    per_frame = frame_layout.data_symbols_per_frame
    if vectors.shape[0] != per_frame * layout.n_frames:
        raise FramingError(
            f"{vectors.shape[0]} data vectors do not fill {layout.n_frames} "
            f"frames of {per_frame}"
        )
    stream = build_frame(vectors.reshape(layout.n_frames, per_frame, nt), frame_layout)
    return assemble_transmission(stream, frame_layout, layout)


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


def read_captures(paths):
    """Dequantize equal-length int16 I,Q capture files into one (n_files, n) array.

    The codes go straight from each file into one int16 buffer; a list of
    files that differ in length raises :class:`ConfigurationError`.
    """
    n_codes = [os.path.getsize(p) // 2 for p in paths]
    if not n_codes or len(set(n_codes)) > 1:
        raise ConfigurationError(
            f"need captures of equal length, got {[n // 2 for n in n_codes]} samples"
        )
    codes = np.empty((len(paths), n_codes[0]), dtype="<i2")
    for row, path in zip(codes, paths):
        with open(path, "rb") as fh:
            fh.readinto(row)
    return dequantize_i16(codes)


def write_waveform(prefix, tx, extra_meta=None):
    """Write per-antenna I16 files plus a JSON sidecar; returns sidecar path.

    Files: ``<prefix>_ant<k>.bin`` (little-endian int16, interleaved I,Q)
    and ``<prefix>_meta.json``.
    """
    prefix = Path(prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    files = []
    for t in range(tx.nt):
        path = prefix.parent / f"{prefix.name}_ant{t + 1}.bin"
        quantize_i16(tx.samples[t]).tofile(path)
        files.append(path.name)
    meta = {
        "schema_version": SIDECAR_SCHEMA_VERSION,
        "sample_rate": tx.layout.sample_rate,
        "nt": tx.nt,
        "full_scale": FULL_SCALE,
        "power_factor": tx.layout.power_factor,
        "symbol_scale": tx.symbol_scale,
        "x_max": tx.x_max,
        "sections": {k: list(v) for k, v in tx.sections.items()},
        "frame_layout": asdict(tx.frame_layout),
        "transmission_layout": asdict(tx.layout),
        "files": files,
    }
    if extra_meta:
        meta.update(extra_meta)
    sidecar = prefix.parent / f"{prefix.name}_meta.json"
    sidecar.write_text(json.dumps(meta, indent=2, sort_keys=True))
    return sidecar


def read_sidecar(sidecar_path):
    """Check a sidecar and its two layouts; returns ``(meta, frame_layout, layout)``."""
    meta = read_json(sidecar_path, "sidecar")
    if meta.get("schema_version") != SIDECAR_SCHEMA_VERSION:
        raise ConfigurationError(f"unsupported sidecar schema {meta.get('schema_version')!r}")
    check_fields({k: v for k, v in meta.items() if k in _SIDECAR_FIELDS}, _SIDECAR_FIELDS,
                 ("nt", "files", "frame_layout", "transmission_layout"), "sidecar")
    return (meta, build(FrameLayout, meta["frame_layout"], "frame_layout"),
            build(TransmissionLayout, meta["transmission_layout"], "transmission_layout"))


def read_waveform(sidecar_path):
    """Load a sidecar plus its I16 files back into one (nt, n) complex array."""
    sidecar_path = Path(sidecar_path)
    meta = read_sidecar(sidecar_path)[0]
    return read_captures([sidecar_path.parent / name for name in meta["files"]]), meta
