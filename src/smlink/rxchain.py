"""Receiver chain: sync, SNR estimation, frequency offset correction,
matched filtering, least-squares channel estimation and demodulation.

The decode pipeline mirrors the transmit structure: locate the 20
synchronization pulses (relative threshold, reject the capture if fewer
are found), measure SNR from the on/off section, take each frame's
carrier offset as the maximiser of its matched-filtered preamble's
periodogram summed over receive antennas, derotate the data section at
sample rate, matched-filter and downsample it once, estimate the channel
from both pilot signals of every frame in one batch, then per frame
detect each half of the data symbols with its nearer estimate.
Derotating before the matched filter keeps the combined transmit+receive
response Nyquist under carrier offset.

Channel estimates are formed as (1/N) Theta^H Y over the mean of the
interior sequences of a pilot signal (their neighborhoods are still
pilot-periodic despite pulse-shaping memory), and divided by the known
combined transmit+receive filter response sampled at symbol lags --
which makes the noiseless estimate exact to machine precision instead of
plateauing at the filter sidelobe level.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import modem
from .channel import carrier_ramp
from .errors import (
    ConfigurationError,
    DegenerateInputError,
    DimensionError,
    SyncRejection,
)
from .txchain import pilot_matrix, rrc_taps

__all__ = [
    "SyncResult",
    "SnrEstimate",
    "DecodeResult",
    "detect_sync",
    "estimate_snr",
    "matched_filter_downsample",
    "estimate_fo",
    "correct_fo",
    "pulse_gain_compensation",
    "ls_channel_estimate",
    "demodulate_frame",
    "decode_transmission",
]

# Preamble symbols left out at each end of the offset estimate, where the
# filter memory mixes in the neighbouring pilot and data symbols.
FO_EDGE_MARGIN = 12


@dataclass(frozen=True)
class SyncResult:
    """Located sync pulses and the derived transmission start."""

    peak_indices: np.ndarray
    tx_start_index: int
    data_start_index: int


@dataclass(frozen=True)
class SnrEstimate:
    """Aggregate SNR estimate plus the per-antenna, per-block raw values."""

    snr_db: float
    per_antenna_per_block: np.ndarray
    valid: bool = True


@dataclass(frozen=True)
class DecodeResult:
    """Everything recovered from one captured transmission.

    ``channel_estimates`` is (n_frames, 2, nr, nt): per frame, the
    estimates from the first and the second pilot signal.
    """

    bits: np.ndarray
    snr: SnrEstimate
    fo_cycles_per_sample: np.ndarray
    channel_estimates: np.ndarray
    sync: SyncResult
    symbol_scale: float = 1.0


def detect_sync(waveform, pulse_period_samples, n_pulses=20, threshold_fraction=0.70,
                data_offset_samples=0):
    """Find the sync pulses by relative-threshold peak search.

    Samples above ``threshold_fraction`` of the maximum magnitude are
    grouped (gaps beyond half the pulse period split groups) and each
    group contributes its strongest sample. Fewer than ``n_pulses``
    groups raise :class:`SyncRejection`. The transmission start is
    anchored on the ``n_pulses``-th peak counted from the front.
    """
    w = np.abs(np.asarray(waveform)).reshape(-1)
    if w.size == 0:
        raise DegenerateInputError("empty waveform")
    peak = float(w.max())
    if peak == 0.0:
        raise SyncRejection("all-zero capture: found 0 of the expected pulses")
    above = np.flatnonzero(w >= threshold_fraction * peak)
    merge = max(pulse_period_samples // 2, 1)
    splits = np.flatnonzero(np.diff(above) > merge) + 1
    groups = np.split(above, splits)
    peaks = np.array([g[np.argmax(w[g])] for g in groups], dtype=np.int64)
    if peaks.size < n_pulses:
        raise SyncRejection(
            f"found {peaks.size} sync peaks, need {n_pulses}; capture discarded"
        )
    anchor = int(peaks[n_pulses - 1])
    tx_start = anchor - (n_pulses - 1) * pulse_period_samples
    return SyncResult(
        peak_indices=peaks[:n_pulses],
        tx_start_index=tx_start,
        data_start_index=tx_start + int(data_offset_samples),
    )


def estimate_snr(snr_section, nt, n_blocks, block_len_samples):
    """On/off power-difference SNR estimate over the sounding section.

    ``snr_section`` is (nr, n_samples) laid out as ``nt`` sequential
    per-antenna runs of ``n_blocks`` alternating on/off blocks. Per
    block, the off block's mean (per receive antenna) is removed from
    both blocks, so a receive DC offset cancels: signal power =
    max(mean on-power - mean off-power, 0) where powers sum over receive
    antennas; the noise variance is the per-component variance of the
    off samples; their ratio (divided by nr) is one raw estimate.
    Estimates are averaged in the linear domain over all blocks and
    antennas.
    """
    y = np.atleast_2d(np.asarray(snr_section))
    nr = y.shape[0]
    need = nt * n_blocks * 2 * block_len_samples
    if y.shape[1] < need:
        raise DimensionError(
            f"SNR section has {y.shape[1]} samples, layout wants {need}"
        )
    if not y.any():
        raise DegenerateInputError("SNR section is identically zero")
    # (nr, antenna, block, on/off, sample) view of the sounding runs.
    blocks = y[:, :need].reshape(nr, nt, n_blocks, 2, block_len_samples)
    raw = np.empty((nt, n_blocks))
    for t in range(nt):
        for b in range(n_blocks):
            on, off = blocks[:, t, b, 0], blocks[:, t, b, 1]
            dc = off.mean(axis=1, keepdims=True)
            off_energy = _power_sum(off - dc)
            noise_var = off_energy / off.size
            signal = max(_power_sum(on - dc) - off_energy, 0.0) / block_len_samples
            if noise_var == 0.0:
                if signal == 0.0:
                    raise DegenerateInputError("on/off blocks are both silent")
                raw[t, b] = np.inf
            else:
                raw[t, b] = signal / (nr * noise_var)
    mean = float(np.mean(raw))
    return SnrEstimate(
        snr_db=float(10.0 * np.log10(mean)) if mean > 0 else float("-inf"),
        per_antenna_per_block=raw,
        valid=0 < mean < np.inf,
    )


def _power_sum(rows):
    """Sum of |x|^2 over a (nr, n) block, one BLAS dot product per row."""
    return float(sum(np.vdot(row, row).real for row in rows))


def matched_filter_downsample(samples, taps, upsample_factor, n_symbols=None):
    """Receive filter evaluated at the symbol instants only.

    Output k of each stream (last axis of an (..., n) input) is its full
    convolution with ``taps`` at sample k*upsample_factor + len(taps)-1,
    which compensates the combined transmit+receive group delay. Streams
    are zero-extended past their end, as in the full convolution.
    """
    y = np.atleast_2d(np.asarray(samples, dtype=np.complex128))
    n_taps = len(taps)
    if y.shape[-1] < n_taps:
        raise DimensionError("input shorter than the receive filter")
    n_out = -(-y.shape[-1] // upsample_factor)
    if n_symbols is not None:
        n_out = min(n_out, n_symbols)
    pad = max((n_out - 1) * upsample_factor + n_taps - y.shape[-1], 0)
    y = np.pad(y, [(0, 0)] * (y.ndim - 1) + [(0, pad)]) if pad else y
    windows = sliding_window_view(y, n_taps, axis=-1)[..., ::upsample_factor, :]
    return windows[..., :n_out, :] @ np.asarray(taps, dtype=np.complex128)[::-1]


def estimate_fo(preamble):
    """Per-frame carrier offset, cycles/symbol in [-0.5, 0.5), of an
    (nr, n_frames, n) matched-filtered preamble stack: the maximiser of
    the periodogram summed over receive antennas, the ML estimate for one
    tone with an unknown gain per antenna (Rife & Boorstyn 1974). Three
    Newton steps on the DTFT refine the peak of an FFT zero-padded to >= 4n
    (which lands within 1/(8n) of it); a step whose curvature is not
    negative is skipped, so an all-zero frame gives 0.
    """
    x = np.asarray(preamble, dtype=np.complex128)
    n_fft = 1 << (4 * x.shape[-1] - 1).bit_length()
    f = np.argmax(sum(np.abs(np.fft.fft(xr, n_fft)) ** 2 for xr in x), axis=-1) / n_fft
    w = 2.0 * np.pi * (np.arange(x.shape[-1]) - (x.shape[-1] - 1) / 2)
    for _ in range(3):
        xe = x * np.exp(-1j * f[:, None] * w)
        a, a1, a2 = xe.sum(axis=-1), xe @ (-1j * w), xe @ -(w**2)
        slope = np.sum((a.conj() * a1).real, axis=0)
        curve = np.sum(np.abs(a1) ** 2 + (a.conj() * a2).real, axis=0)
        f -= np.divide(slope, curve, out=np.zeros_like(slope), where=curve < 0)
    return (f + 0.5) % 1.0 - 0.5


def correct_fo(samples, delta, first_index=0, frame_len=None):
    """Counter-rotate by exp(-2j*pi*delta*i), i = first_index + position on the last axis.

    ``delta`` is one offset, or one per run of ``frame_len`` samples
    (default: the whole axis); the last run also takes the samples past
    the last whole run. Returns a new array.
    """
    x = np.array(samples, dtype=np.complex128)
    delta = np.atleast_1d(np.asarray(delta, dtype=np.float64))
    n = x.shape[-1]
    frame_len = n if frame_len is None else frame_len
    head = len(delta) * frame_len
    if delta.ndim != 1 or not delta.size or head > n:
        raise DimensionError(f"{delta.size} runs of {frame_len} samples exceed {n} samples")
    runs = x[..., :head].reshape(*x.shape[:-1], len(delta), frame_len)
    runs *= carrier_ramp(-delta, frame_len, first_index + frame_len * np.arange(len(delta)))
    x[..., head:] *= carrier_ramp(-delta[-1], n - head, first_index + head)
    return x


def pulse_gain_compensation(taps, upsample_factor, n_theta, nt):
    """Per-antenna gain of the combined Tx+Rx filter on periodic pilots.

    The symbol-spaced combined response g(d) = (taps * conv * taps)
    sampled at symbol lags around the sampling instant is Nyquist up to
    the truncated filter's sidelobes. On a pilot train of period
    ``n_theta`` the whole response collapses to one complex gain per
    antenna: G_t = sum_d g(d) exp(-2j*pi*t*d/n_theta). The receive chain
    derotates before filtering, so this holds at any carrier offset.
    """
    taps = np.asarray(taps)
    gtil = np.convolve(taps, taps)
    center = len(taps) - 1
    lo = -(center // upsample_factor)
    hi = (len(gtil) - 1 - center) // upsample_factor
    lags = np.arange(lo, hi + 1)
    g_sym = gtil[center + lags * upsample_factor]
    ants = np.arange(1, nt + 1)
    return np.exp(-2j * np.pi * np.outer(ants, lags) / n_theta) @ g_sym


def ls_channel_estimate(pilot_block, pilots, gain=None):
    """Least-squares channel estimates from received pilot signals.

    ``pilot_block`` is (..., nr, n_seq * n_theta), one pilot signal per
    leading index; ``pilots`` the (n_theta, nt) transmitted matrix with
    orthogonal columns. Returns the (..., nr, nt) estimates. Each is
    (1/n_theta) Theta^H Y over the mean of the sequences whose
    filter-memory neighborhood stays pilot-periodic (all but the first
    and last when there are at least three). ``gain`` optionally divides
    per transmit antenna to undo the combined pulse-shaping response.
    """
    theta = np.asarray(pilots)
    n_theta, nt = theta.shape
    gram = theta.conj().T @ theta
    if not np.allclose(gram, n_theta * np.eye(nt), atol=1e-9 * n_theta):
        raise ConfigurationError("pilot columns must be orthogonal")
    y = np.atleast_2d(np.asarray(pilot_block))
    n_seq, rest = divmod(y.shape[-1], n_theta)
    if rest or n_seq == 0:
        raise DimensionError("pilot block must hold one or more whole sequences")
    seqs = y.reshape(*y.shape[:-1], n_seq, n_theta)
    if n_seq >= 3:
        seqs = seqs[..., 1:-1, :]
    h_hat = seqs.mean(axis=-2) @ theta.conj() / n_theta
    if gain is not None:
        h_hat = h_hat / np.asarray(gain)
    return h_hat


def demodulate_frame(data_symbols, h_first, h_second, scheme, constellation):
    """ML-detect a frame's data block, first half with the first estimate.

    ``data_symbols`` is (nr, n); both channel estimates must carry the
    same amplitude scale as the symbols. Returns the demapped bits.
    """
    y = np.asarray(data_symbols)
    nt = h_first.shape[1]
    m = modem.bits_per_vector(scheme, nt, constellation.order)
    if scheme == "smx":
        cands = modem.candidate_vectors("smx", nt, constellation)
    split = y.shape[1] // 2
    parts = []
    for y_half, h in ((y[:, :split], h_first), (y[:, split:], h_second)):
        if scheme == "sm":
            idx = modem.sm_ml_detect_batch(y_half.T, h, constellation)
        else:
            idx = modem.ml_detect_batch(y_half.T, h, cands)
        parts.append(modem.indices_to_bits(idx, m))
    return np.concatenate(parts)


def decode_transmission(rx_samples, frame_layout, tx_layout, nt, scheme,
                        constellation, symbol_scale=None):
    """Run the full receive pipeline on the (nr, n) captured streams.

    Each frame's offset is estimated from its preamble; the data section
    is derotated once at sample rate, phase referenced to the
    transmission start, and matched-filtered once.

    Returns a :class:`DecodeResult`. Raises :class:`ConfigurationError`
    before reading the samples when ``scheme`` is unknown or ``nt`` is
    not a power of two, and :class:`SyncRejection` when the
    synchronization search fails or places the transmission start
    before the first sample or the data section past the capture's end.
    ``symbol_scale``, when given (from the transmission sidecar),
    converts the reported channel estimates to the true channel's
    amplitude scale; detection is unaffected.
    """
    modem.bits_per_vector(scheme, nt, constellation.order)
    y = np.atleast_2d(np.asarray(rx_samples, dtype=np.complex128))
    u = frame_layout.upsample_factor
    taps = rrc_taps(frame_layout.rrc_num_taps, frame_layout.rrc_rolloff, u)
    sync_len = tx_layout.sync_samples(u)
    snr_len = tx_layout.snr_samples(nt, u)
    period = (1 + tx_layout.sync_gap_symbols) * u

    # Receive magnitude over antennas, one row at a time: no (nr, n) temporaries.
    combined = np.zeros(y.shape[1])
    for row in y:
        power = np.abs(row)
        power *= power
        combined += power
    np.sqrt(combined, out=combined)
    sync = detect_sync(
        combined,
        period,
        n_pulses=tx_layout.sync_pulses,
        data_offset_samples=sync_len + snr_len,
    )
    n_frames = tx_layout.n_frames
    f_syms = frame_layout.frame_symbols
    n_sym = n_frames * f_syms
    # Peaks that are noise can anchor the transmission outside the capture.
    if sync.tx_start_index < 0 or sync.data_start_index + n_sym * u > y.shape[1]:
        raise SyncRejection(
            f"sync places the transmission at samples {sync.tx_start_index} to "
            f"{sync.data_start_index + n_sym * u}, outside the {y.shape[1]}-sample "
            "capture; capture discarded"
        )

    snr_section = y[:, sync.tx_start_index + sync_len :][:, :snr_len]
    snr = estimate_snr(snr_section, nt, tx_layout.snr_blocks,
                       tx_layout.snr_block_symbols * u)

    data = y[:, sync.data_start_index :][:, : n_sym * u + len(taps) - 1]
    sections = frame_layout.sections()

    fo = sections["fo"]
    n_fo = fo.stop - fo.start - 2 * FO_EDGE_MARGIN
    if n_fo < 2:
        raise ConfigurationError(f"offset preamble needs {2 * FO_EDGE_MARGIN + 2} or more symbols")
    start = (fo.start + FO_EDGE_MARGIN) * u
    frames = data[:, : n_sym * u].reshape(y.shape[0], n_frames, f_syms * u)
    preamble = matched_filter_downsample(
        frames[..., start : start + (n_fo - 1) * u + len(taps)], taps, u, n_fo
    )
    fo_per_frame = estimate_fo(preamble) / u

    derotated = correct_fo(data, fo_per_frame, sync.data_start_index - sync.tx_start_index,
                           f_syms * u)
    symbols = matched_filter_downsample(derotated, taps, u, n_sym)

    by_frame = symbols.reshape(y.shape[0], n_frames, f_syms).transpose(1, 0, 2)
    pilot_signals = np.stack(
        [by_frame[..., sections["pilot_first"]], by_frame[..., sections["pilot_second"]]],
        axis=1,
    )
    estimates = ls_channel_estimate(
        pilot_signals,
        pilot_matrix(nt, frame_layout.pilot_seq_len),
        pulse_gain_compensation(taps, u, frame_layout.pilot_seq_len, nt),
    )
    return DecodeResult(
        bits=np.concatenate([
            demodulate_frame(frame[:, sections["data"]], h[0], h[1], scheme, constellation)
            for frame, h in zip(by_frame, estimates)
        ]),
        snr=snr,
        fo_cycles_per_sample=fo_per_frame,
        channel_estimates=estimates / symbol_scale if symbol_scale else estimates,
        sync=sync,
        symbol_scale=symbol_scale if symbol_scale else 1.0,
    )
