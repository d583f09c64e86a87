"""Receiver chain: sync, SNR estimation, frequency offset correction,
matched filtering, least-squares channel estimation and demodulation.

The decode pipeline mirrors the transmit structure and reads the
capture in stream order, a segment at a time: locate the 20
synchronization pulses by a comb search at their known period over the
starts where the transmission fits (reject the capture unless every
pulse stands above every mid-gap sample), measure SNR from the on/off
section one pair of blocks at a time, then take the frames a block of
about ``SAMPLE_BLOCK`` samples at a time. Per block of frames: take each
frame's carrier offset as the maximiser of its matched-filtered
preamble's periodogram summed over receive antennas, derotate each frame
at sample rate by its own offset and matched-filter and downsample it,
one frame at a time, estimate the channel from both pilot signals of
every frame, then detect each half of every frame's data with its nearer
estimate, as the symbol-fidelity trial does. Derotating before the
matched filter keeps the combined transmit+receive response Nyquist
under carrier offset.

Channel estimates are formed as (1/N) Theta^H Y over the mean of the
sequences in :meth:`FrameLayout.pilot_window`, and divided by the known
combined transmit+receive filter response sampled at symbol lags --
which makes the noiseless estimate exact to machine precision instead of
plateauing at the filter sidelobe level.
"""

from dataclasses import dataclass
from numbers import Integral

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import modem
from .channel import SAMPLE_BLOCK, carrier_ramp, segment_reader
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


@dataclass(frozen=True)
class SyncResult:
    """Located sync pulses and the transmission start. ``margin`` is the
    weakest pulse over the strongest mid-gap sample, above 1 when accepted."""

    peak_indices: np.ndarray
    tx_start_index: int
    margin: float


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


# A NaN, infinite or overflowing sample makes a magnitude non-finite, which is
# refused with a named error; the warnings on the way there are not raised.
@np.errstate(invalid="ignore", over="ignore")
def detect_sync(capture, pulse_period_samples, n_pulses, fit_samples):
    """Find the sync pulse train by a comb search at the known pulse period.

    ``capture`` is the (nr, n) received streams, as an array (a 1-D one
    is one antenna) or as a block source with a ``shape`` and a
    ``segment(start, stop)``. With m the antenna-combined magnitude
    sqrt(sum_r |y_r|^2) and P the pulse period, the transmission start is
    the k in [0, n - ``fit_samples``] (the starts where a
    ``fit_samples``-long transmission fits) that maximises
    sum_i (m[k + i P] - m[k + i P + P//2]) over the ``n_pulses`` teeth;
    the mid-gap term cancels constant sounding blocks. Starts are
    searched one ``SAMPLE_BLOCK`` at a time, so no sample past
    n - fit_samples + (n_pulses - 1) P + P//2 is read.
    The capture is accepted only when every tooth stands above every
    mid-gap sample; otherwise, or when the capture is too short,
    :class:`SyncRejection` is raised. A NaN or infinite sample in the
    searched head, or one whose power overflows, raises
    :class:`DegenerateInputError`.
    """
    segment, (_, n) = segment_reader(capture)
    period, half = pulse_period_samples, pulse_period_samples // 2
    reach = (n_pulses - 1) * period + half  # the comb's last sample past its start
    n_starts = n - max(fit_samples, reach + 1) + 1
    if n_starts < 1:
        raise SyncRejection(f"{n}-sample capture cannot hold the "
                            f"{fit_samples}-sample transmission; capture discarded")
    best, start = -np.inf, 0
    for b in range(0, n_starts, SAMPLE_BLOCK):
        k = min(SAMPLE_BLOCK, n_starts - b)
        m = _magnitude(segment(b, b + k + reach))
        if not np.isfinite(m).all():
            raise DegenerateInputError("capture holds NaN, infinite or overflowing samples")
        step = m[: k + reach - half] - m[half:]
        comb = sum(step[i * period : i * period + k] for i in range(n_pulses))
        i = int(np.argmax(comb))
        if comb[i] > best:
            best, start = comb[i], b + i
    teeth = period * np.arange(n_pulses)
    m = _magnitude(segment(start, start + reach + 1))
    weakest, gap = m[teeth].min(), m[teeth + half].max()
    if not weakest > gap:
        raise SyncRejection(
            f"weakest of {n_pulses} sync pulses ({weakest:.3g}) does not stand above the "
            f"strongest gap sample ({gap:.3g}); capture discarded")
    return SyncResult(peak_indices=start + teeth, tx_start_index=start,
                      margin=float(weakest / gap) if gap else np.inf)


def _magnitude(rows):
    """sqrt(sum_r |y_r|^2) of an (nr, k) block of streams."""
    return np.sqrt(sum(np.abs(row) ** 2 for row in rows))


# A NaN, infinite or overflowing sample makes an energy non-finite, which is
# refused with a named error; the warnings on the way there are not raised.
@np.errstate(invalid="ignore", over="ignore")
def estimate_snr(snr_section, nt, n_blocks, block_len_samples):
    """On/off power-difference SNR estimate over the sounding section.

    ``snr_section`` is (nr, n_samples), an array or a block source with a
    ``shape`` and a ``segment(start, stop)``, laid out as ``nt``
    sequential per-antenna runs of ``n_blocks`` alternating on/off
    blocks; it is read one on/off pair at a time. Per block, the off
    block's mean (per receive antenna) is removed from both blocks, so a
    receive DC offset cancels: signal power = max(mean on-power - mean
    off-power, 0) where powers sum over receive antennas; the noise
    variance is the per-component variance of the off samples; their
    ratio (divided by nr) is one raw estimate. Estimates are averaged in
    the linear domain over all blocks and antennas. Each block's
    energies are summed one BLAS dot product per receive row over fresh
    ``off - dc`` and ``on - dc`` arrays, not as one-pass sums of x and
    |x|^2, which cancel under a large receive DC. A pair whose blocks are
    both silent (an all-zero section included) raises
    :class:`DegenerateInputError`, as does a NaN or infinite sample or
    one whose power overflows.
    """
    segment, (nr, n) = segment_reader(snr_section)
    block = block_len_samples
    need = nt * n_blocks * 2 * block
    if n < need:
        raise DimensionError(f"SNR section has {n} samples, layout wants {need}")
    raw = np.empty((nt, n_blocks))
    for t in range(nt):
        for b in range(n_blocks):
            a = 2 * block * (t * n_blocks + b)
            # A pair read into the call is freed when it returns, before the next is read.
            raw[t, b] = _on_off_estimate(segment(a, a + 2 * block), block)
    mean = float(np.mean(raw))
    return SnrEstimate(
        snr_db=float(10.0 * np.log10(mean)) if mean > 0 else float("-inf"),
        per_antenna_per_block=raw,
        valid=0 < mean < np.inf,
    )


def _on_off_estimate(pair, block):
    """One raw estimate of :func:`estimate_snr` from an (nr, 2 * block) on/off pair."""
    on, off = pair[:, :block], pair[:, block:]
    dc = off.mean(axis=1, keepdims=True)
    off_energy, on_energy = (float(sum(np.vdot(r, r).real for r in x - dc)) for x in (off, on))
    noise_var = off_energy / off.size
    if not np.isfinite(off_energy + on_energy):
        raise DegenerateInputError("SNR section holds NaN, infinite or overflowing samples")
    signal = max(on_energy - off_energy, 0.0) / block
    if noise_var == 0.0:
        if signal == 0.0:
            raise DegenerateInputError("on/off blocks are both silent")
        return np.inf
    return signal / (pair.shape[0] * noise_var)


def matched_filter_downsample(samples, taps, upsample_factor, n_symbols=None):
    """Receive filter evaluated at the symbol instants only.

    Output k of each stream (last axis of an (..., n) input) is its full
    convolution with ``taps`` at sample k*upsample_factor + len(taps)-1,
    which compensates the combined transmit+receive group delay. Streams
    are zero-extended past their end, as in the full convolution. An
    ``upsample_factor`` that is not an integer >= 1 raises
    :class:`ConfigurationError`.
    """
    if not (isinstance(upsample_factor, Integral) and upsample_factor >= 1):
        raise ConfigurationError(
            f"upsample_factor must be an integer >= 1, got {upsample_factor!r}")
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
    negative is skipped, so an all-zero frame gives 0. The spectra are
    taken ``SAMPLE_BLOCK // n_fft`` frames (at least one) at a time, so
    they do not grow with the frame count; the Newton steps take all
    frames at once.
    """
    x = np.asarray(preamble, dtype=np.complex128)
    n_fft = 1 << (4 * x.shape[-1] - 1).bit_length()
    step = max(1, SAMPLE_BLOCK // n_fft)
    f = np.empty(x.shape[-2])
    for a in range(0, f.size, step):
        power = sum(np.abs(np.fft.fft(xr, n_fft)) ** 2 for xr in x[:, a : a + step])
        f[a : a + step] = np.argmax(power, axis=-1) / n_fft
    w = 2.0 * np.pi * (np.arange(x.shape[-1]) - (x.shape[-1] - 1) / 2)
    for _ in range(3):
        xe = x * np.exp(-1j * f[:, None] * w)
        a, a1, a2 = xe.sum(axis=-1), xe @ (-1j * w), xe @ -(w**2)
        slope = np.sum((a.conj() * a1).real, axis=0)
        curve = np.sum(np.abs(a1) ** 2 + (a.conj() * a2).real, axis=0)
        f -= np.divide(slope, curve, out=np.zeros_like(slope), where=curve < 0)
    return (f + 0.5) % 1.0 - 0.5


def correct_fo(samples, delta, first_index=0):
    """Counter-rotate by exp(-2j*pi*delta*i), i = first_index + position on the last axis.

    ``delta`` is one offset, in cycles per sample. Returns a new array.
    """
    x = np.asarray(samples, dtype=np.complex128)
    return x * carrier_ramp(-delta, x.shape[-1], first_index)


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

    ``pilot_block`` is (..., nr, n_seq * n_theta), the received sequences
    to average of one pilot signal per leading index (both fidelities pass
    its ``FrameLayout.pilot_window()``); ``pilots`` the (n_theta, nt)
    transmitted matrix with orthogonal columns. Returns the (..., nr, nt)
    estimates, each (1/n_theta) Theta^H Y over the mean of the n_seq
    sequences: under white noise of variance sigma^2 each entry's error
    has variance sigma^2 / (n_seq * n_theta), before ``gain``, which
    optionally divides per transmit antenna to undo the combined
    pulse-shaping response.
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
    h_hat = seqs.mean(axis=-2) @ theta.conj() / n_theta
    if gain is not None:
        h_hat = h_hat / np.asarray(gain)
    return h_hat


def demodulate_frame(blocks, estimates, scheme, constellation):
    """ML-detect blocks of received vectors, each half with its own estimate.

    ``blocks`` is a sequence of (n, nr) received vectors, n free per
    block; ``estimates`` is (len(blocks), 2, nr, nt), on the vectors'
    amplitude scale. Block i's first n // 2 vectors are detected with
    ``estimates[i, 0]``, the rest with ``estimates[i, 1]``; a half may be
    empty. Returns the detected bit-block values of all blocks, in order.
    A ``scheme`` other than ``"sm"`` or ``"smx"`` raises
    :class:`ConfigurationError`.
    """
    if len(blocks) != len(estimates):
        raise DimensionError(f"{len(blocks)} blocks but {len(estimates)} estimate pairs")
    if scheme == "sm":
        detect, table = modem.sm_ml_detect_batch, constellation
    elif scheme == "smx":
        detect = modem.ml_detect_batch
        table = modem.candidate_vectors("smx", estimates.shape[-1], constellation)
    else:
        raise ConfigurationError(f"unknown scheme {scheme!r}")
    return np.concatenate([detect(half, h, table)
                           for y, pair in zip(blocks, estimates)
                           for half, h in zip((y[: len(y) // 2], y[len(y) // 2 :]), pair)])


def decode_transmission(rx_samples, frame_layout, tx_layout, nt, scheme,
                        constellation, symbol_scale=None):
    """Run the full receive pipeline on the (nr, n) captured streams.

    ``rx_samples`` is an array or a block source with a ``shape`` and a
    ``segment(start, stop)`` (:class:`smlink.channel.ReceivedWaveform`,
    :class:`smlink.txchain.CaptureFiles`); an array is read through
    slices. The capture is read in stream order, in segments: the head
    that :func:`detect_sync` searches, the sounding section one on/off
    pair at a time (:func:`estimate_snr`), then the frames a block of
    about ``SAMPLE_BLOCK`` samples at a time, each block with the
    filter's reach past it. Per block of frames, each frame's offset is
    estimated from the matched-filtered ``frame_layout.fo_window()``
    symbols of its preamble; each frame and the filter's reach past it
    is derotated at its offset, phase referenced to the transmission
    start, and matched-filtered; each frame's two channel estimates
    average the ``frame_layout.pilot_window()`` sequences of its two
    pilot signals, and its data is detected. So no array the length of
    the capture, or of its data section, is formed.

    Returns a :class:`DecodeResult`. Raises :class:`ConfigurationError`
    before reading the samples when ``scheme`` is unknown or ``nt`` is
    not a power of two, and :class:`SyncRejection` when the capture
    cannot hold the transmission or :func:`detect_sync` finds no pulse
    train at a start where it fits. Every segment is screened as it is
    read, by one BLAS dot product per row, and the samples no stage
    reads are read for the screen alone: a NaN or infinite sample, or a
    segment of a row whose power overflows, raises
    :class:`DegenerateInputError` when its segment is read, so a capture
    that also fails sync may raise :class:`SyncRejection` first.
    ``symbol_scale``, when given (from the transmission sidecar),
    converts the reported channel estimates to the true channel's
    amplitude scale; detection is unaffected.
    """
    m = modem.bits_per_vector(scheme, nt, constellation.order)
    capture = _ScreenedCapture(rx_samples)
    nr, n = capture.shape
    u = frame_layout.upsample_factor
    taps = rrc_taps(frame_layout.rrc_num_taps, frame_layout.rrc_rolloff, u)
    tx_sections, period = tx_layout.sections(nt, frame_layout)
    snr_start, snr_len = tx_sections["snr"]
    data_offset, _ = tx_sections["data"]

    n_frames = tx_layout.n_frames
    f_syms = frame_layout.frame_symbols
    f_len = f_syms * u
    sync = detect_sync(capture, period, tx_layout.sync_pulses, data_offset + n_frames * f_len)
    start = sync.tx_start_index
    capture.screen_to(start + snr_start)
    snr = estimate_snr(_Section(capture, start + snr_start, snr_len), nt,
                       tx_layout.snr_blocks, tx_layout.snr_block_symbols * u)

    fo = frame_layout.fo_window()
    sections = frame_layout.sections()
    n_theta, window = frame_layout.pilot_seq_len, frame_layout.pilot_window()
    pilots = pilot_matrix(nt, n_theta)
    gain = pulse_gain_compensation(taps, u, n_theta, nt)
    per_block = max(1, SAMPLE_BLOCK // f_len)
    frame_bits = frame_layout.data_symbols_per_frame * m
    bits = np.empty(n_frames * frame_bits, dtype=np.uint8)
    fo_per_frame = np.empty(n_frames)
    estimates = np.empty((n_frames, 2, nr, nt), dtype=np.complex128)
    for first in range(0, n_frames, per_block):
        count = min(per_block, n_frames - first)
        these = slice(first, first + count)
        a = data_offset + first * f_len  # from the transmission start
        block = capture.segment(start + a, start + a + count * f_len + len(taps) - 1)
        frames = block[:, : count * f_len].reshape(nr, count, f_len)
        preamble = matched_filter_downsample(
            frames[..., fo.start * u : (fo.stop - 1) * u + len(taps)], taps, u, fo.stop - fo.start)
        fo_per_frame[these] = estimate_fo(preamble) / u
        # Frame f plus the filter's reach past it, derotated at f's own offset.
        by_frame = np.empty((count, nr, f_syms), dtype=np.complex128)
        for f in range(count):
            rows = block[:, f * f_len : (f + 1) * f_len + len(taps) - 1]
            by_frame[f] = matched_filter_downsample(
                correct_fo(rows, fo_per_frame[first + f], a + f * f_len), taps, u, f_syms)
        pilot_signals = np.stack([by_frame[..., sections[name]][..., window]
                                  for name in ("pilot_first", "pilot_second")], axis=1)
        estimates[these] = ls_channel_estimate(pilot_signals, pilots, gain)
        detected = demodulate_frame(by_frame[..., sections["data"]].transpose(0, 2, 1),
                                    estimates[these], scheme, constellation)
        bits[first * frame_bits : (first + count) * frame_bits] = modem.indices_to_bits(detected, m)
    capture.screen_to(n)
    return DecodeResult(
        bits=bits,
        snr=snr,
        fo_cycles_per_sample=fo_per_frame,
        channel_estimates=estimates / symbol_scale if symbol_scale else estimates,
        sync=sync,
        symbol_scale=symbol_scale if symbol_scale else 1.0,
    )


class _ScreenedCapture:
    """A capture read through ``segment(start, stop)``, each segment as complex
    samples screened by one BLAS dot product per row, which allocates nothing;
    ``read_to`` is the end of the furthest segment read."""

    def __init__(self, rx_samples):
        if not hasattr(rx_samples, "segment"):
            rx_samples = np.asarray(rx_samples, dtype=np.complex128)
        self._segment, self.shape = segment_reader(rx_samples)
        self.read_to = 0

    def segment(self, start, stop):
        x = np.asarray(self._segment(start, stop), dtype=np.complex128)
        if not all(np.isfinite(np.vdot(row, row)) for row in x):
            raise DegenerateInputError("capture holds NaN, infinite or overflowing samples")
        self.read_to = max(self.read_to, stop)
        return x

    def screen_to(self, stop):
        """Read and screen the samples from ``read_to`` up to ``stop``, a block at a time."""
        for a in range(self.read_to, stop, SAMPLE_BLOCK):
            self.segment(a, min(a + SAMPLE_BLOCK, stop))


@dataclass(frozen=True)
class _Section:
    """Samples ``start`` to ``start + length`` of a capture, as a block source."""

    capture: _ScreenedCapture
    start: int
    length: int

    @property
    def shape(self):
        return self.capture.shape[0], self.length

    @property
    def size(self):
        return self.capture.shape[0] * self.length

    def segment(self, start, stop):
        return self.capture.segment(self.start + start, self.start + stop)
