"""Frame and transmission layouts, and the :class:`Chain` that joins them.

A frame's symbol sections (:class:`FrameLayout`), a transmission's sample
sections (:class:`TransmissionLayout`) and the orthogonal pilot sequences
the frames carry; the transmitter (:mod:`smlink.txchain`, which exports
every name here too) and the receiver read one map.
"""

from dataclasses import dataclass

import numpy as np

from . import modem
from .errors import ConfigurationError
from .fileio import check_field_types

FULL_SCALE = 32767
# Offset preamble symbols the offset estimate leaves out at each end, where the
# filter memory mixes in the neighbouring pilot and data symbols; it needs 2 more.
FO_EDGE_MARGIN = 12
_COHERENCE_LIMIT_S = 7e-3


def check_filter(num_taps, rolloff, upsample_factor):
    if num_taps < 2:
        raise ConfigurationError("need at least 2 filter taps")
    if not 0.0 < rolloff <= 1.0:
        raise ConfigurationError("roll-off must be in (0, 1]")
    # The shaped band reaches (1 + rolloff) / 2 cycles per symbol: one
    # sample per symbol aliases it, and a noiseless round trip fails.
    if upsample_factor < 2:
        raise ConfigurationError("upsample factor must be >= 2")


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
        check_field_types(self)
        if min(self.zero_pad_len, self.fo_seq_len, self.data_symbols_per_frame) < 0:
            raise ConfigurationError("section lengths must be nonnegative")
        if self.pilot_sequences_per_signal < 1 or self.pilot_seq_len < 1:
            raise ConfigurationError("pilot signal needs at least one sequence")
        if self.fo_seq_len < 2 * FO_EDGE_MARGIN + 2:
            raise ConfigurationError(
                f"offset preamble needs {2 * FO_EDGE_MARGIN + 2} or more symbols, "
                f"got fo_seq_len={self.fo_seq_len}")
        check_filter(self.rrc_num_taps, self.rrc_rolloff, self.upsample_factor)

    @property
    def pilot_signal_len(self):
        return self.pilot_sequences_per_signal * self.pilot_seq_len

    def pilot_signal(self, nt):
        """The (nt, pilot_signal_len) pilot signal, each antenna's sequence repeated;
        raises :class:`ConfigurationError` if ``pilot_seq_len`` < nt."""
        return np.tile(pilot_matrix(nt, self.pilot_seq_len).T, (1, self.pilot_sequences_per_signal))

    def pilot_window(self):
        """The symbols of a pilot signal the LS estimate averages: with 3 or more sequences
        the interior ones, as filter memory mixes the neighbouring sections into the outer two."""
        edge = self.pilot_seq_len if self.pilot_sequences_per_signal >= 3 else 0
        return slice(edge, self.pilot_signal_len - edge)

    def fo_window(self):
        """The symbols of a frame the offset estimate reads: the ``fo`` section less
        ``FO_EDGE_MARGIN`` at each end, where filter memory mixes in its neighbours."""
        fo = self.sections()["fo"]
        return slice(fo.start + FO_EDGE_MARGIN, fo.stop - FO_EDGE_MARGIN)

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
        check_field_types(self)
        if self.n_frames < 1:
            raise ConfigurationError("need at least one frame")
        if self.sync_pulses < 1 or self.sync_gap_symbols < 1:
            raise ConfigurationError("sync section needs pulses and gaps")
        if self.snr_blocks < 1 or self.snr_block_symbols < 1:
            raise ConfigurationError("SNR section needs at least one on/off block")
        if not 0 <= self.power_factor < np.inf:
            raise ConfigurationError(
                f"power_factor must be finite and >= 0, got {self.power_factor!r}")
        if not 0 < self.sample_rate < np.inf:
            raise ConfigurationError(
                f"sample_rate must be finite and positive, got {self.sample_rate!r}")

    def sections(self, nt, frame_layout):
        """Sample map of an ``nt``-antenna transmission of ``frame_layout`` frames:
        ``({name: (start, length)}, pulse period)`` for the sync, snr and data
        sections, the data section with the filter tail."""
        u = frame_layout.upsample_factor
        period = (1 + self.sync_gap_symbols) * u
        sync = self.sync_pulses * period
        snr = nt * 2 * self.snr_blocks * self.snr_block_symbols * u
        data = self.n_frames * frame_layout.frame_symbols * u + frame_layout.rrc_num_taps - 1
        return {"sync": (0, sync), "snr": (sync, snr), "data": (sync + snr, data)}, period


@dataclass(frozen=True)
class Chain:
    """One transmit chain, whose fields are the keys of an ``smlink encode`` config
    and the chain keys of the sidecar it writes. Construction refuses a field of
    the wrong type and what :func:`modem.bits_per_vector` refuses; both ends of
    the link take the chain whole (:func:`build_transmission`,
    :func:`smlink.rxchain.decode_transmission`)."""

    scheme: str
    nt: int
    modulation_order: int
    frame_layout: FrameLayout = FrameLayout()
    transmission_layout: TransmissionLayout = TransmissionLayout()

    def __post_init__(self):
        check_field_types(self)
        self.bits_per_vector

    @property
    def bits_per_vector(self):
        return modem.bits_per_vector(self.scheme, self.nt, self.modulation_order)

    @property
    def payload_bits(self):
        """Bits one transmission carries: ``n_frames`` frames of
        ``data_symbols_per_frame`` vectors of ``bits_per_vector`` bits."""
        return (self.bits_per_vector * self.frame_layout.data_symbols_per_frame
                * self.transmission_layout.n_frames)


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


def check_frame_duration(frame_layout, layout):
    """Raise :class:`ConfigurationError` when a frame of ``frame_layout``, sent
    at ``layout.sample_rate``, lasts the channel coherence budget (7 ms) or longer."""
    duration = frame_layout.frame_symbols * frame_layout.upsample_factor / layout.sample_rate
    if duration >= _COHERENCE_LIMIT_S:
        raise ConfigurationError(
            f"frame duration {duration * 1e3:.3f} ms at {layout.sample_rate:g} samples/s "
            f"exceeds the {_COHERENCE_LIMIT_S * 1e3:.0f} ms coherence budget")
