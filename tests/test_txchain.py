"""Tests for frame assembly, pulse shaping and the I16 capture format."""

import ast
import contextlib
import io
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smlink import channel, cli, modem, txchain
from smlink.errors import ConfigurationError, DimensionError, FramingError, RangeError


def random_bpsk_frames(layout, tx_layout, nt=2, seed=0):
    """The (nt, n_frames * frame_symbols) stream of random SM/BPSK frames."""
    n = tx_layout.n_frames * layout.data_symbols_per_frame
    bits = np.random.default_rng(seed).integers(
        0, 2, modem.bits_per_vector("sm", nt, 2) * n).astype(np.uint8)
    vectors = modem.modulate(bits, "sm", nt, modem.build_constellation(2))
    return txchain.build_frame(vectors.reshape(tx_layout.n_frames, -1, nt), layout)


def random_sm_transmission(layout, tx_layout, nt=2, seed=0):
    """The transmission of the bits of :func:`random_bpsk_frames`, built from them."""
    chain = txchain.Chain("sm", nt, 2, layout, tx_layout)
    bits = np.random.default_rng(seed).integers(0, 2, chain.payload_bits).astype(np.uint8)
    return txchain.build_transmission(bits, chain)


def whole_stream(tx):
    """The (nt, n_frames * frame_symbols) frame stream of ``tx`` as one array."""
    return tx.stream.segment(0, tx.stream.shape[1])


def data_section(tx, stream):
    """The data section of ``tx`` built whole: its (nt, n_symbols) frame
    ``stream`` through one :func:`txchain.pulse_shape`, scaled by ``symbol_scale``."""
    fl = tx.chain.frame_layout
    taps = txchain.rrc_taps(fl.rrc_num_taps, fl.rrc_rolloff, fl.upsample_factor)
    shaped = txchain.pulse_shape(stream, taps, fl.upsample_factor)
    shaped *= tx.symbol_scale
    return shaped


class TestRrcTaps:
    def test_symmetric_and_unit_energy(self):
        taps = txchain.rrc_taps()
        assert len(taps) == 40
        assert np.allclose(taps, taps[::-1], atol=1e-15)
        assert np.sum(taps**2) == pytest.approx(1.0, abs=1e-12)

    def test_combined_response_is_nyquist(self):
        """Tx+Rx cascade has tiny intersymbol leakage at symbol lags."""
        u = 4
        taps = txchain.rrc_taps(40, 0.75, u)
        g = np.convolve(taps, taps)
        center = len(taps) - 1
        peak = g[center]
        assert peak == pytest.approx(1.0, abs=1e-12)  # unit tap energy
        lags = np.arange(1, center // u + 1)
        isi = np.abs(g[center + lags * u]) / peak
        assert np.max(isi) <= 0.02

    def test_odd_length_hits_both_singularities(self):
        """41 taps at roll-off 0.25 place samples exactly on t = 0 and
        |t| = 1/(4 beta); the analytic limits must keep them finite."""
        taps = txchain.rrc_taps(41, 0.25, 4)
        assert np.isfinite(taps).all()
        assert np.allclose(taps, taps[::-1], atol=1e-15)
        assert np.argmax(taps) == 20

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            txchain.rrc_taps(1, 0.75, 4)
        with pytest.raises(ConfigurationError):
            txchain.rrc_taps(40, 0.0, 4)
        with pytest.raises(ConfigurationError):
            txchain.rrc_taps(40, 1.5, 4)

    @pytest.mark.parametrize("u", [0, 1])
    def test_fewer_than_two_samples_per_symbol_refused(self, u):
        """At one sample per symbol the shaped band aliases: a noiseless
        2x2 SM/BPSK round trip got 500 of 2000 bits wrong."""
        with pytest.raises(ConfigurationError, match="upsample factor"):
            txchain.rrc_taps(40, 0.75, u)
        with pytest.raises(ConfigurationError, match="upsample factor"):
            txchain.FrameLayout(upsample_factor=u)


class TestPilots:
    def test_sequence_values(self):
        seq = txchain.pilot_sequence(1, 10)
        assert np.allclose(seq, np.exp(2j * np.pi * np.arange(10) / 10))
        assert np.allclose(np.abs(seq), 1.0)

    def test_orthogonality(self):
        theta = txchain.pilot_matrix(2, 10)
        assert theta.shape == (10, 2)
        assert np.vdot(theta[:, 0], theta[:, 1]) == pytest.approx(0.0, abs=1e-12)
        assert np.vdot(theta[:, 0], theta[:, 0]) == pytest.approx(10.0)

    def test_too_many_antennas(self):
        with pytest.raises(ConfigurationError):
            txchain.pilot_matrix(11, 10)


class TestFrameLayout:
    def test_default_sectioning(self):
        layout = txchain.FrameLayout()
        assert layout.frame_symbols == 2300
        assert layout.pilot_signal_len == 100
        s = layout.sections()
        assert s["zeros_head"] == slice(0, 50)
        assert s["pilot_first"] == slice(50, 150)
        assert s["fo"] == slice(150, 1150)
        assert s["data"] == slice(1150, 2150)
        assert s["pilot_second"] == slice(2150, 2250)
        assert s["zeros_tail"] == slice(2250, 2300)

    @pytest.mark.parametrize("fo_seq_len", [1000, 2 * txchain.FO_EDGE_MARGIN + 2])
    def test_fo_window_is_the_preamble_less_its_edges(self, fo_seq_len):
        """The offset estimate reads the fo section less FO_EDGE_MARGIN symbols
        at each end, for the default preamble and the shortest one allowed."""
        layout = txchain.FrameLayout(fo_seq_len=fo_seq_len)
        fo = layout.sections()["fo"]
        n_fo = fo.stop - fo.start - 2 * txchain.FO_EDGE_MARGIN
        window = layout.fo_window()
        assert window == slice(fo.start + txchain.FO_EDGE_MARGIN,
                               fo.start + txchain.FO_EDGE_MARGIN + n_fo)
        assert window.stop - window.start == fo_seq_len - 2 * txchain.FO_EDGE_MARGIN >= 2

    @pytest.mark.parametrize("field", ["zero_pad_len", "pilot_sequences_per_signal",
                                       "pilot_seq_len", "fo_seq_len", "data_symbols_per_frame",
                                       "upsample_factor", "rrc_num_taps"])
    def test_integer_fields_refused_as_floats(self, field):
        value = float(getattr(txchain.FrameLayout(), field))
        with pytest.raises(ConfigurationError, match=field):
            txchain.FrameLayout(**{field: value})

    @pytest.mark.parametrize("value", ["x", True])
    def test_rolloff_must_be_a_number(self, value):
        """A string used to end in a bare TypeError and True passed as 1."""
        with pytest.raises(ConfigurationError, match="FrameLayout field 'rrc_rolloff'"):
            txchain.FrameLayout(rrc_rolloff=value)
        assert txchain.FrameLayout(rrc_rolloff=np.float64(0.5)).rrc_rolloff == 0.5

    def test_coherence_budget_guard(self):
        """A frame is held to the 7 ms budget at the transmission's own sample
        rate: 21 300 symbols last 8.52 ms at 10 Ms/s and 0.852 ms at 100 Ms/s,
        and the default 2300 last 92 ms at 100 ks/s."""
        long_frame = txchain.FrameLayout(data_symbols_per_frame=20_000)
        with pytest.raises(ConfigurationError, match="coherence budget"):
            txchain.check_frame_duration(long_frame, txchain.TransmissionLayout())
        txchain.check_frame_duration(long_frame, txchain.TransmissionLayout(sample_rate=1e8))
        with pytest.raises(ConfigurationError, match="coherence budget"):
            txchain.check_frame_duration(txchain.FrameLayout(),
                                         txchain.TransmissionLayout(sample_rate=1e5))

    def test_build_frame_contents(self):
        layout = txchain.FrameLayout()
        rng = np.random.default_rng(1)
        x = rng.choice([1.0, -1.0], size=(3, 1000, 2)) * np.eye(2)[
            rng.integers(0, 2, (3, 1000))
        ]
        stream = txchain.build_frame(x, layout)
        assert stream.shape == (2, 3 * 2300)
        s = layout.sections()
        pilots = np.tile(txchain.pilot_matrix(2, 10).T, (1, 10))
        for f, frame in enumerate(np.split(stream, 3, axis=1)):
            assert not frame[:, s["zeros_head"]].any()
            assert not frame[:, s["zeros_tail"]].any()
            # constant preamble on the first antenna only
            assert np.all(frame[0, s["fo"]] == 1.0)
            assert not frame[1, s["fo"]].any()
            # both pilot signals tile the orthogonal sequences
            assert np.allclose(frame[:, s["pilot_first"]], pilots)
            assert np.allclose(frame[:, s["pilot_second"]], pilots)
            assert np.array_equal(frame[:, s["data"]], x[f].T)

    def test_build_frame_validation(self):
        layout = txchain.FrameLayout()
        with pytest.raises(FramingError):
            txchain.build_frame(np.zeros((1, 999, 2), dtype=complex), layout)
        with pytest.raises(DimensionError):
            txchain.build_frame(np.zeros((1000, 2), dtype=complex), layout)


class TestTransmissionLayout:
    @pytest.mark.parametrize("field", ["n_frames", "sync_pulses", "sync_gap_symbols",
                                       "snr_blocks", "snr_block_symbols"])
    def test_integer_fields_refused_as_floats(self, field):
        """A float count used to end in a TypeError inside build_transmission
        (a float snr_block_symbols built a transmission of float length)."""
        value = float(getattr(txchain.TransmissionLayout(), field))
        with pytest.raises(ConfigurationError, match=field):
            txchain.TransmissionLayout(**{field: value})

    @pytest.mark.parametrize("field", ["power_factor", "sample_rate"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, field, value):
        with pytest.raises(ConfigurationError):
            txchain.TransmissionLayout(**{field: value})

    @pytest.mark.parametrize("field,value", [("power_factor", "x"), ("sample_rate", None),
                                             ("power_factor", True)])
    def test_float_fields_must_be_numbers(self, field, value):
        """A string or None used to end in a bare TypeError and True passed as 1."""
        with pytest.raises(ConfigurationError, match=f"TransmissionLayout field {field!r}"):
            txchain.TransmissionLayout(**{field: value})
        assert txchain.TransmissionLayout(**{field: np.float64(0.25)}) == \
            txchain.TransmissionLayout(**{field: 0.25})


class TestPulseShape:
    def test_impulse_response(self):
        """One unit symbol comes out as the tap sequence itself."""
        taps = txchain.rrc_taps()
        out = txchain.pulse_shape(np.array([[1.0 + 0j]]), taps, 4)
        assert out.shape == (1, 4 + len(taps) - 1)
        assert np.allclose(out[0, : len(taps)], taps)
        assert not out[0, len(taps):].any()

    def test_matches_shift_and_add(self):
        """Shaping a block equals superposing per-symbol responses."""
        rng = np.random.default_rng(9)
        taps = txchain.rrc_taps()
        u = 4
        sym = rng.standard_normal(60) + 1j * rng.standard_normal(60)
        out = txchain.pulse_shape(sym[None, :], taps, u)[0]
        ref = np.zeros(60 * u + len(taps) - 1, dtype=complex)
        for k, s in enumerate(sym):
            ref[k * u : k * u + len(taps)] += s * taps
        assert np.max(np.abs(out - ref)) < 1e-12

    def test_zero_in_zero_out(self):
        out = txchain.pulse_shape(np.zeros((2, 10), dtype=complex),
                                  txchain.rrc_taps(), 4)
        assert not out.any()

    @pytest.mark.parametrize("n_frames,u,num_taps", [(50, 4, 40), (1, 4, 40), (3, 3, 17)])
    def test_blocks_equal_one_full_convolution(self, n_frames, u, num_taps):
        """Zero-stuffing and filtering block by block, with the tail of
        upsampled samples carried into the next block, equals one
        np.convolve of each whole row bit for bit: on the 50-frame stream
        of the benchmark's waveform trial (14 blocks and a ragged one),
        on a one-frame stream inside one block and at another rate."""
        layout = txchain.FrameLayout(upsample_factor=u, rrc_num_taps=num_taps)
        stream = random_bpsk_frames(layout, txchain.TransmissionLayout(n_frames=n_frames))
        taps = txchain.rrc_taps(num_taps, layout.rrc_rolloff, u)
        up = np.zeros((2, stream.shape[1] * u), dtype=complex)
        up[:, ::u] = stream
        reference = np.stack([np.convolve(row, taps) for row in up])
        assert np.array_equal(txchain.pulse_shape(stream, taps, u), reference)


class TestAssembleTransmission:
    layout = txchain.FrameLayout()
    tx_layout = txchain.TransmissionLayout(n_frames=2, snr_block_symbols=200)

    def build(self):
        return random_sm_transmission(self.layout, self.tx_layout)

    def test_section_bookkeeping(self):
        """At 4 samples per symbol: 20 pulses 51 symbols apart, 5 on/off
        pairs of 200-symbol blocks per antenna, then 2 frames of 2300
        symbols and the 39-sample filter tail."""
        sections, period = self.tx_layout.sections(2, self.layout)
        assert period == 204
        assert sections == {"sync": (0, 4080), "snr": (4080, 16_000), "data": (20_080, 18_439)}
        assert self.tx_layout.sections(4, self.layout)[0]["snr"] == (4080, 32_000)
        tx = self.build()
        assert tx.sections == sections
        assert tx.stream.shape == (2, 4600)
        assert tx.samples.shape == (2, 38_519)

    def test_sync_pulses(self):
        tx = self.build()
        u = self.layout.upsample_factor
        period = (1 + self.tx_layout.sync_gap_symbols) * u
        sync = tx.samples[:, : tx.sections["snr"][0]]
        nz = np.flatnonzero(sync[0])
        assert nz.tolist() == list(range(0, 20 * period, period))
        assert np.all(sync[0, nz] == 1.0)
        assert not sync[1].any()  # first antenna only

    def test_snr_section_structure(self):
        tx = self.build()
        u = self.layout.upsample_factor
        start, length = tx.sections["snr"]
        block = self.tx_layout.snr_block_symbols * u
        section = tx.samples[:, start : start + length]
        for t in range(2):
            runs = section[t].reshape(-1, block)
            expect_on = np.zeros(runs.shape[0], dtype=bool)
            # antenna t owns blocks [t*10, t*10+10), alternating on/off
            expect_on[t * 10 : (t + 1) * 10 : 2] = True
            assert np.array_equal(runs.any(axis=1), expect_on)
            assert np.all(runs[expect_on] == tx.x_max)

    def test_data_scaling_and_peak(self):
        tx = self.build()
        start, _ = tx.sections["data"]
        data = tx.samples[:, start:]
        assert np.max(np.abs(data)) == pytest.approx(self.tx_layout.power_factor)
        assert tx.x_max == self.tx_layout.power_factor
        # sync-peak to data-peak ratio approx 21 dB with default factor
        ratio_db = 20 * np.log10(1.0 / np.max(np.abs(data)))
        assert ratio_db == pytest.approx(20 * np.log10(32767 / 2896), abs=1e-9)

    def test_zero_power_factor(self):
        tx_layout = txchain.TransmissionLayout(
            n_frames=1, snr_block_symbols=50, power_factor=0.0
        )
        tx = random_sm_transmission(self.layout, tx_layout)
        assert tx.symbol_scale == 0.0
        assert tx.x_max == 0.0
        start, _ = tx.sections["data"]
        assert not tx.samples[:, start:].any()

    def test_overscale_raises(self):
        tx_layout = txchain.TransmissionLayout(
            n_frames=1, snr_block_symbols=50, power_factor=1.5
        )
        with pytest.raises(RangeError):
            random_sm_transmission(self.layout, tx_layout)

    def test_nan_power_factor_raises(self):
        """A layout that skipped its own validation still cannot put NaN
        on the air: x_max and the data section both fail the check."""
        tx_layout = txchain.TransmissionLayout(n_frames=2, snr_block_symbols=200)
        object.__setattr__(tx_layout, "power_factor", np.nan)
        with pytest.raises(RangeError):
            random_sm_transmission(self.layout, tx_layout)


class TestBuildTransmission:
    tx_layout = txchain.TransmissionLayout(n_frames=3, snr_block_symbols=200)

    @staticmethod
    def per_frame_loop(bits, chain):
        """Reference: modulate and frame each bit chunk on its own."""
        c = modem.build_constellation(chain.modulation_order)
        layout = chain.frame_layout
        per_frame = chain.bits_per_vector * layout.data_symbols_per_frame
        streams = []
        for f in range(chain.transmission_layout.n_frames):
            chunk = bits[f * per_frame : (f + 1) * per_frame]
            if chain.scheme == "sm":
                _, vectors = modem.sm_modulate(chunk, chain.nt, c)
            else:
                vectors = modem.smx_modulate(chunk, chain.nt, c)
            streams.append(txchain.build_frame(vectors[None], layout))
        return np.concatenate(streams, axis=1)

    @pytest.mark.parametrize("scheme,nt,order,data_symbols", [
        ("sm", 2, 2, 1000), ("sm", 4, 4, 1000), ("smx", 4, 16, 500),
    ])
    def test_matches_per_frame_loop(self, scheme, nt, order, data_symbols):
        """The transmission's frame stream, read whole and in runs that cut
        frames, equals the frames of each bit chunk built on its own."""
        layout = txchain.FrameLayout(data_symbols_per_frame=data_symbols)
        chain = txchain.Chain(scheme, nt, order, layout, self.tx_layout)
        bits = np.random.default_rng(17).integers(0, 2, chain.payload_bits).astype(np.uint8)
        tx = txchain.build_transmission(bits, chain)
        ref = self.per_frame_loop(bits, chain)
        assert tx.stream.shape == ref.shape
        assert np.array_equal(whole_stream(tx), ref)
        cuts = [0, 1, layout.frame_symbols - 1, layout.frame_symbols + 7, ref.shape[1]]
        parts = [tx.stream.segment(a, b) for a, b in zip(cuts, cuts[1:])]
        assert np.array_equal(np.concatenate(parts, axis=1), ref)

    @pytest.mark.parametrize("n_vectors", [2999, 2000, 4000])
    def test_bits_must_fill_the_frames(self, n_vectors):
        bits = np.zeros(2 * n_vectors, dtype=np.uint8)
        with pytest.raises(FramingError):
            txchain.build_transmission(bits, txchain.Chain("sm", 2, 2, txchain.FrameLayout(),
                                                           self.tx_layout))

    def test_bad_bits_refused_when_built(self):
        """The transmission modulates its frames as they are read, but its
        shaping pass reads every frame once: a bit that is not 0 or 1 in the
        last frame, or a 2-D bit array, is refused by build_transmission."""
        chain = txchain.Chain("sm", 2, 2, txchain.FrameLayout(), self.tx_layout)
        bits = np.zeros(2 * 3000, dtype=np.uint8)
        bits[-1] = 2
        with pytest.raises(FramingError, match="only contain 0 and 1"):
            txchain.build_transmission(bits, chain)
        with pytest.raises(DimensionError):
            txchain.build_transmission(np.zeros((2, 3000), dtype=np.uint8), chain)

    def test_unknown_scheme(self):
        c = modem.build_constellation(2)
        with pytest.raises(ConfigurationError):
            modem.modulate(np.zeros(2, dtype=np.uint8), "osm", 2, c)


class TestBlockSource:
    """The transmission stores its frame stream, not samples; segments are built."""

    layout = txchain.FrameLayout()
    tx_layout = txchain.TransmissionLayout(n_frames=2, snr_block_symbols=200)

    def build(self, nt=2, tx_layout=None):
        return random_sm_transmission(self.layout, tx_layout or self.tx_layout, nt=nt)

    @staticmethod
    def reference_samples(tx):
        """The whole transmission written section by section."""
        nt, n = tx.shape
        u = tx.chain.frame_layout.upsample_factor
        lay = tx.chain.transmission_layout
        samples = np.zeros((nt, n), dtype=complex)
        period = (1 + lay.sync_gap_symbols) * u
        samples[0, 0 : lay.sync_pulses * period : period] = 1.0
        start, length = tx.sections["snr"]
        sounding = samples[:, start : start + length].reshape(
            nt, nt, lay.snr_blocks, 2, lay.snr_block_symbols * u)
        sounding[np.arange(nt), np.arange(nt), :, 0] = tx.x_max
        samples[:, tx.sections["data"][0] :] = data_section(tx, whole_stream(tx))
        return samples

    @pytest.mark.parametrize("nt", [1, 2, 4])
    def test_segments_tile_the_transmission(self, nt):
        """Segments cut at any points (inside pulses, sounding blocks and
        the data section, and empty ones) concatenate to the sections."""
        tx = self.build(nt)
        ref = self.reference_samples(tx)
        assert tx.shape == ref.shape and tx.nt == nt
        assert np.array_equal(tx.samples, ref)
        n = tx.shape[1]
        rng = np.random.default_rng(nt)
        for cuts in ([0, n], [0, 1, 203, 204, 205, 4080, 4081, 4880, 4880, n - 39, n],
                     np.unique(np.r_[0, rng.integers(0, n, 40), n])):
            parts = [tx.segment(a, b) for a, b in zip(cuts, cuts[1:])]
            assert np.array_equal(np.concatenate(parts, axis=1), ref)

    def test_segment_outside_refused(self):
        tx = self.build()
        for start, stop in ((-1, 10), (10, 9), (0, tx.shape[1] + 1)):
            with pytest.raises(DimensionError):
                tx.segment(start, stop)

    def test_stores_no_samples(self):
        """A built transmission holds its payload bits, not samples: what it
        keeps after building is the bits' copy and a few small objects, where
        its 4-frame data section alone is 1.2 MB."""
        chain = txchain.Chain("sm", 2, 2, self.layout,
                              txchain.TransmissionLayout(n_frames=4, snr_block_symbols=200))
        bits = np.random.default_rng(5).integers(0, 2, 8000).astype(np.uint8)
        txchain.build_transmission(bits, chain)  # first-call allocations
        tracemalloc.start()
        try:
            tx = txchain.build_transmission(bits, chain)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert tx.samples.shape == tx.shape
        assert held <= bits.nbytes + 2**13
        assert 16 * tx.nt * tx.sections["data"][1] > 1_000_000

    def test_build_and_propagate_peak_is_output_plus_blocks(self):
        """Neither the transmission nor the channel holds more than a few
        blocks: the traced peak of building a transmission and propagating
        it stays within the received array plus three blocks (measured:
        2.15), with no transmit array or data section beside them."""
        chain = txchain.Chain("sm", 2, 2, self.layout,
                              txchain.TransmissionLayout(n_frames=1, snr_block_symbols=5000))
        bits = np.random.default_rng(5).integers(0, 2, 2000).astype(np.uint8)
        h = np.array([[1.0 + 0.1j, 0.35 + 0.2j], [0.1 - 0.4j, 0.9 - 0.05j]])
        tracemalloc.start()
        try:
            tx = txchain.build_transmission(bits, chain)
            rx = channel.propagate_waveform(tx, h, 1e-4, (tx.symbol_scale * 0.03) ** 2,
                                            np.random.default_rng(1)).segment(0, tx.shape[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 16 * channel.SAMPLE_BLOCK  # one complex block of one antenna
        assert rx.shape == tx.shape
        assert peak <= rx.nbytes + 3 * block

    def test_propagating_the_source_equals_its_array(self):
        tx = self.build(tx_layout=txchain.TransmissionLayout(n_frames=1,
                                                             snr_block_symbols=5000))
        h = np.array([[1.0 + 0.1j, 0.35 + 0.2j], [0.1 - 0.4j, 0.9 - 0.05j], [0.2, 0.3j]])
        a = channel.propagate_waveform(tx, h, -3e-4, 0.01, np.random.default_rng(8))
        b = channel.propagate_waveform(tx.samples, h, -3e-4, 0.01, np.random.default_rng(8))
        a, b = (y.segment(0, tx.shape[1]) for y in (a, b))
        assert np.array_equal(a, b)


@pytest.fixture(scope="module", params=[("sm", 4, 4, 4, 40), ("smx", 2, 16, 3, 17)],
                ids=["sm4-qpsk", "smx2-16qam-u3"])
def built_transmission(request):
    """({"bits": built from bits}, the data section as the scaled pulse_shape
    of the whole stream, modulated and framed at once): six frames, a data
    section longer than one ``SAMPLE_BLOCK``."""
    scheme, nt, order, u, n_taps = request.param
    layout = txchain.FrameLayout(data_symbols_per_frame=700, upsample_factor=u,
                                 rrc_num_taps=n_taps)
    chain = txchain.Chain(scheme, nt, order, layout,
                          txchain.TransmissionLayout(n_frames=6, snr_block_symbols=100))
    c = modem.build_constellation(order)
    bits = np.random.default_rng(31).integers(0, 2, chain.payload_bits).astype(np.uint8)
    stream = txchain.build_frame(modem.modulate(bits, scheme, nt, c).reshape(6, 700, nt), layout)
    sources = {"bits": txchain.build_transmission(bits, chain)}
    return sources, data_section(sources["bits"], stream)


class TestShapedOnDemand:
    """Data samples are shaped as they are read, equal to shaping the whole stream."""

    def test_scale_from_the_whole_stream_peak(self, built_transmission):
        sources, whole = built_transmission
        tx = sources["bits"]
        assert np.abs(whole).max() == pytest.approx(tx.x_max, rel=1e-15)
        assert whole.shape[1] == tx.sections["data"][1] > channel.SAMPLE_BLOCK

    @pytest.mark.parametrize("kind", ["bits"])
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_reads_equal_the_scaled_whole_stream_shape(self, built_transmission, kind, data):
        """Reads at any boundaries (runs shorter than the filter, empty ones,
        runs at either end of the data section and runs that start in the
        sounding section) are byte-equal to the same slice of the scaled
        pulse_shape of the whole frame stream."""
        sources, whole = built_transmission
        tx = sources[kind]
        data_start, length = tx.sections["data"]
        taps = tx.chain.frame_layout.rrc_num_taps
        edges = [0, 1, taps - 2, taps - 1, taps, channel.SAMPLE_BLOCK - 1, channel.SAMPLE_BLOCK,
                 length - taps, length - taps + 1, length - 1, length]
        start = data.draw(st.one_of(st.integers(-100, length), st.sampled_from(edges)))
        lo = max(start, 0)
        stop = data.draw(st.one_of(st.integers(lo, min(max(start + 2 * taps, lo), length)),
                                   st.integers(lo, length), st.just(length)))
        part = tx.segment(data_start + start, data_start + stop)
        assert part[:, lo - start :].tobytes() == whole[:, lo:stop].tobytes()


@pytest.fixture(scope="module")
def receive_sources(tmp_path_factory):
    """kind -> (source, its segment(0, n)): the noisy output of a 3x2 channel
    with a carrier offset (13 blocks), taken whole from a second source
    drawn from an equal generator, and the int16 files of a transmission."""
    layout = txchain.FrameLayout()
    tx_layout = txchain.TransmissionLayout(n_frames=1, snr_block_symbols=5000)
    tx = random_sm_transmission(layout, tx_layout)
    h = np.array([[1.0 + 0.1j, 0.35 + 0.2j], [0.1 - 0.4j, 0.9 - 0.05j], [0.2, 0.3j]])

    def received():
        return channel.propagate_waveform(tx, h, -3e-4, 0.01, np.random.default_rng(8))

    folder = tmp_path_factory.mktemp("captures")
    txchain.write_waveform(folder / "cap", tx)
    files = txchain.read_captures([folder / "cap_ant1.bin", folder / "cap_ant2.bin"])
    n = tx.shape[1]
    return {"channel": (received(), received().segment(0, n)),
            "files": (files, files.segment(0, n))}


def segment_bounds(n):
    """(start, stop) pairs, either end drawn anywhere, or at an end or a block
    edge of the channel's grid (whole runs of sqrt(n) samples)."""
    ramp = math.isqrt(n)
    block = channel.SAMPLE_BLOCK // ramp * ramp
    edge = st.sampled_from([0, 1, block - 1, block, block + 1, 5 * block, n - 1, n])
    point = st.one_of(st.integers(0, n), edge)
    return st.tuples(point, point).map(sorted)


class TestReceiveSources:
    """The channel's output and the capture files read as block sources."""

    @pytest.mark.parametrize("kind", ["channel", "files"])
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_any_reads_equal_slices_of_the_whole(self, receive_sources, kind, data):
        """Reads in any order (overlapping, backward, empty, at either end)
        are byte-equal to the same slices of ``segment(0, n)``."""
        source, whole = receive_sources[kind]
        n = source.shape[1]
        assert source.shape == whole.shape and source.size == whole.size
        reads = data.draw(st.lists(segment_bounds(n), min_size=1, max_size=6))
        for start, stop in reads:
            part = source.segment(start, stop)
            assert part.dtype == whole.dtype
            assert part.tobytes() == whole[:, start:stop].tobytes()

    @pytest.mark.parametrize("kind", ["channel", "files"])
    def test_reads_outside_refused(self, receive_sources, kind):
        source, _ = receive_sources[kind]
        n = source.shape[1]
        for start, stop in ((-1, 5), (5, 4), (0, n + 1)):
            with pytest.raises(DimensionError):
                source.segment(start, stop)

    def test_files_closed_after_each_read(self, receive_sources):
        """No file handle outlives a read (an unclosed file warns, and the
        tests turn warnings into errors)."""
        files, whole = receive_sources["files"]
        for _ in range(3):
            assert np.array_equal(files.segment(100, 200), whole[:, 100:200])

    def test_file_cut_after_opening_refused(self, tmp_path):
        codes = np.zeros(2 * 1000, dtype="<i2")
        paths = [tmp_path / "a.bin", tmp_path / "b.bin"]
        for path in paths:
            codes.tofile(path)
        files = txchain.read_captures(paths)
        paths[1].write_bytes(bytes(4 * 600))
        assert files.segment(0, 600).shape == (2, 600)
        with pytest.raises(FramingError, match="b.bin"):
            files.segment(500, 700)


class TestQuantization:
    def test_roundtrip_within_half_lsb(self):
        rng = np.random.default_rng(33)
        w = rng.uniform(-1, 1, 500) + 1j * rng.uniform(-1, 1, 500)
        codes = quantized = txchain.quantize_i16(w)
        assert quantized.dtype == np.int16
        back = txchain.dequantize_i16(codes)
        lsb = 1.0 / txchain.FULL_SCALE
        assert np.max(np.abs(back.real - w.real)) <= 0.5 * lsb
        assert np.max(np.abs(back.imag - w.imag)) <= 0.5 * lsb

    def test_exact_codes(self):
        codes = txchain.quantize_i16(np.array([0.0 + 0j, 1.0 - 1.0j]))
        assert codes.tolist() == [0, 0, 32767, -32767]

    def test_out_of_range_raises(self):
        with pytest.raises(RangeError):
            txchain.quantize_i16(np.array([1.0001 + 0j]))

    @pytest.mark.parametrize("w", [[np.nan, 0.5], [0.5, complex(0.0, np.nan)]])
    def test_nan_raises(self, w):
        with pytest.raises(RangeError):
            txchain.quantize_i16(np.array(w, dtype=complex))

    def test_peak_memory_is_codes_plus_one_block(self):
        """Rounding goes block by block into the codes: besides them the
        call allocates O(SAMPLE_BLOCK), not a full-length float copy."""
        w = np.full(1 << 20, 0.5 - 0.25j)
        tracemalloc.start()
        try:
            codes = txchain.quantize_i16(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_bytes = 2 * channel.SAMPLE_BLOCK * 8  # one block of float64 components
        assert peak <= codes.nbytes + 2 * block_bytes

    def test_odd_buffer_rejected(self):
        with pytest.raises(FramingError):
            txchain.dequantize_i16(np.zeros(5, dtype=np.int16))

    @staticmethod
    def reference_quantize(waveform):
        """Interleave into a float64 buffer, scale, round, cast."""
        w = np.asarray(waveform, dtype=np.complex128).reshape(-1)
        flat = np.empty(2 * w.size)
        flat[0::2] = w.real
        flat[1::2] = w.imag
        return np.round(flat * txchain.FULL_SCALE).astype(np.int16)

    @staticmethod
    def reference_dequantize(codes):
        flat = codes.astype(np.float64) / txchain.FULL_SCALE
        return flat[0::2] + 1j * flat[1::2]

    def test_bit_identical_to_interleave_and_round(self):
        """Full scale, exact half-LSB ties (rounded to even) and a strided
        input give the codes, and the codes give the samples, of the
        explicit interleave-and-round formulas bit for bit."""
        rng = np.random.default_rng(34)
        k = np.arange(-32767, 32767) + 0.5
        ties = k / txchain.FULL_SCALE
        assert np.array_equal(ties * txchain.FULL_SCALE, k)  # every one an exact tie
        half = ties.size // 2
        rows = rng.uniform(-1, 1, (3, 4000)) + 1j * rng.uniform(-1, 1, (3, 4000))
        cases = [
            np.array([1.0 + 1.0j, -1.0 - 1.0j, 1.0 - 1.0j, 0.0 + 0.0j, -0.0 - 0.0j]),
            ties[:half] + 1j * ties[half : 2 * half],
            rows[:, ::3],  # not contiguous
            rows.T,
            # several rounding blocks and a ragged last one
            rng.uniform(-1, 1, 3 * channel.SAMPLE_BLOCK + 5) * (1 - 1j) / 2,
        ]
        for w in cases:
            codes = txchain.quantize_i16(w)
            expected = self.reference_quantize(w)
            assert codes.dtype == np.dtype("<i2") and np.array_equal(codes, expected)
            back = txchain.dequantize_i16(codes)
            assert back.tobytes() == self.reference_dequantize(expected).tobytes()

    def test_dequantize_keeps_leading_axes(self):
        codes = np.arange(-6, 6, dtype=np.int16).reshape(2, 6)
        back = txchain.dequantize_i16(codes)
        assert back.shape == (2, 3)
        for row, c in zip(back, codes):
            assert row.tobytes() == self.reference_dequantize(c).tobytes()


class TestWaveformIo:
    def test_write_read_roundtrip(self, tmp_path):
        layout = txchain.FrameLayout()
        tx_layout = txchain.TransmissionLayout(n_frames=1, snr_block_symbols=50)
        tx = random_sm_transmission(layout, tx_layout)
        # A sidecar carries the transmission's whole chain and its payload size.
        sidecar = txchain.write_waveform(tmp_path / "cap", tx)
        assert sidecar == tmp_path / "cap_meta.json"
        assert (tmp_path / "cap_ant1.bin").exists()
        assert (tmp_path / "cap_ant2.bin").exists()

        meta, chain = txchain.read_sidecar(sidecar)
        assert chain == txchain.Chain("sm", 2, 2, layout, tx_layout)
        captures = txchain.read_captures([tmp_path / name for name in meta["files"]])
        streams = captures.segment(0, captures.shape[1])
        assert meta["schema_version"] == txchain.SIDECAR_SCHEMA_VERSION
        assert meta["nt"] == 2
        assert meta["n_bits"] == chain.payload_bits == 2000
        assert meta["symbol_scale"] == tx.symbol_scale
        assert meta["sections"]["data"] == list(tx.sections["data"])
        assert meta["frame_layout"]["data_symbols_per_frame"] == 1000
        lsb = 1.0 / txchain.FULL_SCALE
        assert np.max(np.abs(streams - tx.samples)) <= 0.5 * lsb * np.sqrt(2)

    def test_read_captures_stacks_files(self, tmp_path):
        codes = np.arange(-40, 40, dtype="<i2").reshape(2, 40)
        paths = [tmp_path / "a.bin", tmp_path / "b.bin"]
        for row, path in zip(codes, paths):
            row.tofile(path)
        streams = txchain.read_captures(paths)
        assert streams.shape == (2, 20)
        assert np.array_equal(streams.segment(0, 20), txchain.dequantize_i16(codes))

    def test_files_are_the_quantized_samples(self, tmp_path):
        """Written block by block, each antenna file holds the codes of its
        whole row."""
        layout = txchain.FrameLayout()
        tx_layout = txchain.TransmissionLayout(n_frames=2, snr_block_symbols=5000)
        tx = random_sm_transmission(layout, tx_layout)
        txchain.write_waveform(tmp_path / "cap", tx)
        for t, row in enumerate(tx.samples):
            assert (tmp_path / f"cap_ant{t + 1}.bin").read_bytes() == \
                txchain.quantize_i16(row).tobytes()

    @pytest.mark.parametrize("n_bytes", [1, 2, 9, 4 * channel.SAMPLE_BLOCK + 6])
    def test_read_captures_partial_pair_rejected(self, tmp_path, n_bytes):
        """A trailing part of an I,Q pair is refused by file name, not dropped."""
        good, cut = tmp_path / "good.bin", tmp_path / "cut.bin"
        good.write_bytes(bytes(n_bytes - n_bytes % 4))
        cut.write_bytes(bytes(n_bytes))
        with pytest.raises(FramingError, match="cut.bin"):
            txchain.read_captures([good, cut])

    def test_read_captures_spans_blocks(self, tmp_path):
        codes = np.random.default_rng(3).integers(
            -32767, 32768, (2, 2 * (2 * channel.SAMPLE_BLOCK + 77))).astype("<i2")
        paths = [tmp_path / "a.bin", tmp_path / "b.bin"]
        for row, path in zip(codes, paths):
            row.tofile(path)
        captures = txchain.read_captures(paths)
        assert np.array_equal(captures.segment(0, captures.shape[1]),
                              txchain.dequantize_i16(codes))

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            result = call()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def encode(self, tmp_path, snr_block_symbols):
        """``cli encode`` of one SM/BPSK frame; returns its traced peak and file prefix."""
        out = tmp_path / str(snr_block_symbols)
        out.mkdir()
        config = {"scheme": "sm", "nt": 2, "modulation_order": 2,
                  "transmission_layout": {"n_frames": 1,
                                          "snr_block_symbols": snr_block_symbols}}
        (out / "c.json").write_text(json.dumps(config))
        np.packbits(np.random.default_rng(5).integers(0, 2, 2000).astype(np.uint8)).tofile(
            out / "tx.bits")
        argv = ["encode", "--config", str(out / "c.json"), "--bits", str(out / "tx.bits"),
                "--out", str(out / "cap")]
        with contextlib.redirect_stdout(io.StringIO()):
            code, peak = self.traced_peak(lambda: cli.main(argv))
        assert code == 0
        return peak, out / "cap"

    def test_encode_and_read_peaks_do_not_grow_with_the_sounding_section(self, tmp_path):
        """Doubling the sounding section adds 6.4 MB of samples per
        antenna, but neither ``cli encode`` nor ``read_captures`` beyond
        its output holds more than before: both work one block at a time.
        The read peak does not move (the bound allows 64 KiB). The encode
        peak is set by the block that holds the data section, shaped as
        it is written, and that block's length depends on where the
        sections fall on the block grid, so it may move by up to one
        block of one antenna (measured: 0.22 MB, against 12.8 MB added)."""
        self.encode(tmp_path, 50)  # first-call allocations
        peaks = {}
        for symbols in (5000, 10000):
            encode_peak, prefix = self.encode(tmp_path, symbols)
            paths = [f"{prefix}_ant1.bin", f"{prefix}_ant2.bin"]
            captures = txchain.read_captures(paths)
            streams, read_peak = self.traced_peak(lambda: captures.segment(0, captures.shape[1]))
            peaks[symbols] = encode_peak, read_peak - streams.nbytes
        (encode_before, read_before), (encode_after, read_after) = peaks[5000], peaks[10000]
        assert encode_after <= encode_before + 16 * channel.SAMPLE_BLOCK
        assert read_after <= read_before + 2**16

    def test_decode_peak_is_about_one_capture_file(self, tmp_path):
        """``cli decode`` reads the capture files a segment at a time and
        the SNR probe reads its blocks a ``SAMPLE_BLOCK`` at a time, so
        neither a capture-length array nor a sounding block is formed: the
        traced peak stays under three blocks of one antenna's samples, less
        than one antenna's 1.65 MB file (measured: 2.1 blocks; 3.8 with a
        sounding on/off pair and its centred copy held, 26 with the files
        read into one array)."""
        _, prefix = self.encode(tmp_path, 5000)
        argv = ["decode", "--capture", f"{prefix}_ant1.bin", f"{prefix}_ant2.bin",
                "--meta", f"{prefix}_meta.json", "--out", str(tmp_path / "rx.bits"),
                "--report", str(tmp_path / "report.json")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0  # first-call allocations
            code, peak = self.traced_peak(lambda: cli.main(argv))
        assert code == 0
        assert peak <= 3 * 16 * channel.SAMPLE_BLOCK

    def test_read_captures_unequal_lengths_rejected(self, tmp_path):
        np.zeros(40, dtype="<i2").tofile(tmp_path / "a.bin")
        np.zeros(38, dtype="<i2").tofile(tmp_path / "b.bin")
        with pytest.raises(ConfigurationError, match="20, 19"):
            txchain.read_captures([tmp_path / "a.bin", tmp_path / "b.bin"])
        with pytest.raises(ConfigurationError):
            txchain.read_captures([])

    def test_unknown_schema_rejected(self, tmp_path):
        layout = txchain.FrameLayout()
        tx_layout = txchain.TransmissionLayout(n_frames=1, snr_block_symbols=50)
        tx = random_sm_transmission(layout, tx_layout)
        sidecar = txchain.write_waveform(tmp_path / "cap", tx)
        meta = json.loads(sidecar.read_text())
        meta["schema_version"] = "0"
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ConfigurationError):
            txchain.read_sidecar(sidecar)


def callers(name):
    """{(module, top-level class or function)} of every call of ``name`` in the package."""
    found = set()
    for path in Path(txchain.__file__).parent.glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and name == getattr(
                        node.func, "attr", getattr(node.func, "id", None)):
                    found.add((path.stem, getattr(top, "name", None)))
    return found


def test_one_transmission_builder_and_one_chain_check():
    """A transmission is built only by ``build_transmission`` through
    ``assemble_transmission``, and scheme, nt and order are checked only
    where a link or chain is described (``Link``, ``Chain``, ``BoundConfig``)
    and inside ``modem``: both ends of the chain take the checked ``Chain``."""
    assert callers("TransmissionVector") == {("txchain", "assemble_transmission")}
    assert callers("assemble_transmission") == {("txchain", "build_transmission")}
    assert {scope for module, scope in callers("bits_per_vector") if module != "modem"} == {
        "Link", "Chain", "BoundConfig"}
    assert "assemble_transmission" not in txchain.__all__
