"""Tests for frame assembly, pulse shaping and the I16 capture format."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from smlink import modem, txchain
from smlink.errors import (
    ConfigurationError,
    DegenerateInputError,
    DimensionError,
    FramingError,
    RangeError,
)


def random_bpsk_frames(layout, tx_layout, nt=2, seed=0):
    """The (nt, n_frames * frame_symbols) stream of random SM/BPSK frames."""
    n = tx_layout.n_frames * layout.data_symbols_per_frame
    bits = np.random.default_rng(seed).integers(
        0, 2, modem.bits_per_vector("sm", nt, 2) * n).astype(np.uint8)
    vectors = modem.modulate(bits, "sm", nt, modem.build_constellation(2))
    return txchain.build_frame(vectors.reshape(tx_layout.n_frames, -1, nt), layout)


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

    def test_coherence_budget_guard(self):
        with pytest.raises(ConfigurationError):
            txchain.FrameLayout(data_symbols_per_frame=20_000)

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

    def test_package_import_leaves_scipy_signal_out(self):
        """Shaping runs on numpy alone: importing scipy.signal (for
        ``upfirdn``, say) costs about a second over ``import smlink``."""
        src = Path(txchain.__file__).resolve().parents[1]
        code = "import sys, smlink, smlink.cli; print('scipy.signal' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        assert out.stdout.strip() == "False"


class TestAssembleTransmission:
    layout = txchain.FrameLayout()
    tx_layout = txchain.TransmissionLayout(n_frames=2, snr_block_symbols=200)

    def build(self):
        stream = random_bpsk_frames(self.layout, self.tx_layout)
        return txchain.assemble_transmission(stream, self.layout, self.tx_layout)

    def test_section_bookkeeping(self):
        tx = self.build()
        u = self.layout.upsample_factor
        sync_len = self.tx_layout.sync_samples(u)
        snr_len = self.tx_layout.snr_samples(2, u)
        assert tx.sections["sync"] == (0, sync_len)
        assert tx.sections["snr"] == (sync_len, snr_len)
        data_start, data_len = tx.sections["data"]
        assert data_start == sync_len + snr_len
        assert data_len == 2 * self.layout.frame_symbols * u + 39
        assert tx.samples.shape == (2, sync_len + snr_len + data_len)

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
        stream = random_bpsk_frames(self.layout, tx_layout)
        tx = txchain.assemble_transmission(stream, self.layout, tx_layout)
        assert tx.symbol_scale == 0.0
        assert tx.x_max == 0.0
        start, _ = tx.sections["data"]
        assert not tx.samples[:, start:].any()

    def test_overscale_raises(self):
        tx_layout = txchain.TransmissionLayout(
            n_frames=1, snr_block_symbols=50, power_factor=1.5
        )
        stream = random_bpsk_frames(self.layout, tx_layout)
        with pytest.raises(RangeError):
            txchain.assemble_transmission(stream, self.layout, tx_layout)

    def test_all_zero_frames_rejected(self):
        tx_layout = txchain.TransmissionLayout(n_frames=1, snr_block_symbols=50)
        silent = np.zeros((2, self.layout.frame_symbols), dtype=complex)
        with pytest.raises(DegenerateInputError):
            txchain.assemble_transmission(silent, self.layout, tx_layout)

    def test_frame_count_mismatch(self):
        stream = random_bpsk_frames(self.layout, self.tx_layout)
        for wrong in (stream[:, : self.layout.frame_symbols], stream[:, :-1], stream[0]):
            with pytest.raises(FramingError):
                txchain.assemble_transmission(wrong, self.layout, self.tx_layout)


class TestBuildTransmission:
    tx_layout = txchain.TransmissionLayout(n_frames=3, snr_block_symbols=200)

    @staticmethod
    def per_frame_loop(bits, scheme, nt, c, layout, tx_layout):
        """Reference: modulate and frame each bit chunk on its own."""
        per_frame = modem.bits_per_vector(scheme, nt, c.order) * layout.data_symbols_per_frame
        streams = []
        for f in range(tx_layout.n_frames):
            chunk = bits[f * per_frame : (f + 1) * per_frame]
            if scheme == "sm":
                _, vectors = modem.sm_modulate(chunk, nt, c)
            else:
                vectors = modem.smx_modulate(chunk, nt, c)
            streams.append(txchain.build_frame(vectors[None], layout))
        return txchain.assemble_transmission(np.concatenate(streams, axis=1), layout, tx_layout)

    @pytest.mark.parametrize("scheme,nt,order,data_symbols", [
        ("sm", 2, 2, 1000), ("sm", 4, 4, 1000), ("smx", 4, 16, 500),
    ])
    def test_matches_per_frame_loop(self, scheme, nt, order, data_symbols):
        c = modem.build_constellation(order)
        layout = txchain.FrameLayout(data_symbols_per_frame=data_symbols)
        n_bits = modem.bits_per_vector(scheme, nt, order) * data_symbols * 3
        bits = np.random.default_rng(17).integers(0, 2, n_bits).astype(np.uint8)
        tx = txchain.build_transmission(bits, scheme, nt, c, layout, self.tx_layout)
        ref = self.per_frame_loop(bits, scheme, nt, c, layout, self.tx_layout)
        assert np.array_equal(tx.samples, ref.samples)
        assert tx.sections == ref.sections
        assert tx.symbol_scale == ref.symbol_scale

    @pytest.mark.parametrize("n_vectors", [2999, 2000, 4000])
    def test_bits_must_fill_the_frames(self, n_vectors):
        c = modem.build_constellation(2)
        bits = np.zeros(2 * n_vectors, dtype=np.uint8)
        with pytest.raises(FramingError):
            txchain.build_transmission(
                bits, "sm", 2, c, txchain.FrameLayout(), self.tx_layout
            )

    def test_unknown_scheme(self):
        c = modem.build_constellation(2)
        with pytest.raises(ConfigurationError):
            modem.modulate(np.zeros(2, dtype=np.uint8), "osm", 2, c)


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
        tx = txchain.assemble_transmission(random_bpsk_frames(layout, tx_layout), layout,
                                           tx_layout)
        sidecar = txchain.write_waveform(tmp_path / "cap", tx,
                                         extra_meta={"note": "loopback"})
        assert sidecar == tmp_path / "cap_meta.json"
        assert (tmp_path / "cap_ant1.bin").exists()
        assert (tmp_path / "cap_ant2.bin").exists()

        streams, meta = txchain.read_waveform(sidecar)
        assert meta["schema_version"] == txchain.SIDECAR_SCHEMA_VERSION
        assert meta["nt"] == 2
        assert meta["note"] == "loopback"
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
        assert np.array_equal(streams, txchain.dequantize_i16(codes))

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
        tx = txchain.assemble_transmission(random_bpsk_frames(layout, tx_layout), layout,
                                           tx_layout)
        sidecar = txchain.write_waveform(tmp_path / "cap", tx)
        meta = json.loads(sidecar.read_text())
        meta["schema_version"] = "0"
        sidecar.write_text(json.dumps(meta))
        with pytest.raises(ConfigurationError):
            txchain.read_waveform(sidecar)
