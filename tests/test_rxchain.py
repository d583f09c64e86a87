"""Tests for the receive pipeline: sync, SNR, FO, LS estimate, decode."""

import numpy as np
import pytest

from smlink import channel, modem, rxchain, txchain
from smlink.errors import (
    ConfigurationError,
    DegenerateInputError,
    DimensionError,
)
from smlink.errors import SyncRejection


@pytest.fixture(scope="module")
def loopback():
    """Two-frame SM/BPSK transmission plus a fixed 2x2 channel."""
    layout = txchain.FrameLayout()
    tx_layout = txchain.TransmissionLayout(n_frames=2, snr_block_symbols=200)
    rng = np.random.default_rng(77)
    c = modem.build_constellation(2)
    bits = rng.integers(0, 2, 2 * 2 * layout.data_symbols_per_frame).astype(np.uint8)
    tx = txchain.build_transmission(bits, "sm", 2, c, layout, tx_layout)
    h = np.array([[1.0 + 0.1j, 0.35 + 0.2j], [0.1 - 0.4j, 0.9 - 0.05j]])
    return layout, tx_layout, c, bits, tx, h


class TestDetectSync:
    def test_loopback_pulse_grid(self, loopback):
        layout, tx_layout, _, _, tx, _ = loopback
        u = layout.upsample_factor
        period = (1 + tx_layout.sync_gap_symbols) * u
        combined = np.sqrt(np.sum(np.abs(tx.samples) ** 2, axis=0))
        res = rxchain.detect_sync(combined, period)
        assert res.peak_indices.tolist() == list(range(0, 20 * period, period))
        assert res.tx_start_index == 0
        assert res.data_start_index == 0

    def test_scale_invariance(self, loopback):
        layout, tx_layout, _, _, tx, _ = loopback
        period = (1 + tx_layout.sync_gap_symbols) * layout.upsample_factor
        combined = np.sqrt(np.sum(np.abs(tx.samples) ** 2, axis=0))
        a = rxchain.detect_sync(combined, period)
        b = rxchain.detect_sync(0.3 * combined, period)
        assert np.array_equal(a.peak_indices, b.peak_indices)
        assert a.tx_start_index == b.tx_start_index

    def test_offset_capture(self, loopback):
        layout, tx_layout, _, _, tx, _ = loopback
        period = (1 + tx_layout.sync_gap_symbols) * layout.upsample_factor
        combined = np.sqrt(np.sum(np.abs(tx.samples) ** 2, axis=0))
        padded = np.concatenate([np.zeros(137), combined])
        res = rxchain.detect_sync(padded, period, data_offset_samples=10)
        assert res.tx_start_index == 137
        assert res.data_start_index == 147

    def test_missing_pulse_rejects(self, loopback):
        layout, tx_layout, _, _, tx, _ = loopback
        period = (1 + tx_layout.sync_gap_symbols) * layout.upsample_factor
        combined = np.sqrt(np.sum(np.abs(tx.samples) ** 2, axis=0)).copy()
        combined[19 * period] = 0.0  # kill the last pulse
        with pytest.raises(SyncRejection):
            rxchain.detect_sync(combined, period)

    def test_lone_spike_rejects(self):
        capture = np.zeros(50_000)
        capture[1234] = 1.0
        with pytest.raises(SyncRejection):
            rxchain.detect_sync(capture, 204)

    def test_all_zero_rejects(self):
        with pytest.raises(SyncRejection):
            rxchain.detect_sync(np.zeros(1000), 204)


class TestEstimateSnr:
    def build_section(self, h, snr_db, rng, nt=2, blocks=5, block_len=4000,
                      x_max=0.09):
        """On/off sounding section whose configured SNR is exact."""
        nr = h.shape[0]
        noise_var = x_max**2 * np.sum(np.abs(h) ** 2) / (
            nt * nr * 10.0 ** (snr_db / 10.0)
        )
        n = nt * 2 * blocks * block_len
        y = np.sqrt(noise_var / 2.0) * (
            rng.standard_normal((nr, n)) + 1j * rng.standard_normal((nr, n))
        )
        for t in range(nt):
            base = t * 2 * blocks * block_len
            for b in range(blocks):
                start = base + 2 * b * block_len
                y[:, start : start + block_len] += x_max * h[:, t : t + 1]
        return y, noise_var

    def test_tracks_ground_truth(self):
        rng = np.random.default_rng(3)
        h = np.array([[1.0 + 0.2j, 0.8 - 0.1j], [0.4 + 0.5j, 1.1 + 0.0j]])
        for snr_db in (0.0, 15.0, 30.0):
            y, _ = self.build_section(h, snr_db, rng)
            est = rxchain.estimate_snr(y, 2, 5, 4000)
            assert est.valid
            assert est.per_antenna_per_block.shape == (2, 5)
            assert abs(est.snr_db - snr_db) <= 0.5

    def test_receive_dc_offset_cancels(self):
        """A constant receive offset leaves the estimate unchanged: each
        block's off-section mean is removed from its on samples too."""
        rng = np.random.default_rng(0)
        nr, nt, blocks, block_len = 2, 2, 20, 10_000
        shape = (nr, nt, blocks, 2, block_len)
        y = 0.1 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        y[:, :, :, 0, :] += 1.0 + 0.5j
        y = y.reshape(nr, -1)
        # signal 2 * |1 + 0.5j|^2 = 2.5 over nr * complex noise variance 0.02
        truth_db = 10.0 * np.log10(2.5 / (nr * 0.02))
        clean = rxchain.estimate_snr(y, nt, blocks, block_len)
        offset = rxchain.estimate_snr(y + (5.0 - 3.0j), nt, blocks, block_len)
        assert clean.snr_db == pytest.approx(truth_db, abs=0.05)
        assert offset.snr_db == pytest.approx(clean.snr_db, abs=1e-9)

    def test_noiseless_is_flagged_invalid(self):
        """Silent off-blocks saturate the probe: +inf sentinel, valid=False."""
        h = np.eye(2, dtype=complex)
        block = 4000
        y = np.zeros((2, 2 * 2 * 5 * block), dtype=complex)
        for t in range(2):
            base = t * 2 * 5 * block
            for b in range(5):
                start = base + 2 * b * block
                y[:, start : start + block] = 0.09 * h[:, t : t + 1]
        est = rxchain.estimate_snr(y, 2, 5, block)
        assert not est.valid
        assert est.snr_db == np.inf

    def test_all_zero_section_rejected(self):
        with pytest.raises(DegenerateInputError):
            rxchain.estimate_snr(np.zeros((2, 80_000), dtype=complex), 2, 5, 4000)

    def test_short_section_rejected(self):
        with pytest.raises(DimensionError):
            rxchain.estimate_snr(np.ones((2, 100), dtype=complex), 2, 5, 4000)


class TestMatchedFilter:
    def test_impulse_recovers_unit_symbol(self):
        taps = txchain.rrc_taps()
        shaped = txchain.pulse_shape(np.array([[1.0 + 0j]]), taps, 4)
        sym = rxchain.matched_filter_downsample(shaped, taps, 4, n_symbols=1)
        assert sym.shape == (1, 1)
        assert sym[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_bpsk_block_loopback(self):
        rng = np.random.default_rng(2)
        taps = txchain.rrc_taps()
        symbols = rng.choice([1.0, -1.0], size=(1, 80)).astype(complex)
        shaped = txchain.pulse_shape(symbols, taps, 4)
        out = rxchain.matched_filter_downsample(shaped, taps, 4, n_symbols=80)
        assert np.max(np.abs(out - symbols)) <= 0.02  # residual ISI only

    def test_zero_in_zero_out(self):
        taps = txchain.rrc_taps()
        out = rxchain.matched_filter_downsample(
            np.zeros((2, 200), dtype=complex), taps, 4
        )
        assert not out.any()

    def test_short_input_rejected(self):
        taps = txchain.rrc_taps()
        with pytest.raises(DimensionError):
            rxchain.matched_filter_downsample(np.ones((1, 10), dtype=complex), taps, 4)

    @pytest.mark.parametrize("n_symbols", [None, 5, 14, 30])
    def test_stack_matches_full_convolution(self, n_symbols):
        """Each stream of an (..., n) stack is its full convolution at the
        symbol instants, zero-extended past the end."""
        rng = np.random.default_rng(8)
        taps = txchain.rrc_taps()
        x = rng.standard_normal((2, 3, 57)) + 1j * rng.standard_normal((2, 3, 57))
        out = rxchain.matched_filter_downsample(x, taps, 4, n_symbols)
        ref = np.array([[np.convolve(row, taps)[39::4] for row in block] for block in x])
        ref = ref[..., :n_symbols]
        assert out.shape == ref.shape
        assert np.max(np.abs(out - ref)) < 1e-13


class TestFoEstimation:
    @staticmethod
    def tones(deltas, n, gains):
        """(len(gains), len(deltas), n) stack: frame f carries tone deltas[f]."""
        ramp = np.exp(2j * np.pi * np.asarray(deltas)[:, None] * np.arange(n))
        return np.asarray(gains)[:, None, None] * ramp

    def test_pure_ramp_is_exact(self):
        est = rxchain.estimate_fo(self.tones([0.003], 1000, gains=[1.0]))
        assert est.shape == (1,)
        assert est[0] == pytest.approx(0.003, abs=1e-12)

    def test_phase_wrap_handled(self):
        """Tones whose phase crosses +-pi, up to +-0.49 cycles/symbol,
        come back exact, on one antenna and on two with unequal gains."""
        deltas = np.array([0.003, -0.2, 0.35, 0.49, -0.49])
        for gains in ([0.7 * np.exp(2.9j)], [0.2 - 0.9j, 0.05 + 0.01j]):
            est = rxchain.estimate_fo(self.tones(deltas, 976, gains))
            assert np.max(np.abs(est - deltas)) < 1e-12

    def test_constant_input_is_zero(self):
        assert np.array_equal(rxchain.estimate_fo(np.full((2, 3, 100), 0.3 + 0.4j)),
                              np.zeros(3))

    def test_all_zero_stack_gives_zero(self):
        """No curvature anywhere: every Newton step is skipped, nothing raises."""
        assert np.array_equal(rxchain.estimate_fo(np.zeros((2, 4, 976), dtype=complex)),
                              np.zeros(4))

    def test_stack_gives_one_offset_per_frame(self):
        rng = np.random.default_rng(8)
        deltas = np.array([0.001, -0.02, 0.3, 0.0, 0.1, -0.25])
        x = self.tones(deltas, 400, rng.standard_normal(3) + 1j * rng.standard_normal(3))
        est = rxchain.estimate_fo(x)
        assert est.shape == (6,)
        assert np.max(np.abs(est - deltas)) < 1e-12
        singles = [rxchain.estimate_fo(x[:, f : f + 1])[0] for f in range(6)]
        assert np.max(np.abs(est - singles)) < 1e-15

    @pytest.mark.parametrize("noise_only_antennas", [0, 1])
    def test_mean_square_error_near_cramer_rao_bound(self, noise_only_antennas):
        """200 preambles of 976 symbols at 10 dB: the MSE stays within 2x
        of var >= 6 / ((2 pi)^2 SNR N (N^2 - 1)) (Rife & Boorstyn 1974),
        also when an antenna that sees only noise joins the sum."""
        rng = np.random.default_rng(2024)
        n, frames, snr = 976, 200, 10.0
        deltas = rng.uniform(-0.5, 0.5, frames)
        x = self.tones(deltas, n, [1.0] + [0.0] * noise_only_antennas)
        x = x * np.exp(2j * np.pi * rng.uniform(size=(frames, 1)))
        x += np.sqrt(0.5 / snr) * (rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape))
        err = (rxchain.estimate_fo(x) - deltas + 0.5) % 1.0 - 0.5
        crb = 6.0 / ((2 * np.pi) ** 2 * snr * n * (n**2 - 1))
        assert np.mean(err**2) <= 2.0 * crb

    def test_correct_fo_per_frame_offsets_from_a_start_index(self):
        """One offset per run of ``frame_len`` samples rotates each run by
        its own ramp, counted from ``first_index``; the last offset also
        covers the samples past the last whole run."""
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 230)) + 1j * rng.standard_normal((2, 230))
        delta = np.array([0.002, -0.004])
        per_sample = delta[np.minimum(np.arange(230) // 100, 1)]
        rotated = x * np.exp(2j * np.pi * per_sample * (37 + np.arange(230)))
        assert np.max(np.abs(rxchain.correct_fo(rotated, delta, 37, 100) - x)) < 1e-12

    def test_correct_fo_runs_must_fit(self):
        x = np.ones((2, 230), dtype=complex)
        with pytest.raises(DimensionError):
            rxchain.correct_fo(x, [0.1, 0.2, 0.3], 0, 100)
        with pytest.raises(DimensionError):
            rxchain.correct_fo(x, [0.1, 0.2])

    def test_correct_fo_inverts_ramp(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 300)) + 1j * rng.standard_normal((2, 300))
        delta = 0.0123
        ramp = np.exp(2j * np.pi * delta * np.arange(300))
        assert np.max(np.abs(rxchain.correct_fo(x * ramp, delta) - x)) < 1e-12
        assert np.array_equal(rxchain.correct_fo(x, 0.0), x)
        both = rxchain.correct_fo(rxchain.correct_fo(x, 0.01), -0.01)
        assert np.max(np.abs(both - x)) < 1e-12


class TestLsChannelEstimate:
    pilots = txchain.pilot_matrix(2, 10)

    def pilot_stream(self, n_seq=10):
        return np.tile(self.pilots.T, (1, n_seq))  # (nt, n_seq * 10)

    def test_noiseless_exact(self):
        rng = np.random.default_rng(4)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        y = h @ self.pilot_stream()
        est = rxchain.ls_channel_estimate(y, self.pilots)
        assert est.shape == (2, 2)
        assert np.max(np.abs(est - h)) < 1e-10

    def test_batch_matches_single_calls(self):
        """A (frames, signals, nr, n) stack gives each block's own estimate."""
        rng = np.random.default_rng(5)
        y = rng.standard_normal((3, 2, 2, 100)) + 1j * rng.standard_normal((3, 2, 2, 100))
        gain = np.array([0.9 + 0.1j, 1.1])
        est = rxchain.ls_channel_estimate(y, self.pilots, gain)
        assert est.shape == (3, 2, 2, 2)
        for f in range(3):
            for k in range(2):
                single = rxchain.ls_channel_estimate(y[f, k], self.pilots, gain)
                assert np.array_equal(est[f, k], single)

    @staticmethod
    def per_sequence_reference(y, theta):
        """(1/n_theta) Theta^H Y per sequence, averaged over the interior ones."""
        n_theta = theta.shape[0]
        n_seq = y.shape[1] // n_theta
        seqs = range(1, n_seq - 1) if n_seq >= 3 else range(n_seq)
        parts = [theta.conj().T @ y[:, s * n_theta : (s + 1) * n_theta].T / n_theta
                 for s in seqs]
        return np.mean(parts, axis=0).T

    @pytest.mark.parametrize("nt,n_theta", [(2, 10), (4, 10), (8, 16)])
    @pytest.mark.parametrize("n_seq", [1, 2, 3, 10])
    def test_matches_per_sequence_loop(self, nt, n_theta, n_seq):
        rng = np.random.default_rng(n_seq * 100 + nt)
        theta = txchain.pilot_matrix(nt, n_theta)
        y = rng.standard_normal((3, n_seq * n_theta)) + 1j * rng.standard_normal(
            (3, n_seq * n_theta))
        est = rxchain.ls_channel_estimate(y, theta)
        ref = self.per_sequence_reference(y, theta)
        assert np.max(np.abs(est - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_zero_block_gives_zero(self):
        est = rxchain.ls_channel_estimate(
            np.zeros((2, 100), dtype=complex), self.pilots
        )
        assert not est.any()

    def test_gain_divides_per_antenna(self):
        rng = np.random.default_rng(9)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        y = h @ self.pilot_stream()
        plain = rxchain.ls_channel_estimate(y, self.pilots)
        gained = rxchain.ls_channel_estimate(y, self.pilots, gain=np.array([2.0, 4.0]))
        assert np.allclose(gained, plain / np.array([2.0, 4.0])[None, :])

    def test_noise_averaging_gain(self):
        """Estimator noise variance is sigma^2 / (n_theta * n_interior)."""
        rng = np.random.default_rng(11)
        h = np.eye(2, dtype=complex)
        x = self.pilot_stream()
        noise_var = 0.01
        sq = 0.0
        trials = 3000
        for _ in range(trials):
            noise = np.sqrt(noise_var / 2) * (
                rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
            )
            est = rxchain.ls_channel_estimate(h @ x + noise, self.pilots)
            sq += np.mean(np.abs(est - h) ** 2)
        expected = noise_var / (10 * 8)  # 10-long sequences, 8 interior ones
        assert sq / trials == pytest.approx(expected, rel=0.2)

    def test_non_orthogonal_pilots_rejected(self):
        with pytest.raises(ConfigurationError):
            rxchain.ls_channel_estimate(
                np.ones((2, 10), dtype=complex), np.ones((10, 2), dtype=complex)
            )

    def test_partial_sequence_rejected(self):
        with pytest.raises(DimensionError):
            rxchain.ls_channel_estimate(
                np.ones((2, 15), dtype=complex), self.pilots
            )
        with pytest.raises(DimensionError):
            rxchain.ls_channel_estimate(np.ones((2, 0), dtype=complex), self.pilots)


class TestDemodulateFrame:
    def test_sm_roundtrip_with_split_channels(self):
        rng = np.random.default_rng(13)
        c = modem.build_constellation(2)
        bits = rng.integers(0, 2, 2 * 200).astype(np.uint8)
        _, vectors = modem.sm_modulate(bits, 2, c)
        h1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        y = np.concatenate(
            [vectors[:100] @ h1.T, vectors[100:] @ h2.T], axis=0
        ).T
        out = rxchain.demodulate_frame(y, h1, h2, "sm", c)
        assert np.array_equal(out, bits)

    def test_smx_roundtrip(self):
        rng = np.random.default_rng(14)
        c = modem.build_constellation(4)
        bits = rng.integers(0, 2, 4 * 100).astype(np.uint8)
        vectors = modem.smx_modulate(bits, 2, c)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        out = rxchain.demodulate_frame((vectors @ h.T).T, h, h, "smx", c)
        assert np.array_equal(out, bits)

    def test_smx_candidates_built_once_per_call(self, monkeypatch):
        calls = []
        build = modem.candidate_vectors

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(modem, "candidate_vectors", counting)
        c = modem.build_constellation(2)
        y = np.ones((2, 10), dtype=complex)
        rxchain.demodulate_frame(y, np.eye(2), np.eye(2), "smx", c)
        assert len(calls) == 1


class TestDecodeTransmission:
    def decode(self, loopback, fo=0.0):
        layout, tx_layout, c, bits, tx, h = loopback
        rx = channel.propagate_waveform(tx.samples, h, fo_cycles_per_sample=fo)
        result = rxchain.decode_transmission(
            rx, layout, tx_layout, 2, "sm", c, symbol_scale=tx.symbol_scale
        )
        return bits, h, result

    def test_clean_loopback(self, loopback):
        bits, h, result = self.decode(loopback)
        assert np.array_equal(result.bits, bits)
        assert np.max(np.abs(result.fo_cycles_per_sample)) <= 1e-9
        assert result.channel_estimates.shape == (2, 2, 2, 2)
        assert np.max(np.abs(result.channel_estimates - h)) <= 1e-6
        assert not result.snr.valid  # noiseless capture saturates the probe
        assert result.snr.snr_db == np.inf

    def test_offset_loopback(self, loopback):
        fo = 0.005
        bits, h, result = self.decode(loopback, fo=fo)
        assert np.array_equal(result.bits, bits)
        assert np.max(np.abs(result.fo_cycles_per_sample - fo)) <= 1e-9
        assert np.max(np.abs(result.channel_estimates - h)) <= 1e-6

    @pytest.mark.parametrize("fo", [1e-3, 5e-3])
    def test_offset_with_close_channel_columns(self, loopback, fo):
        """Carrier offset leaves no intersymbol interference on the data.

        The columns of this line-of-sight-like channel are only 0.027
        apart, so interference from a receive filter that the offset has
        rotated flips the antenna-index bit. At 60 dB every bit is right.
        """
        layout, tx_layout, c, bits, tx, _ = loopback
        h = np.array([[1.0 + 0.01j, 1.012 - 0.008j], [1.03 - 0.005j, 1.041 + 0.006j]])
        assert np.linalg.norm(h[:, 0] - h[:, 1]) == pytest.approx(0.0266, abs=1e-3)
        rng = np.random.default_rng(31)
        noise_var = tx.symbol_scale**2 * 10.0 ** (-60 / 10)
        rx = channel.propagate_waveform(tx.samples, h, fo, noise_var, rng)
        result = rxchain.decode_transmission(
            rx, layout, tx_layout, 2, "sm", c, symbol_scale=tx.symbol_scale
        )
        assert np.count_nonzero(result.bits != bits) == 0

    def test_dead_receive_antenna_left_out_of_offset_estimate(self, loopback):
        """A receive antenna with an all-zero preamble adds nothing to the
        summed periodogram, so the offset comes from the other one."""
        layout, tx_layout, c, bits, tx, _ = loopback
        h = np.array([[1.0 + 0.1j, 0.35 + 0.2j], [0.0, 0.0]])
        rx = channel.propagate_waveform(tx.samples, h, fo_cycles_per_sample=2e-3)
        result = rxchain.decode_transmission(
            rx, layout, tx_layout, 2, "sm", c, symbol_scale=tx.symbol_scale
        )
        assert np.array_equal(result.bits, bits)
        assert np.max(np.abs(result.fo_cycles_per_sample - 2e-3)) <= 1e-9

    @pytest.mark.parametrize("seed", [0, 1])
    def test_noise_only_antenna_decodes_at_true_offset_ber(self, monkeypatch, seed):
        """H = I at 10 dB: the preamble leaves transmit antenna 1 only, so
        receive antenna 2 sees noise alone during it. The decode still
        loses nothing to a decode handed the true offset (0)."""
        layout = txchain.FrameLayout()
        tx_layout = txchain.TransmissionLayout(n_frames=10, snr_block_symbols=200)
        c = modem.build_constellation(2)
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, 2 * 10 * layout.data_symbols_per_frame, dtype=np.uint8)
        tx = txchain.build_transmission(bits, "sm", 2, c, layout, tx_layout)
        rx = channel.propagate_waveform(tx.samples, np.eye(2), 0.0,
                                        0.1 * tx.symbol_scale**2, rng)

        def bit_errors():
            result = rxchain.decode_transmission(rx, layout, tx_layout, 2, "sm", c)
            return np.count_nonzero(result.bits != bits)

        errors = bit_errors()
        monkeypatch.setattr(rxchain, "estimate_fo", lambda p: np.zeros(p.shape[-2]))
        true_offset_errors = bit_errors()
        assert 0 < true_offset_errors < 100
        assert abs(errors - true_offset_errors) <= 3 * np.sqrt(true_offset_errors)

    def test_short_offset_preamble_rejected(self):
        layout = txchain.FrameLayout(fo_seq_len=25)
        tx_layout = txchain.TransmissionLayout(n_frames=1, snr_block_symbols=50)
        c = modem.build_constellation(2)
        bits = np.zeros(2 * layout.data_symbols_per_frame, dtype=np.uint8)
        tx = txchain.build_transmission(bits, "sm", 2, c, layout, tx_layout)
        with pytest.raises(ConfigurationError):
            rxchain.decode_transmission(tx.samples, layout, tx_layout, 2, "sm", c)

    @pytest.mark.parametrize("nt,scheme", [(-1, "sm"), (0, "sm"), (3, "smx"), (2, "osm")])
    def test_antenna_count_and_scheme_checked_first(self, loopback, nt, scheme):
        """The sidecar's nt and scheme are refused before any sample is read."""
        layout, tx_layout, c, _, _, _ = loopback
        with pytest.raises(ConfigurationError):
            rxchain.decode_transmission(np.zeros((2, 10), dtype=complex), layout,
                                        tx_layout, nt, scheme, c)

    def test_unscaled_estimates_carry_symbol_scale(self, loopback):
        layout, tx_layout, c, bits, tx, h = loopback
        rx = channel.propagate_waveform(tx.samples, h)
        result = rxchain.decode_transmission(rx, layout, tx_layout, 2, "sm", c)
        est = result.channel_estimates[0, 0]
        assert np.max(np.abs(est / tx.symbol_scale - h)) <= 1e-6
        assert result.symbol_scale == 1.0

    def test_anchor_before_capture_start_rejected(self, loopback):
        """A copy of the sync peak 120 samples ahead of the transmission
        becomes the first of 20 peaks, so the start lands at sample -84."""
        layout, tx_layout, c, bits, tx, h = loopback
        rx = channel.propagate_waveform(tx.samples, h)
        capture = np.concatenate([np.zeros((2, 120), dtype=complex), rx], axis=1)
        capture[:, 0] = rx[:, np.argmax(np.sum(np.abs(rx) ** 2, axis=0))]
        with pytest.raises(SyncRejection, match="-84"):
            rxchain.decode_transmission(capture, layout, tx_layout, 2, "sm", c)

    def test_capture_cut_before_data_end_rejected(self, loopback):
        layout, tx_layout, c, bits, tx, h = loopback
        rx = channel.propagate_waveform(tx.samples, h)
        with pytest.raises(SyncRejection):
            rxchain.decode_transmission(rx[:, : rx.shape[1] * 9 // 10], layout,
                                        tx_layout, 2, "sm", c)

    def test_noisy_decode_still_syncs(self, loopback):
        layout, tx_layout, c, bits, tx, h = loopback
        rng = np.random.default_rng(21)
        noise_var = (tx.symbol_scale * 10 ** (-30 / 20)) ** 2
        rx = channel.propagate_waveform(
            tx.samples, h, noise_var=noise_var, rng=rng
        )
        result = rxchain.decode_transmission(
            rx, layout, tx_layout, 2, "sm", c, symbol_scale=tx.symbol_scale
        )
        assert result.bits.size == bits.size
        assert result.snr.valid
        errors = int(np.count_nonzero(result.bits != bits))
        assert errors / bits.size < 0.01
