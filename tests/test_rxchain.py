"""Tests for the receive pipeline: sync, SNR, FO, LS estimate, decode."""

import tracemalloc

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
    """Two-frame SM/BPSK transmission, its chain, plus a fixed 2x2 channel."""
    layout = txchain.FrameLayout()
    tx_layout = txchain.TransmissionLayout(n_frames=2, snr_block_symbols=200)
    rng = np.random.default_rng(77)
    chain = txchain.Chain("sm", 2, 2, layout, tx_layout)
    bits = rng.integers(0, 2, chain.payload_bits).astype(np.uint8)
    tx = txchain.build_transmission(bits, chain)
    h = np.array([[1.0 + 0.1j, 0.35 + 0.2j], [0.1 - 0.4j, 0.9 - 0.05j]])
    return layout, tx_layout, chain, bits, tx, h


def sync_geometry(loopback):
    """(pulse period, transmission length) of the loopback transmission."""
    layout, tx_layout, _, _, tx, _ = loopback
    return (1 + tx_layout.sync_gap_symbols) * layout.upsample_factor, tx.shape[1]


def complex_noise(rng, shape, scale):
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


class TestDetectSync:
    def test_loopback_pulse_grid(self, loopback):
        tx = loopback[4]
        period, fit = sync_geometry(loopback)
        combined = np.sqrt(np.sum(np.abs(tx.samples) ** 2, axis=0))
        res = rxchain.detect_sync(combined, period, 20, fit)
        assert res.peak_indices.tolist() == list(range(0, 20 * period, period))
        assert res.tx_start_index == 0
        assert res.margin == np.inf  # the noiseless gaps are silent

    def test_scale_invariance(self, loopback):
        tx = loopback[4]
        period, fit = sync_geometry(loopback)
        combined = np.sqrt(np.sum(np.abs(tx.samples) ** 2, axis=0))
        a = rxchain.detect_sync(combined, period, 20, fit)
        b = rxchain.detect_sync(0.3 * combined, period, 20, fit)
        assert np.array_equal(a.peak_indices, b.peak_indices)
        assert a.tx_start_index == b.tx_start_index

    def test_offset_capture(self, loopback):
        tx = loopback[4]
        period, fit = sync_geometry(loopback)
        combined = np.sqrt(np.sum(np.abs(tx.samples) ** 2, axis=0))
        padded = np.concatenate([np.zeros(137), combined])
        res = rxchain.detect_sync(padded, period, 20, fit)
        assert res.tx_start_index == 137
        assert res.peak_indices[0] == 137

    def test_missing_pulse_rejects(self, loopback):
        tx = loopback[4]
        period, fit = sync_geometry(loopback)
        combined = np.sqrt(np.sum(np.abs(tx.samples) ** 2, axis=0)).copy()
        combined[19 * period] = 0.0  # kill the last pulse
        with pytest.raises(SyncRejection):
            rxchain.detect_sync(combined, period, 20, fit)

    def test_complex_and_signed_inputs_take_magnitude(self, loopback):
        tx = loopback[4]
        period, fit = sync_geometry(loopback)
        combined = np.sqrt(np.sum(np.abs(tx.samples) ** 2, axis=0))
        a = rxchain.detect_sync(combined, period, 20, fit)
        phase = np.exp(1j * np.linspace(0.0, 40.0, combined.size))
        for other in (combined * phase, -combined):
            b = rxchain.detect_sync(other, period, 20, fit)
            assert np.array_equal(a.peak_indices, b.peak_indices)
            assert a.tx_start_index == b.tx_start_index

    @staticmethod
    def reference_start(magnitude, period, n_pulses, fit):
        """The comb maximiser over every start where ``fit`` samples fit,
        from one (starts, teeth) index matrix over the whole magnitude."""
        starts = np.arange(magnitude.size - fit + 1)
        teeth = starts[:, None] + period * np.arange(n_pulses)
        comb = (magnitude[teeth] - magnitude[teeth + period // 2]).sum(axis=1)
        return int(np.argmax(comb))

    def test_capture_rows_combine_as_magnitude(self, loopback):
        """The (nr, n) capture is searched on sqrt(sum_r |y_r|^2); its start is
        the one of that magnitude searched whole, and its margin is the weakest
        pulse over the strongest mid-gap sample."""
        tx, h = loopback[4], loopback[5]
        period, fit = sync_geometry(loopback)
        rng = np.random.default_rng(4)
        noise = (tx.symbol_scale * 0.1) ** 2
        rx = channel.propagate_waveform(tx.samples, h, 1e-4, noise, rng).segment(0, fit)
        rx = np.concatenate([complex_noise(rng, (2, 500), np.sqrt(noise / 2)), rx], axis=1)
        combined = np.sqrt(np.sum(np.abs(rx) ** 2, axis=0))
        res = rxchain.detect_sync(rx, period, 20, fit)
        assert res.tx_start_index == self.reference_start(combined, period, 20, fit) == 500
        teeth = 500 + period * np.arange(20)
        assert res.margin == combined[teeth].min() / combined[teeth + period // 2].max()
        assert res.margin > 1
        one = rxchain.detect_sync(rx[1], period, 20, fit)
        assert one.tx_start_index == self.reference_start(np.abs(rx[1]), period, 20, fit)

    @pytest.mark.parametrize("seed", range(4))
    def test_groups_across_block_edges(self, seed):
        """The starts are searched one SAMPLE_BLOCK at a time: a pulse train
        that starts on either side of a block edge, behind a spike three
        times its height, is found where one whole-capture search finds it,
        also when the last block of starts is ragged."""
        rng = np.random.default_rng(seed)
        block = channel.SAMPLE_BLOCK
        lead = [block - 7, block + 3, 2 * block - 1, 3 * block + 500][seed]
        period, n_pulses, fit = 300, 20, 20 * 300 + 5000
        n = lead + fit + 999 + seed * block
        capture = complex_noise(rng, (2, n), 0.05)
        capture[0, lead + period * np.arange(n_pulses)] += rng.uniform(0.8, 1.0, n_pulses)
        capture[1, lead // 2] += 3.0
        magnitude = np.sqrt(np.sum(np.abs(capture) ** 2, axis=0))
        res = rxchain.detect_sync(capture, period, n_pulses, fit)
        assert res.tx_start_index == self.reference_start(magnitude, period, n_pulses, fit)
        assert res.tx_start_index == lead

    def test_reads_only_the_head(self, loopback):
        """No sample past n - fit + (n_pulses - 1) * P + P // 2 is read: NaN
        after it leaves the search unchanged."""
        tx = loopback[4]
        period, fit = sync_geometry(loopback)
        combined = np.sqrt(np.sum(np.abs(tx.samples) ** 2, axis=0))
        capture = np.concatenate([np.zeros(40), combined])
        last = capture.size - fit + 19 * period + period // 2
        capture[last + 1 :] = np.nan
        assert rxchain.detect_sync(capture, period, 20, fit).tx_start_index == 40
        capture[last] = np.nan
        with pytest.raises(DegenerateInputError):
            rxchain.detect_sync(capture, period, 20, fit)

    def test_non_finite_capture_rejected(self):
        for value in (np.nan, np.inf):
            capture = np.zeros((2, 5000))
            capture[1, 500] = value
            with pytest.raises(DegenerateInputError):
                rxchain.detect_sync(capture, 204, 20, 4500)

    def test_overflowing_head_sample_rejected(self):
        """A finite sample whose power overflows is refused by name, with no
        RuntimeWarning first (the tests turn warnings into errors)."""
        capture = np.zeros((2, 12_000))
        capture[0, 204 * np.arange(20)] = 1.0
        capture[1, 300] = 1e200
        with pytest.raises(DegenerateInputError, match="NaN, infinite or overflowing"):
            rxchain.detect_sync(capture, 204, 20, 10_000)

    def test_lone_spike_rejects(self):
        capture = np.zeros(50_000)
        capture[1234] = 1.0
        with pytest.raises(SyncRejection):
            rxchain.detect_sync(capture, 204, 20, 40_000)

    def test_all_zero_rejects(self):
        with pytest.raises(SyncRejection):
            rxchain.detect_sync(np.zeros(5000), 204, 20, 4500)

    @pytest.mark.parametrize("seed", range(3))
    def test_noise_only_rejects(self, seed):
        capture = complex_noise(np.random.default_rng(seed), (2, 50_000), 1.0)
        with pytest.raises(SyncRejection):
            rxchain.detect_sync(capture, 204, 20, 40_000)

    def test_too_short_rejects(self):
        """A capture shorter than the transmission, or than the pulse train
        itself, holds no start to search."""
        with pytest.raises(SyncRejection, match="cannot hold"):
            rxchain.detect_sync(np.ones(4499), 204, 20, 4500)
        with pytest.raises(SyncRejection, match="cannot hold"):
            rxchain.detect_sync(np.ones(19 * 204 + 102), 204, 20, 0)


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

    @staticmethod
    def reference_raw(y, nt, n_blocks, block_len):
        """Per-block estimates with fresh off - dc and on - dc arrays."""
        nr = y.shape[0]
        blocks = y[:, : nt * n_blocks * 2 * block_len].reshape(nr, nt, n_blocks, 2, block_len)
        raw = np.empty((nt, n_blocks))
        for t in range(nt):
            for b in range(n_blocks):
                on, off = blocks[:, t, b, 0], blocks[:, t, b, 1]
                dc = off.mean(axis=1, keepdims=True)
                off_energy = float(sum(np.vdot(r, r).real for r in off - dc))
                on_energy = float(sum(np.vdot(r, r).real for r in on - dc))
                signal = max(on_energy - off_energy, 0.0) / block_len
                raw[t, b] = signal / (nr * off_energy / off.size)
        return raw

    def test_agrees_with_two_pass_reference(self):
        """The per-block values merged a segment at a time agree with the
        two-pass sums over whole blocks to rounding (measured: 1e-15)."""
        rng = np.random.default_rng(12)
        h = np.array([[1.0 + 0.2j, 0.8 - 0.1j], [0.4 + 0.5j, 1.1 + 0.0j]])
        y, _ = self.build_section(h, 12.0, rng, block_len=3000)
        for section in (y + (0.2 - 0.1j), y.real.copy()):
            est = rxchain.estimate_snr(section, 2, 5, 3000)
            np.testing.assert_allclose(est.per_antenna_per_block,
                                       self.reference_raw(section, 2, 5, 3000), rtol=1e-12, atol=0)

    def test_stable_under_a_large_receive_dc(self):
        """Under a 1e6 receive DC, blocks of several segments still agree
        with the two-pass reference, to the rounding of the means both
        take: 1e6 * 2**-52 against a 0.1 signal amplitude is about 2e-9
        relative (measured: at most 3.2e-9 over five seeds). A one-pass
        sum of |x|^2 would cancel 1e17 against an energy of about 90."""
        rng = np.random.default_rng(4)
        h = np.array([[1.0 + 0.2j, 0.8 - 0.1j], [0.4 + 0.5j, 1.1 + 0.0j]])
        block = 2 * channel.SAMPLE_BLOCK + 123
        y, _ = self.build_section(h, 10.0, rng, blocks=2, block_len=block)
        y += 1e6 * (0.6 - 0.8j)
        est = rxchain.estimate_snr(y, 2, 2, block)
        np.testing.assert_allclose(est.per_antenna_per_block,
                                   self.reference_raw(y, 2, 2, block), rtol=1e-8, atol=0)
        assert est.snr_db == pytest.approx(10.0, abs=0.2)

    def test_peak_does_not_grow_with_the_block_length(self):
        """Read from a block source, the probe holds a segment at a time: its
        traced peak does not grow when the sounding blocks grow tenfold
        (measured: the same within 1 KiB; the bound allows 64 KiB)."""

        class Noise:
            """An (nr, n) block source that draws each segment from its start."""

            def __init__(self, n):
                self.shape = (2, n)

            def segment(self, start, stop, out=None):
                x = np.random.default_rng(start).standard_normal((2, stop - start)) + 1j
                if out is None:
                    return x
                out[...] = x
                return out

        rxchain.estimate_snr(Noise(8 * 1000), 2, 2, 1000)  # first-call allocations
        peaks = []
        for block in (40_000, 400_000):
            source = Noise(2 * 2 * 2 * block)
            tracemalloc.start()
            try:
                rxchain.estimate_snr(source, 2, 2, block)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2**16

    def test_all_zero_section_rejected(self):
        with pytest.raises(DegenerateInputError):
            rxchain.estimate_snr(np.zeros((2, 80_000), dtype=complex), 2, 5, 4000)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200])
    @pytest.mark.parametrize("half", [0, 1], ids=["on", "off"])
    def test_non_finite_sample_refused(self, value, half):
        """A NaN or infinite sample (or one whose power overflows) in an on or
        an off block is refused, as sync and decode refuse it, and no
        RuntimeWarning is raised first (the tests turn warnings into errors)."""
        h = np.array([[1.0 + 0.2j, 0.8 - 0.1j], [0.4 + 0.5j, 1.1 + 0.0j]])
        y, _ = self.build_section(h, 15.0, np.random.default_rng(5), block_len=400)
        y.reshape(2, 2, 5, 2, 400)[1, 1, 2, half, 17] = value
        with pytest.raises(DegenerateInputError, match="NaN, infinite or overflowing"):
            rxchain.estimate_snr(y, 2, 5, 400)

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

    def test_frames_beyond_one_spectrum_block(self):
        """The FFT peaks are searched SAMPLE_BLOCK // n_fft frames at a time
        (8 at 976 symbols, n_fft = 4096): 19 frames span three blocks, the
        last one ragged, and each gets its single-frame estimate."""
        rng = np.random.default_rng(9)
        deltas = rng.uniform(-0.45, 0.45, 19)
        x = self.tones(deltas, 976, rng.standard_normal(2) + 1j * rng.standard_normal(2))
        est = rxchain.estimate_fo(x)
        assert np.max(np.abs(est - deltas)) < 1e-12
        singles = [rxchain.estimate_fo(x[:, f : f + 1])[0] for f in range(19)]
        assert np.max(np.abs(est - singles)) < 1e-15
        assert rxchain.estimate_fo(x[:, :0]).shape == (0,)

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

    def test_correct_fo_inverts_ramp(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 300)) + 1j * rng.standard_normal((2, 300))
        delta = 0.0123
        ramp = np.exp(2j * np.pi * delta * np.arange(300))
        assert np.max(np.abs(rxchain.correct_fo(x * ramp, delta) - x)) < 1e-12
        # Counted from first_index: the ramp of samples 37 onwards.
        late = np.exp(2j * np.pi * delta * (37 + np.arange(300)))
        assert np.max(np.abs(rxchain.correct_fo(x * late, delta, 37) - x)) < 1e-12
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
        """(1/n_theta) Theta^H Y per sequence, averaged over all of them."""
        n_theta = theta.shape[0]
        parts = [theta.conj().T @ y[:, s * n_theta : (s + 1) * n_theta].T / n_theta
                 for s in range(y.shape[1] // n_theta)]
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
        """Estimator noise variance is sigma^2 / (n_theta * n_seq)."""
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
        expected = noise_var / (10 * 10)  # ten 10-long sequences
        assert sq / trials == pytest.approx(expected, rel=0.2)

    def test_non_orthogonal_pilots_rejected(self):
        with pytest.raises(ConfigurationError):
            rxchain.ls_channel_estimate(
                np.ones((2, 10), dtype=complex), np.ones((10, 2), dtype=complex)
            )

    @pytest.mark.parametrize("nt,n_theta", [(2, 10), (4, 10), (8, 16)])
    def test_orthogonality_decisions_match_allclose(self, nt, n_theta):
        """The pilot check accepts and refuses what np.allclose at atol =
        1e-9 n_theta and rtol = 1e-5 does: orthogonal pilots, pilots perturbed
        just inside and just outside that tolerance on the Gram matrix's
        diagonal (a column scaled) and off it (one entry shifted), and pilots
        whose Gram matrix holds a NaN."""
        theta = txchain.pilot_matrix(nt, n_theta)

        def scaled(d):
            return theta * np.where(np.arange(nt) == 0, 1.0 + d, 1.0)

        def shifted(d):
            return theta + np.where(np.arange(theta.size) == 0, d, 0.0).reshape(theta.shape)

        def allclose_accepts(p):
            return np.allclose(p.conj().T @ p, n_theta * np.eye(nt), atol=1e-9 * n_theta)

        def accepts(p):
            try:
                rxchain.ls_channel_estimate(np.zeros((2, n_theta), dtype=complex), p)
            except ConfigurationError:
                return False
            return True

        cases = [theta, shifted(np.nan)]
        for perturb in (scaled, shifted):
            lo, hi = 0.0, 1.0  # allclose accepts perturb(lo) and refuses perturb(hi)
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if allclose_accepts(perturb(mid)) else (lo, mid)
            cases += [perturb(lo), perturb(hi), perturb(-lo), perturb(-hi)]
        decisions = [accepts(p) for p in cases]
        assert decisions == [allclose_accepts(p) for p in cases]
        assert decisions[:2] == [True, False] and decisions[2:4] == [True, False]

    def test_partial_sequence_rejected(self):
        with pytest.raises(DimensionError):
            rxchain.ls_channel_estimate(
                np.ones((2, 15), dtype=complex), self.pilots
            )
        with pytest.raises(DimensionError):
            rxchain.ls_channel_estimate(np.ones((2, 0), dtype=complex), self.pilots)


class TestDemodulateFrame:
    def test_sm_roundtrip_with_split_channels(self):
        """Each block's halves go to its own pair of estimates; blocks may
        differ in length, and a one-vector block has an empty first half."""
        rng = np.random.default_rng(13)
        c = modem.build_constellation(2)
        bits = rng.integers(0, 2, 2 * 301).astype(np.uint8)
        _, vectors = modem.sm_modulate(bits, 2, c)
        h = rng.standard_normal((3, 2, 2, 2)) + 1j * rng.standard_normal((3, 2, 2, 2))
        halves = [(vectors[:100], h[0, 0]), (vectors[100:200], h[0, 1]),
                  (vectors[200:250], h[1, 0]), (vectors[250:300], h[1, 1]),
                  (vectors[300:], h[2, 1])]
        y = np.concatenate([x @ hh.T for x, hh in halves])
        blocks = [y[:200], y[200:300], y[300:]]
        out = rxchain.demodulate_frame(blocks, h, "sm", c)
        assert np.array_equal(out, modem.bits_to_indices(bits, 2))

    def test_smx_roundtrip(self):
        rng = np.random.default_rng(14)
        c = modem.build_constellation(4)
        bits = rng.integers(0, 2, 4 * 100).astype(np.uint8)
        vectors = modem.smx_modulate(bits, 2, c)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        out = rxchain.demodulate_frame([vectors @ h.T], np.stack([[h, h]]), "smx", c)
        assert np.array_equal(out, modem.bits_to_indices(bits, 4))

    @pytest.mark.parametrize("scheme", ["foo", "SM", "", None])
    def test_unknown_scheme_refused(self, scheme):
        """Only "sm" and "smx" detect; any other scheme is refused by name."""
        c = modem.build_constellation(2)
        y = np.ones((10, 2), dtype=complex)
        with pytest.raises(ConfigurationError, match="unknown scheme"):
            rxchain.demodulate_frame([y], np.tile(np.eye(2), (1, 2, 1, 1)), scheme, c)

    def test_smx_candidates_built_once_per_call(self, monkeypatch):
        calls = []
        build = modem.candidate_vectors

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(modem, "candidate_vectors", counting)
        c = modem.build_constellation(2)
        y = np.ones((10, 2), dtype=complex)
        rxchain.demodulate_frame([y, y, y], np.tile(np.eye(2), (3, 2, 1, 1)), "smx", c)
        assert len(calls) == 1


class TestDecodeTransmission:
    def decode(self, loopback, fo=0.0):
        _, _, chain, bits, tx, h = loopback
        rx = channel.propagate_waveform(tx.samples, h, fo_cycles_per_sample=fo)
        result = rxchain.decode_transmission(rx, chain, symbol_scale=tx.symbol_scale)
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
        _, _, chain, bits, tx, _ = loopback
        h = np.array([[1.0 + 0.01j, 1.012 - 0.008j], [1.03 - 0.005j, 1.041 + 0.006j]])
        assert np.linalg.norm(h[:, 0] - h[:, 1]) == pytest.approx(0.0266, abs=1e-3)
        rng = np.random.default_rng(31)
        noise_var = tx.symbol_scale**2 * 10.0 ** (-60 / 10)
        rx = channel.propagate_waveform(tx.samples, h, fo, noise_var, rng)
        result = rxchain.decode_transmission(rx, chain, symbol_scale=tx.symbol_scale)
        assert np.count_nonzero(result.bits != bits) == 0

    def test_dead_receive_antenna_left_out_of_offset_estimate(self, loopback):
        """A receive antenna with an all-zero preamble adds nothing to the
        summed periodogram, so the offset comes from the other one."""
        _, _, chain, bits, tx, _ = loopback
        h = np.array([[1.0 + 0.1j, 0.35 + 0.2j], [0.0, 0.0]])
        rx = channel.propagate_waveform(tx.samples, h, fo_cycles_per_sample=2e-3)
        result = rxchain.decode_transmission(rx, chain, symbol_scale=tx.symbol_scale)
        assert np.array_equal(result.bits, bits)
        assert np.max(np.abs(result.fo_cycles_per_sample - 2e-3)) <= 1e-9

    @pytest.mark.parametrize("seed", [0, 1])
    def test_noise_only_antenna_decodes_at_true_offset_ber(self, monkeypatch, seed):
        """H = I at 10 dB: the preamble leaves transmit antenna 1 only, so
        receive antenna 2 sees noise alone during it. The decode still
        loses nothing to a decode handed the true offset (0)."""
        chain = txchain.Chain("sm", 2, 2, txchain.FrameLayout(),
                              txchain.TransmissionLayout(n_frames=10, snr_block_symbols=200))
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2, chain.payload_bits, dtype=np.uint8)
        tx = txchain.build_transmission(bits, chain)
        rx = channel.propagate_waveform(tx.samples, np.eye(2), 0.0,
                                        0.1 * tx.symbol_scale**2, rng)

        def bit_errors():
            result = rxchain.decode_transmission(rx, chain)
            return np.count_nonzero(result.bits != bits)

        errors = bit_errors()
        monkeypatch.setattr(rxchain, "estimate_fo", lambda p: np.zeros(p.shape[-2]))
        true_offset_errors = bit_errors()
        assert 0 < true_offset_errors < 100
        assert abs(errors - true_offset_errors) <= 3 * np.sqrt(true_offset_errors)

    def test_short_offset_preamble_rejected(self):
        """The offset estimate leaves FO_EDGE_MARGIN symbols out at each end and
        needs 2 more, so a layout with a shorter preamble is refused when it is
        built, before any transmission the decoder could not use."""
        shortest = 2 * txchain.FO_EDGE_MARGIN + 2
        with pytest.raises(ConfigurationError, match="offset preamble"):
            txchain.FrameLayout(fo_seq_len=shortest - 1)
        assert txchain.FrameLayout(fo_seq_len=shortest).fo_seq_len == shortest

    @pytest.mark.parametrize("nt,scheme", [(-1, "sm"), (0, "sm"), (3, "smx"), (2, "osm")])
    def test_antenna_count_and_scheme_checked_first(self, loopback, nt, scheme):
        """The decoder takes a checked Chain, so a sidecar's nt and scheme are
        refused when its chain is built, before any sample is read."""
        layout, tx_layout, _, _, _, _ = loopback
        with pytest.raises(ConfigurationError):
            txchain.Chain(scheme, nt, 2, layout, tx_layout)

    def test_unscaled_estimates_carry_symbol_scale(self, loopback):
        _, _, chain, bits, tx, h = loopback
        rx = channel.propagate_waveform(tx.samples, h)
        result = rxchain.decode_transmission(rx, chain)
        est = result.channel_estimates[0, 0]
        assert np.max(np.abs(est / tx.symbol_scale - h)) <= 1e-6
        assert result.symbol_scale == 1.0

    @pytest.mark.parametrize("scale", ["0.1", True, -1.0, 0, np.nan, np.inf, -np.inf])
    def test_symbol_scale_checked_first(self, loopback, scale):
        """A sidecar's symbol scale is refused before any sample is read: a
        negative one would flip the sign of every reported estimate, and no
        transmission has a scale of 0 (its layout refuses a power factor of 0)."""
        _, _, chain, _, _, _ = loopback
        with pytest.raises(ConfigurationError, match="symbol_scale"):
            rxchain.decode_transmission(np.zeros((2, 10), dtype=complex), chain, symbol_scale=scale)

    def test_spike_ahead_of_the_train_decodes_at_true_start(self, loopback):
        """A copy of the strongest sync pulse 120 samples ahead of the
        transmission is one tooth of a comb at most; the train decodes at 120."""
        _, _, chain, bits, tx, h = loopback
        rx = channel.propagate_waveform(tx.samples, h).segment(0, tx.shape[1])
        capture = np.concatenate([np.zeros((2, 120), dtype=complex), rx], axis=1)
        capture[:, 0] = rx[:, np.argmax(np.sum(np.abs(rx) ** 2, axis=0))]
        result = rxchain.decode_transmission(capture, chain)
        assert result.sync.tx_start_index == 120
        assert np.array_equal(result.bits, bits)

    @pytest.mark.parametrize("lead, trail", [(0, 0), (137, 0), (40_000, 0), (0, 300_000)])
    def test_weak_antenna_1_decodes_at_true_start(self, loopback, lead, trail):
        """The sync pulses leave antenna 1 only, and this channel's antenna-1
        column is about 16x weaker than antenna 2's, so at 30 dB the pulses
        sit under antenna 2's sounding blocks and data. The pulse train is
        still found behind a lead-in of noise (40 000 samples cross a
        SAMPLE_BLOCK edge) and ahead of 300 000 trailing noise samples, and
        the bits are those of the capture cut to the transmission, whose
        only start is the true one."""
        _, _, chain, bits, tx, _ = loopback
        h = np.array([[0.07, 1.0], [0.05j, 0.9]])
        rng = np.random.default_rng(9)
        noise_var = tx.symbol_scale**2 * 10.0 ** (-30 / 10)
        rx = channel.propagate_waveform(tx, h, 0.0, noise_var, rng).segment(0, tx.shape[1])
        assert np.linalg.norm(h[:, 0]) < tx.x_max * np.linalg.norm(h[:, 1])
        capture = np.concatenate([complex_noise(rng, (2, lead), np.sqrt(noise_var / 2)), rx,
                                  complex_noise(rng, (2, trail), np.sqrt(noise_var / 2))],
                                 axis=1)
        result, at_true_start = (rxchain.decode_transmission(y, chain)
                                 for y in (capture, rx))
        assert result.sync.tx_start_index == lead
        assert np.array_equal(result.bits, at_true_start.bits)
        assert np.count_nonzero(result.bits != bits) < 0.01 * bits.size

    @pytest.mark.parametrize("where", ["head", "sounding", "tail"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 1e200])
    def test_non_finite_sample_anywhere_rejected(self, loopback, value, where):
        """A NaN or infinite sample, or one whose power overflows, is refused
        by name before sync wherever it lies: in the sync head, in the
        sounding section or in the filter tail that no symbol instant reads,
        with no RuntimeWarning first (the tests turn warnings into errors)."""
        _, _, chain, _, tx, h = loopback
        rx = channel.propagate_waveform(tx.samples, h).segment(0, tx.shape[1])
        rx[1, {"head": 0, "sounding": tx.sections["snr"][0] + 17, "tail": -1}[where]] = value
        with pytest.raises(DegenerateInputError, match="NaN, infinite or overflowing"):
            rxchain.decode_transmission(rx, chain)

    def test_capture_cut_before_data_end_rejected(self, loopback):
        _, _, chain, bits, tx, h = loopback
        rx = channel.propagate_waveform(tx.samples, h).segment(0, tx.shape[1])
        with pytest.raises(SyncRejection):
            rxchain.decode_transmission(rx[:, : rx.shape[1] * 9 // 10], chain)

    @staticmethod
    def traced_decode(n_frames, snr_block_symbols, source="array", folder=None):
        """(decoder's traced peak, complex capture bytes) of a 2x2 SM/BPSK capture:
        the channel's noisy output as an array or as its block source (whose
        noise the decode draws), or the transmission's int16 files in ``folder``."""
        chain = txchain.Chain("sm", 2, 2, txchain.FrameLayout(), txchain.TransmissionLayout(
            n_frames=n_frames, snr_block_symbols=snr_block_symbols))
        bits = np.random.default_rng(5).integers(0, 2, 2 * 1000 * n_frames).astype(np.uint8)
        tx = txchain.build_transmission(bits, chain)
        if source == "files":
            prefix = folder / f"cap{n_frames}"
            txchain.write_waveform(prefix, tx)
            rx = txchain.read_captures([f"{prefix}_ant1.bin", f"{prefix}_ant2.bin"])
        else:
            h = np.array([[1.0 + 0.1j, 0.35 + 0.2j], [0.1 - 0.4j, 0.9 - 0.05j]])
            rx = channel.propagate_waveform(tx, h, 1e-4, (tx.symbol_scale * 0.03) ** 2,
                                            np.random.default_rng(1))
            if source == "array":
                rx = rx.segment(0, tx.shape[1])
        tracemalloc.start()
        try:
            result = rxchain.decode_transmission(rx, chain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(result.bits, bits)
        return peak, 16 * rx.size

    def test_peak_memory_well_under_capture(self):
        """The decoder forms the sync magnitude one block at a time and
        otherwise allocates only block-sized and symbol-rate arrays: its
        traced peak stays under 0.1 of a 2-antenna capture (measured:
        0.052) whose sounding section is 97% of the samples."""
        peak, capture = self.traced_decode(1, 5000)
        assert peak <= 0.1 * capture

    def test_peak_memory_grows_slower_than_capture_with_frames(self, tmp_path):
        """The capture is read a segment at a time and the frames are decoded
        a block at a time, so only the decoded bits, offsets and estimates
        grow with the frame count: from 16 frames (where every block-sized
        buffer has its full size) to 64, the traced peak grows by at most
        0.02 of what the capture does (measured: 0.009 from the channel's
        source, 0.008 from the files; 0.426 from an array at 8 to 32 frames
        with the data section held)."""
        for source in ("channel", "files"):
            small, small_capture = self.traced_decode(16, 200, source, tmp_path)
            large, large_capture = self.traced_decode(64, 200, source, tmp_path)
            assert large - small <= 0.02 * (large_capture - small_capture), source

    @pytest.mark.parametrize("n_frames", [2, 10, 11])
    def test_full_decode_draws_the_noise_once(self, loopback, monkeypatch, n_frames):
        """A decode of the channel's block source reads it in stream order, so
        it draws nr * n noise samples, each once, and its results equal those
        of its ``segment(0, n)`` decoded as an array. With 2 frames the last
        read ends the output; with 10 and 11 the read before it ends in the
        output's last block."""
        layout, _, _, _, _, h = loopback
        chain = txchain.Chain("sm", 2, 2, layout,
                              txchain.TransmissionLayout(n_frames=n_frames, snr_block_symbols=200))
        bits = np.random.default_rng(n_frames).integers(0, 2, chain.payload_bits).astype(np.uint8)
        tx = txchain.build_transmission(bits, chain)
        noise_var = (tx.symbol_scale * 0.03) ** 2
        drawn = []
        awgn = channel.awgn

        def counting(shape, *args):
            drawn.append(np.prod(shape))
            return awgn(shape, *args)

        monkeypatch.setattr(channel, "awgn", counting)
        rx = channel.propagate_waveform(tx, h, 1e-4, noise_var, np.random.default_rng(3))
        result = rxchain.decode_transmission(rx, chain)
        assert sum(drawn) == rx.size == 2 * tx.shape[1]
        array = channel.propagate_waveform(tx, h, 1e-4, noise_var,
                                           np.random.default_rng(3)).segment(0, tx.shape[1])
        again = rxchain.decode_transmission(array, chain)
        assert np.array_equal(result.bits, again.bits)
        assert np.array_equal(result.channel_estimates, again.channel_estimates)

    def test_noisy_decode_still_syncs(self, loopback):
        _, _, chain, bits, tx, h = loopback
        rng = np.random.default_rng(21)
        noise_var = (tx.symbol_scale * 10 ** (-30 / 20)) ** 2
        rx = channel.propagate_waveform(
            tx.samples, h, noise_var=noise_var, rng=rng
        )
        result = rxchain.decode_transmission(rx, chain, symbol_scale=tx.symbol_scale)
        assert result.bits.size == bits.size
        assert result.snr.valid
        errors = int(np.count_nonzero(result.bits != bits))
        assert errors / bits.size < 0.01
