"""Tests for the power-imbalanced Rician channel and propagation."""

import os
import pickle
import tracemalloc
import warnings

import numpy as np
import pytest

from smlink import analysis, channel, modem, rxchain, txchain
from smlink.errors import ConfigurationError, DimensionError, SmlinkError


class TestFadingModel:
    def test_rayleigh_default(self):
        fm = channel.FadingModel()
        assert fm.k_linear == 0.0
        assert fm.los_amplitude == 0.0
        assert fm.diffuse_std == 1.0

    def test_power_split(self):
        """LoS and scattered powers always add to one."""
        for k_db in (-10.0, 0.0, 10.0, 33.0, 38.0):
            fm = channel.FadingModel(k_db)
            assert fm.los_amplitude**2 + fm.diffuse_std**2 == pytest.approx(1.0)
            assert fm.los_amplitude**2 / fm.diffuse_std**2 == pytest.approx(
                10.0 ** (k_db / 10.0)
            )

    def test_moment_recovery_k33(self):
        """Sample moments of draws reproduce the configured K factor."""
        rng = np.random.default_rng(42)
        fm = channel.FadingModel(33.0)
        h = channel.draw_channels(250_000, 2, 2, fm, rng=rng).reshape(-1)
        mean = h.mean()
        var = np.mean(np.abs(h - mean) ** 2)
        k_hat_db = 10.0 * np.log10(np.abs(mean) ** 2 / var)
        assert k_hat_db == pytest.approx(33.0, abs=0.5)

    def test_unit_mean_energy(self):
        rng = np.random.default_rng(7)
        for k_db in (float("-inf"), 33.0):
            h = channel.draw_channels(
                250_000, 2, 2, channel.FadingModel(k_db), rng=rng
            )
            assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, abs=5e-3)

    @pytest.mark.parametrize("k", [True, False])
    def test_bool_k_refused(self, k):
        """A bool is no K factor: True would build a 1 dB model."""
        with pytest.raises(ConfigurationError, match="K must be"):
            channel.FadingModel(k)

    def test_huge_k_collapses_to_los(self):
        rng = np.random.default_rng(0)
        h = channel.draw_channels(100, 2, 2, channel.FadingModel(90.0), rng=rng)
        assert np.max(np.abs(h - 1.0)) < 1e-3


class TestPowerImbalance:
    def test_named_profiles(self):
        p1 = channel.imbalance_profile("rx_config_1")
        assert np.allclose(p1.alpha_db, [[0.0, 0.88], [0.25, 1.10]])
        p2 = channel.imbalance_profile("rx_config_2")
        assert np.allclose(p2.alpha_db, [[0.0, 1.13], [0.29, 1.17]])
        assert channel.imbalance_profile("none") is None

    def test_unknown_profile(self):
        with pytest.raises(ConfigurationError):
            channel.imbalance_profile("rx_config_9")

    def test_profile_shape_guard(self):
        with pytest.raises(DimensionError):
            channel.imbalance_profile("rx_config_1", nr=3, nt=2)

    def test_reference_entry_must_be_zero(self):
        with pytest.raises(ConfigurationError):
            channel.PowerImbalance(np.array([[0.5, 0.88], [0.25, 1.10]]))

    def test_offsets_must_be_nonnegative_finite(self):
        with pytest.raises(ConfigurationError):
            channel.PowerImbalance(np.array([[0.0, -0.1], [0.25, 1.10]]))
        with pytest.raises(ConfigurationError):
            channel.PowerImbalance(np.array([[0.0, np.inf], [0.25, 1.10]]))

    def test_zero_profile_is_identity(self):
        """An all-zero offset matrix leaves the draw bitwise unchanged."""
        fm = channel.FadingModel(33.0)
        pi = channel.PowerImbalance(np.zeros((2, 2)))
        a = channel.draw_channels(50, 2, 2, fm, rng=np.random.default_rng(3))
        b = channel.draw_channels(50, 2, 2, fm, pi, rng=np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_average_power_ratio(self):
        """A 1.1 dB offset scales that path's mean power by 10**0.11."""
        pi = channel.PowerImbalance(np.array([[0.0, 0.0], [0.0, 1.1]]))
        rng = np.random.default_rng(19)
        h = channel.draw_channels(200_000, 2, 2, channel.FadingModel(), pi, rng=rng)
        ratio = np.mean(np.abs(h[:, 1, 1]) ** 2) / np.mean(np.abs(h[:, 0, 0]) ** 2)
        assert ratio == pytest.approx(10.0**0.11, rel=0.01)

    def test_imbalance_scales_los_exactly(self):
        """At huge K the drawn matrix is just the amplitude-scale matrix."""
        pi = channel.imbalance_profile("rx_config_1")
        h = channel.draw_channel(
            2, 2, channel.FadingModel(90.0), pi, rng=np.random.default_rng(1)
        )
        assert np.max(np.abs(h - pi.amplitude_scale())) < 2e-3

    def test_draw_shape_guard(self):
        pi = channel.imbalance_profile("rx_config_1")
        with pytest.raises(DimensionError):
            channel.draw_channels(3, 4, 4, channel.FadingModel(), pi)


class TestPropagation:
    def test_symbols_match_explicit_loop(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        x = rng.standard_normal((50, 4)) + 1j * rng.standard_normal((50, 4))
        y = channel.propagate_symbols(x, h, 0.0, None)
        ref = np.stack([h @ row for row in x])
        assert np.max(np.abs(y - ref)) < 1e-14

    def test_noise_variance_split(self):
        rng = np.random.default_rng(8)
        x = np.zeros((200_000, 2), dtype=complex)
        h = np.eye(2, dtype=complex)
        y = channel.propagate_symbols(x, h, 0.5, rng)
        assert np.mean(np.abs(y) ** 2) == pytest.approx(0.5, rel=0.02)
        assert np.mean(y.real**2) == pytest.approx(0.25, rel=0.03)
        assert np.mean(y.imag**2) == pytest.approx(0.25, rel=0.03)

    def test_waveform_matches_explicit_loop(self):
        rng = np.random.default_rng(4)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        x = rng.standard_normal((2, 200)) + 1j * rng.standard_normal((2, 200))
        fo = 0.013
        y = channel.propagate_waveform(x, h, fo_cycles_per_sample=fo).segment(0, 200)
        ref = np.stack(
            [np.exp(2j * np.pi * fo * k) * (h @ x[:, k]) for k in range(200)], axis=1
        )
        assert np.max(np.abs(y - ref)) < 1e-12

    def test_waveform_zero_offset_is_plain_mix(self):
        rng = np.random.default_rng(4)
        h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        x = rng.standard_normal((2, 50)) + 1j * rng.standard_normal((2, 50))
        assert np.array_equal(channel.propagate_waveform(x, h).segment(0, 50), h @ x)

    def test_waveform_noise_is_one_sample_major_draw(self):
        """The noise is the transpose of one (n, nr) awgn draw, so the
        seeded numbers land on the samples in sample-major order."""
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, 300)) + 1j * rng.standard_normal((2, 300))
        h = np.array([[1.0, 0.5j], [0.2, -1.0]])
        y = channel.propagate_waveform(x, h, 0.01, 0.3, np.random.default_rng(9)).segment(0, 300)
        noise = channel.awgn((300, 2), 0.3, np.random.default_rng(9)).T
        ramp = np.exp(2j * np.pi * 0.01 * np.arange(300))
        assert np.max(np.abs(y - (h @ x * ramp + noise))) < 1e-12

    @pytest.mark.parametrize("n", [1, 1000, 3 * channel.SAMPLE_BLOCK + 12345])
    @pytest.mark.parametrize("fo", [0.0, 1e-4, -0.013])
    @pytest.mark.parametrize("noise_var", [0.0, 0.3])
    def test_waveform_equals_unblocked_reference(self, n, fo, noise_var):
        """Ramp and noise go in block by block, yet the output is exactly
        the full-length ramp and one (n, nr) sample-major noise draw: for
        one sample, under one block, and over several blocks with a tail
        that is ragged in both the sample blocks and the ramp blocks."""
        rng = np.random.default_rng(4)
        x = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
        h = np.array([[1.0, 0.5j], [0.2, -1.0], [0.3 - 0.1j, 0.7]])
        y = channel.propagate_waveform(x, h, fo, noise_var, np.random.default_rng(9)).segment(0, n)
        ref = h @ x * channel.carrier_ramp(fo, n)
        if noise_var > 0:
            ref += channel.awgn((n, 3), noise_var, np.random.default_rng(9)).T
        assert np.array_equal(y, ref)

    def test_waveform_peak_memory_is_about_one_output(self):
        """Ramp and noise go into the output one block at a time: the
        peak traced allocation of a (2, 2**20) ``segment(0, n)`` stays
        within 1.1 outputs (the output plus the kept block and one block's
        ramp segment and noise)."""
        x = np.ones((2, 1 << 20), dtype=complex)
        h = np.array([[1.0, 0.5j], [0.2, -1.0]])
        rng = np.random.default_rng(3)
        tracemalloc.start()
        try:
            y = channel.propagate_waveform(x, h, 1e-4, 0.1, rng).segment(0, x.shape[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * y.nbytes

    @pytest.mark.parametrize("fo", [np.nan, np.inf, -np.inf, 0.75, -0.75, 3.07e303])
    def test_waveform_offset_outside_half_cycle_refused(self, fo):
        """An offset beyond +-0.5 cycles/sample aliases; NaN would give an
        all-NaN capture and 3e303 overflows the ramp. All are refused."""
        with pytest.raises(ConfigurationError, match="fo_cycles_per_sample"):
            channel.propagate_waveform(np.ones((2, 10), dtype=complex), np.eye(2), fo)

    def test_waveform_offset_at_half_cycle_accepted(self):
        y = channel.propagate_waveform(np.ones((1, 4), dtype=complex), np.eye(1), -0.5)
        y = y.segment(0, 4)
        assert np.allclose(y, [[1, -1, 1, -1]])

    @pytest.mark.parametrize("fo,noise_var", [(0.0, 0.0), (0.01, 0.0), (0.0, 0.1)])
    def test_real_streams_and_channel_give_complex_output(self, fo, noise_var):
        """Real samples through a real channel give the complex128 output the
        offset and the noise need (a float64 output used to raise a bare
        casting TypeError at the first read with either)."""
        x = np.arange(20.0).reshape(2, 10)
        y = channel.propagate_waveform(x, np.eye(2), fo, noise_var, np.random.default_rng(1))
        assert y.dtype == np.complex128
        block = y.segment(0, 10)
        assert block.dtype == np.complex128
        if not (fo or noise_var):
            assert np.array_equal(block, x)

    def test_waveform_noise_needs_rng(self):
        x = np.ones((2, 10), dtype=complex)
        with pytest.raises(ConfigurationError):
            channel.propagate_waveform(x, np.eye(2), noise_var=0.1)

    @pytest.mark.parametrize("noise_var", [-1.0, -1e-300, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("call", ["awgn", "propagate_symbols", "propagate_waveform"])
    def test_bad_noise_variance_refused(self, call, noise_var):
        """A negative or non-finite noise variance is refused by name, with no
        RuntimeWarning first and no noiseless output; the channel's block
        source refuses it when it is built, before any draw."""
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        calls = {
            "awgn": lambda: channel.awgn((4, 2), noise_var, rng),
            "propagate_symbols": lambda: channel.propagate_symbols(
                np.ones((4, 2), dtype=complex), np.eye(2), noise_var, rng),
            "propagate_waveform": lambda: channel.propagate_waveform(
                np.ones((2, 4), dtype=complex), np.eye(2), 0.0, noise_var, rng),
        }
        with pytest.raises(ConfigurationError, match="noise_var"):
            calls[call]()
        assert rng.bit_generator.state == state

    def test_dimension_guards(self):
        with pytest.raises(DimensionError):
            channel.propagate_symbols(np.ones((5, 3), dtype=complex), np.eye(2), 0.0, None)
        with pytest.raises(DimensionError):
            channel.propagate_waveform(np.ones((3, 5), dtype=complex), np.eye(2))

    def test_seeded_draws_are_deterministic(self):
        fm = channel.FadingModel(10.0)
        a = channel.draw_channels(10, 2, 3, fm, rng=np.random.default_rng(55))
        b = channel.draw_channels(10, 2, 3, fm, rng=np.random.default_rng(55))
        c = channel.draw_channels(10, 2, 3, fm, rng=np.random.default_rng(56))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestCarrierRamp:
    @staticmethod
    def reference(delta, n, first_index=0):
        return np.exp(2j * np.pi * delta * (first_index + np.arange(n)))

    def test_long_ramp_matches_exp(self):
        n = 5_000_000
        ramp = channel.carrier_ramp(1e-4, n)
        assert ramp.shape == (n,)
        assert np.max(np.abs(ramp - self.reference(1e-4, n))) <= 1e-12

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 10, 99, 1001, 9973])
    @pytest.mark.parametrize("delta,first_index", [(0.013, 0), (-0.037, 1234), (0.0, 7)])
    def test_lengths_off_the_block_grid(self, n, delta, first_index):
        ramp = channel.carrier_ramp(delta, n, first_index)
        assert ramp.shape == (n,)
        assert np.max(np.abs(ramp - self.reference(delta, n, first_index)), initial=0.0) <= 1e-12

    @pytest.mark.parametrize("delta", [np.nan, np.inf, -np.inf, 0.75, 3.07e303,
                                       [0.1, np.nan], [0.2, -0.75]])
    def test_offset_outside_half_cycle_refused(self, delta):
        with pytest.raises(ConfigurationError, match="fo_cycles_per_sample"):
            channel.carrier_ramp(delta, 100)

    @pytest.mark.parametrize("delta", [[1e-4, 2e-4], (1e-4,), np.array([1e-4, 2e-4]),
                                       np.array(1e-4)],
                             ids=["list", "tuple", "ndarray", "0-d-array"])
    def test_offset_must_be_one_number(self, delta):
        """A carrier offset is one number: sequences and arrays, 0-d ones
        included, are refused by the ramp and by the channel that applies it."""
        with pytest.raises(ConfigurationError, match="fo_cycles_per_sample"):
            channel.carrier_ramp(delta, 100)
        with pytest.raises(ConfigurationError, match="fo_cycles_per_sample"):
            channel.propagate_waveform(np.ones((2, 10), dtype=complex), np.eye(2), delta)


PULSE_TRAIN = (np.arange(1000) % 8 == 0).astype(float)

STAGE_PROBES = {
    "matched-filter-upsample-0": lambda: rxchain.matched_filter_downsample(
        np.ones((2, 64)), np.ones(9), upsample_factor=0),
    "carrier-ramp-negative-length": lambda: channel.carrier_ramp(0.1, -1),
    "draw-channels-negative-count": lambda: channel.draw_channels(
        -1, 2, 2, channel.FadingModel(), rng=np.random.default_rng(0)),
    "imbalance-profile-list-name": lambda: channel.imbalance_profile(["x"]),
    "estimate-fo-nan-preamble": lambda: rxchain.estimate_fo(np.full((2, 3, 100), np.nan + 0j)),
    "estimate-fo-infinite-entry": lambda: rxchain.estimate_fo(
        np.where(np.arange(100) == 5, np.inf, 1.0).astype(complex) + np.zeros((2, 3, 1))),
    "estimate-fo-1d-preamble": lambda: rxchain.estimate_fo(np.ones(100, dtype=complex)),
    "estimate-fo-2d-preamble": lambda: rxchain.estimate_fo(np.ones((3, 100), dtype=complex)),
    "estimate-fo-no-receive-antenna": lambda: rxchain.estimate_fo(
        np.zeros((0, 3, 100), dtype=complex)),
    "estimate-fo-no-sample": lambda: rxchain.estimate_fo(np.zeros((2, 3, 0), dtype=complex)),
    "estimate-snr-no-block": lambda: rxchain.estimate_snr(np.ones((2, 100)), 2, 0, 10),
    "estimate-snr-no-antenna": lambda: rxchain.estimate_snr(np.ones((2, 100)), 0, 2, 10),
    "estimate-snr-empty-block": lambda: rxchain.estimate_snr(np.ones((2, 100)), 2, 2, 0),
    "estimate-snr-no-receive-row": lambda: rxchain.estimate_snr(np.ones((0, 100)), 2, 2, 10),
    "detect-sync-no-pulse": lambda: rxchain.detect_sync(np.ones((2, 1000)), 8, 0, 100),
    "ls-estimate-1d-pilots": lambda: rxchain.ls_channel_estimate(np.ones((2, 20)), np.ones(10)),
    "ls-estimate-no-pilot-symbol": lambda: rxchain.ls_channel_estimate(
        np.ones((2, 20)), np.ones((0, 2))),
    "pulse-gain-upsample-0": lambda: rxchain.pulse_gain_compensation(np.ones(9), 0, 10, 2),
    "pulse-gain-no-pilot-symbol": lambda: rxchain.pulse_gain_compensation(np.ones(9), 4, 0, 2),
    # A chain or transmission of another type. The prefix lies under os.devnull,
    # a file, so no call could create a directory for it.
    "decode-transmission-str-chain": lambda: rxchain.decode_transmission(np.zeros((2, 10)), "sm"),
    "build-transmission-no-chain": lambda: txchain.build_transmission(
        np.zeros(10, dtype=np.uint8), None),
    "write-waveform-str-transmission": lambda: txchain.write_waveform(
        os.path.join(os.devnull, "tx"), "tx"),
    # Counts that are a bool or a float. Where the bool would pass as 1, the
    # input is one the stage otherwise accepts: a train of pulses 8 samples
    # apart, or an SNR section whose 1-sample blocks are not silent.
    "estimate-snr-float-nt": lambda: rxchain.estimate_snr(np.ones((2, 100)), 2.0, 2, 10),
    "estimate-snr-bool-nt": lambda: rxchain.estimate_snr(np.ones((2, 100)), True, 2, 10),
    "estimate-snr-float-n-blocks": lambda: rxchain.estimate_snr(np.ones((2, 100)), 2, 2.0, 10),
    "estimate-snr-bool-n-blocks": lambda: rxchain.estimate_snr(np.ones((2, 100)), 2, True, 10),
    "estimate-snr-float-block-length": lambda: rxchain.estimate_snr(
        np.ones((2, 100)), 2, 2, 10.0),
    "estimate-snr-bool-block-length": lambda: rxchain.estimate_snr(
        np.arange(200.0).reshape(2, 100), 2, 2, True),
    "detect-sync-float-period": lambda: rxchain.detect_sync(PULSE_TRAIN, 8.0, 3, 100),
    "detect-sync-float-n-pulses": lambda: rxchain.detect_sync(np.ones((2, 1000)), 8, 3.0, 100),
    "detect-sync-bool-n-pulses": lambda: rxchain.detect_sync(PULSE_TRAIN, 8, True, 100),
    "detect-sync-float-fit-samples": lambda: rxchain.detect_sync(PULSE_TRAIN, 8, 3, 100.0),
    "detect-sync-bool-fit-samples": lambda: rxchain.detect_sync(PULSE_TRAIN, 8, 3, True),
    # More counts that are a bool, a float or out of range. They used to raise a
    # bare TypeError, AttributeError or ValueError, or to give a wrong answer: a
    # bool antenna count taken as 1 antenna, a pilot sequence for antenna 1.5
    # that is not orthogonal to antenna 1's, or -1 symbols taken as "all but one".
    "bits-per-vector-float-nt": lambda: modem.bits_per_vector("sm", 2.0, 2),
    "bits-per-vector-bool-nt": lambda: modem.bits_per_vector("sm", True, 2),
    "receiver-complexity-float-nt": lambda: modem.receiver_complexity("sm", 2.0, 2, 2),
    "receiver-complexity-bool-nt": lambda: modem.receiver_complexity("sm", True, 2, 2),
    "receiver-complexity-bool-nr": lambda: modem.receiver_complexity("sm", 2, True, 2),
    "complexity-report-bool-nr": lambda: modem.complexity_report(2, True, 2),
    "build-constellation-float-order": lambda: modem.build_constellation(4.0),
    "bits-to-indices-bool-block": lambda: modem.bits_to_indices(np.ones(4), True),
    "indices-to-bits-bool-block": lambda: modem.indices_to_bits(np.zeros(3, dtype=int), True),
    "pilot-matrix-no-antenna": lambda: txchain.pilot_matrix(0, 10),
    "pilot-matrix-float-nt": lambda: txchain.pilot_matrix(2.0, 10),
    "pilot-sequence-float-index": lambda: txchain.pilot_sequence(1.5, 10),
    "rrc-taps-float-count": lambda: txchain.rrc_taps(40.0, 0.75, 4),
    "matched-filter-negative-n-symbols": lambda: rxchain.matched_filter_downsample(
        np.ones((2, 64)), np.ones(9), 4, n_symbols=-1),
    "matched-filter-float-n-symbols": lambda: rxchain.matched_filter_downsample(
        np.ones((2, 64)), np.ones(9), 4, n_symbols=3.5),
    "draw-channels-bool-count": lambda: channel.draw_channels(
        True, 2, 2, channel.FadingModel(), rng=np.random.default_rng(0)),
    "carrier-ramp-bool-length": lambda: channel.carrier_ramp(0.1, True),
    "pulse-gain-bool-nt": lambda: rxchain.pulse_gain_compensation(np.ones(9), 4, 10, True),
    "pulse-shape-bool-upsample": lambda: txchain.pulse_shape(np.ones((2, 10)), np.ones(9), True),
    "pulse-shape-float-upsample": lambda: txchain.pulse_shape(np.ones((2, 10)), np.ones(9), 4.0),
    # The shaping sums real sub-filters: complex taps would lose their imaginary
    # part, and no taps or a 2-D array used to raise a bare ValueError.
    "pulse-shape-complex-taps": lambda: txchain.pulse_shape(np.ones((2, 10)), np.ones(9) * 1j, 4),
    "pulse-shape-no-taps": lambda: txchain.pulse_shape(np.ones((2, 10)), np.ones(0), 4),
    "pulse-shape-2d-taps": lambda: txchain.pulse_shape(np.ones((2, 10)), np.ones((3, 3)), 4),
    "smx-modulate-bool-nt": lambda: modem.smx_modulate(np.ones(4), True, modem.build_constellation(2)),
    # A transmission's sample map used to take a bool nt as one antenna (a
    # 2 000 000-sample SNR section), a float one as float lengths and 0 as an
    # empty SNR section.
    "sections-bool-nt": lambda: txchain.TransmissionLayout().sections(True, txchain.FrameLayout()),
    "sections-float-nt": lambda: txchain.TransmissionLayout().sections(2.0, txchain.FrameLayout()),
    "sections-no-antenna": lambda: txchain.TransmissionLayout().sections(0, txchain.FrameLayout()),
    # A pulse gain with a zero entry used to give -inf+nanj estimates after two
    # RuntimeWarnings, and a NaN entry NaN estimates.
    "ls-estimate-zero-gain": lambda: rxchain.ls_channel_estimate(
        np.ones((2, 20)), txchain.pilot_matrix(2, 10), gain=np.zeros(2)),
    "ls-estimate-nan-gain": lambda: rxchain.ls_channel_estimate(
        np.ones((2, 20)), txchain.pilot_matrix(2, 10), gain=np.array([1.0, np.nan])),
}


@pytest.mark.parametrize("call", [pytest.param(f, id=k) for k, f in STAGE_PROBES.items()])
def test_stage_inputs_refused_with_named_errors(call):
    """Each of these used to raise a bare ZeroDivisionError, ValueError,
    IndexError, TypeError or AttributeError, to return a wrong answer
    (offsets of 0 for a NaN preamble, a 2-D one or one with no antenna or
    sample; a bool count taken as 1) or to warn (an infinite preamble entry,
    in the FFT; the mean of no SNR block; a pilot period of 0); each now
    raises a SmlinkError and warns nothing first."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(SmlinkError):
            call()
    assert not caught


TAPS = txchain.rrc_taps()
RICE = np.abs(channel.draw_channels(
    2000, 1, 1, channel.FadingModel(10.0), rng=np.random.default_rng(5)).reshape(-1))

# Calls whose counts are made by ``k``; each gives the same output for a Python
# int and a numpy integer.
COUNT_CALLS = {
    "bits-per-vector": lambda k: modem.bits_per_vector("smx", k(4), k(16)),
    "build-constellation": lambda k: modem.build_constellation(k(16)),
    "bits-to-indices": lambda k: modem.bits_to_indices(np.arange(12) % 2, k(3)),
    "indices-to-bits": lambda k: modem.indices_to_bits(np.arange(8), k(3)),
    "receiver-complexity": lambda k: modem.receiver_complexity("smx", k(4), k(2), k(2)),
    "complexity-report": lambda k: modem.complexity_report(k(4), k(2), k(2)),
    "pilot-sequence": lambda k: txchain.pilot_sequence(k(2), k(10)),
    "pilot-matrix": lambda k: txchain.pilot_matrix(k(2), k(10)),
    "rrc-taps": lambda k: txchain.rrc_taps(k(40), 0.75, k(4)),
    "matched-filter": lambda k: rxchain.matched_filter_downsample(
        np.arange(128.0).reshape(2, 64), TAPS, k(4), k(9)),
    "pulse-gain": lambda k: rxchain.pulse_gain_compensation(TAPS, k(4), k(10), k(2)),
    "pulse-shape": lambda k: txchain.pulse_shape(np.arange(20.0).reshape(2, 10), TAPS, k(4)),
    "smx-modulate": lambda k: modem.smx_modulate(
        np.arange(8) % 3 % 2, k(2), modem.build_constellation(4)),
    "estimate-snr": lambda k: rxchain.estimate_snr(
        np.arange(200.0).reshape(2, 100), k(2), k(2), k(10)),
    "detect-sync": lambda k: rxchain.detect_sync(PULSE_TRAIN, k(8), k(3), k(100)),
    "draw-channels": lambda k: channel.draw_channels(
        k(3), k(2), k(2), channel.FadingModel(5.0), rng=np.random.default_rng(0)),
    "carrier-ramp": lambda k: channel.carrier_ramp(1e-3, k(100)),
    "fit-rician": lambda k: analysis.fit_rician(RICE, max_iterations=k(5)),
    "frame-layout": lambda k: txchain.FrameLayout(zero_pad_len=k(0), upsample_factor=k(8)),
    "transmission-layout": lambda k: txchain.TransmissionLayout(n_frames=k(3)),
    "chain": lambda k: txchain.Chain("sm", k(4), k(16)),
    "bound-config": lambda k: analysis.BoundConfig(
        "sm", k(2), k(2), k(4), channel.FadingModel(), (5.0,), n_channels=k(7)),
}


@pytest.mark.parametrize("numpy_int", [np.int64, np.uint8])
@pytest.mark.parametrize("call", [pytest.param(f, id=k) for k, f in COUNT_CALLS.items()])
def test_numpy_integer_counts_give_the_same_outputs(call, numpy_int):
    """A numpy integer is a count wherever a Python int is, and it comes out
    as one: the pickled outputs (types included) are equal. Some of these
    used to raise AttributeError (numpy integers have no ``bit_length``), and
    some overflowed in ``uint8`` arithmetic."""
    assert pickle.dumps(call(numpy_int)) == pickle.dumps(call(int))
