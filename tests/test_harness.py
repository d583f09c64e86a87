"""Tests for the Monte Carlo harness: configs, reproducibility, CSV."""

import contextlib
import dataclasses
import io
import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from smlink import analysis, channel, cli, harness, modem, rxchain, txchain
from smlink.errors import ConfigurationError, SmlinkError


def small_config(**overrides):
    base = dict(
        scheme="sm", nt=2, nr=2, modulation_order=2,
        snr_grid_db=(10.0,), bits_per_trial=2000, trials_per_snr=3,
        target_bit_errors=None, master_seed=4,
    )
    base.update(overrides)
    return harness.SimConfig(**base)


class TestSimConfig:
    @pytest.mark.parametrize("overrides", [
        dict(fidelity="waveform", nt=16, bits_per_trial=5000),
        dict(fidelity="waveform", block_symbols=20_000, bits_per_trial=40_000),
        dict(fidelity="waveform", snr_block_symbols=0),
        dict(fidelity="waveform", fo_cycles_per_sample=0.75),
        dict(scheme="smx", nt=8, modulation_order=16, bits_per_trial=32_000),
        dict(pi_profile="rx_config_1", nr=1),
        dict(csi_mode="pilot", nt=16, bits_per_trial=5000),
        dict(modulation_order=3),
        dict(snr_grid_db="12"),
        dict(snr_grid_db=b"12"),
        dict(snr_grid_db=(True, 3)),
        dict(snr_grid_db=(10**400,)),
        dict(scheme="smx", nt=2**14, bits_per_trial=2**14),
    ], ids=["pilots-16-antennas", "frame-over-coherence", "no-snr-block", "fo-aliased",
            "2e32-candidates", "profile-shape", "symbol-pilots-16-antennas", "order-3",
            "grid-str", "grid-bytes", "grid-bool", "grid-int-past-float",
            "2e16384-candidates"])
    def test_refused_at_construction(self, overrides):
        """Each of these would fail inside run_simulation (the 2**32-candidate
        set by exhausting memory, order 3 in build_constellation), raise a
        bare ValueError or OverflowError (a candidate count too long to print,
        an integer grid point past a float's range) or run another link (the
        grid "12" as 1 and 2 dB, b"12" as 49 and 50 dB, True as 1 dB), so
        construction refuses it."""
        with pytest.raises(SmlinkError):
            small_config(**overrides)

    @pytest.mark.parametrize("fo", [[1e-4, 2e-4], (1e-4,), np.array([1e-4, 2e-4]),
                                    np.array(1e-4)],
                             ids=["list", "tuple", "ndarray", "0-d-array"])
    def test_offset_must_be_one_number(self, fo):
        """The run applies one carrier offset; a list of them used to pass here
        and end in a numpy broadcast error inside run_simulation."""
        with pytest.raises(ConfigurationError, match="fo_cycles_per_sample"):
            harness.SimConfig(scheme="sm", nt=2, nr=2, modulation_order=2,
                              snr_grid_db=(20.0,), fidelity="waveform",
                              fo_cycles_per_sample=fo, bits_per_trial=2000,
                              trials_per_snr=1, snr_block_symbols=500)

    @pytest.mark.parametrize("field,value", [
        ("trials_per_snr", 2.5), ("bits_per_trial", 2000.0), ("block_symbols", 100.0),
        ("snr_block_symbols", 500.0), ("nt", 2.0), ("master_seed", 4.0),
        ("target_bit_errors", True), ("trials_per_snr", "3"), ("master_seed", -1),
    ])
    def test_bad_counts_and_seeds_refused(self, field, value):
        """A float, bool or string count used to pass here and end in a
        TypeError inside run_simulation, and a negative seed in a ValueError
        from SeedSequence."""
        with pytest.raises(ConfigurationError, match=field):
            small_config(**{field: value})

    @pytest.mark.parametrize("field,value", [("pi_profile", ["none"]), ("k_factor_db", True)])
    def test_str_and_float_fields_typed(self, field, value):
        """A list profile used to end in a bare TypeError (unhashable type),
        and True passed as a K factor of 1 dB."""
        with pytest.raises(ConfigurationError, match=f"SimConfig field {field!r}"):
            small_config(**{field: value})

    def test_numpy_floats_pass_float_fields(self):
        cfg = small_config(k_factor_db=np.float64(33.0), fo_cycles_per_sample=np.float32(0.0))
        assert cfg == small_config(k_factor_db=33.0)

    def test_numpy_integers_stored_as_ints(self):
        cfg = small_config(nt=np.int64(2), trials_per_snr=np.uint8(3), master_seed=np.int32(4))
        assert cfg == small_config()
        assert all(type(v) is int for v in (cfg.nt, cfg.trials_per_snr, cfg.master_seed))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            small_config(scheme="osm")
        with pytest.raises(ConfigurationError):
            small_config(fidelity="rtl")
        with pytest.raises(ConfigurationError):
            small_config(csi_mode="genie")
        with pytest.raises(ConfigurationError):
            small_config(snr_grid_db=())
        with pytest.raises(ConfigurationError):
            small_config(bits_per_trial=2001)  # not a multiple of m=2
        with pytest.raises(ConfigurationError):
            small_config(trials_per_snr=0)
        with pytest.raises(ConfigurationError):
            small_config(target_bit_errors=0)

    @pytest.mark.parametrize("make", [
        lambda: channel.FadingModel(float("nan")),
        lambda: channel.FadingModel(float("inf")),
        lambda: channel.FadingModel(None),
        lambda: small_config(k_factor_db=float("nan")),
        lambda: small_config(fo_cycles_per_sample=float("nan")),
        lambda: small_config(fo_cycles_per_sample=float("-inf")),
        lambda: small_config(snr_grid_db=(10.0, float("nan"))),
        lambda: small_config(snr_grid_db=(float("inf"),)),
    ], ids=["fading-k-nan", "fading-k-inf", "fading-k-none", "config-k-nan",
            "config-fo-nan", "config-fo-inf", "config-snr-nan", "config-snr-inf"])
    def test_non_finite_values_refused(self, make):
        """K takes a real number that is finite or -inf (Rayleigh); the
        offset and every SNR point must be finite."""
        with pytest.raises(ConfigurationError):
            make()

    @pytest.mark.parametrize("make", [
        lambda: channel.FadingModel(4000.0),
        lambda: small_config(k_factor_db=4000.0),
        lambda: small_config(snr_grid_db=(10.0, -4000.0)),
        lambda: small_config(snr_grid_db=(4000.0,)),
    ], ids=["fading-k-4000", "config-k-4000", "config-snr-minus-4000", "config-snr-4000"])
    def test_values_overflowing_linear_units_refused(self, make):
        """K, the linear SNR and the noise variance 10**(-SNR/10) must fit
        a float; beyond about 3082 dB they raise a named error, not a bare
        OverflowError."""
        with pytest.raises(ConfigurationError, match="overflows"):
            make()

    def test_k_400_db_still_runs(self):
        """K = 400 dB is an all-ones channel: SM loses the antenna bit and
        keeps the BPSK bit, so the simulated ABER and the bound are 1/4."""
        cfg = small_config(k_factor_db=400.0, snr_grid_db=(30.0,), bits_per_trial=4000,
                           trials_per_snr=5)
        assert harness.run_simulation(cfg)[0].aber == pytest.approx(0.25, abs=0.02)
        bound = analysis.BoundConfig(scheme="sm", nt=2, nr=2, modulation_order=2,
                                     fading=cfg.fading(), imbalance=None,
                                     snr_grid_db=(30.0,))
        assert analysis.union_bound_aber(bound)[0] == pytest.approx(0.25, rel=1e-9)

    def test_waveform_needs_whole_frames(self):
        with pytest.raises(ConfigurationError):
            small_config(fidelity="waveform", bits_per_trial=2500,
                         block_symbols=1000)
        cfg = small_config(fidelity="waveform", bits_per_trial=4000,
                           block_symbols=1000)
        assert cfg.bits_per_vector == 2

    def test_bits_per_vector(self):
        assert small_config().bits_per_vector == 2
        cfg = small_config(scheme="smx", nt=4, modulation_order=4,
                           bits_per_trial=1600)
        assert cfg.bits_per_vector == 8

    def test_helpers_build_channel_model(self):
        cfg = small_config(k_factor_db=33.0, pi_profile="rx_config_1")
        assert cfg.fading().k_factor_db == 33.0
        assert cfg.imbalance().alpha_db[1, 1] == 1.10
        assert small_config().imbalance() is None


class TestCandidateGuard:
    @pytest.mark.parametrize("build", ["link", "bound", "candidates"])
    def test_refused_at_constant_cost(self, build):
        """An SMX link of 2**27 antennas carries m = 2**27 bits per vector.
        The guard compares m with log2(MAX_CANDIDATES) instead of forming
        2**m, so refusing it traces under 64 KiB (59.7 MiB when 2**m was
        formed), and the message still names 2**m."""
        c = modem.build_constellation(2)
        make = {
            "link": lambda: harness.Link(scheme="smx", nt=2**27, nr=2, modulation_order=2,
                                         snr_grid_db=(10.0,)),
            "bound": lambda: analysis.BoundConfig(scheme="smx", nt=2**27, nr=2,
                                                  modulation_order=2,
                                                  fading=channel.FadingModel(),
                                                  snr_grid_db=(10.0,)),
            "candidates": lambda: modem.candidate_vectors("smx", 2**27, c),
        }[build]
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError,
                               match=r"candidate set of 2\*\*134217728 exceeds the 65536 guard"):
                make()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16


class TestConfigIo:
    def test_roundtrip(self, tmp_path):
        cfg = small_config(k_factor_db=33.0, pi_profile="rx_config_2",
                           snr_grid_db=(10.0, 20.0))
        path = harness.save_config(cfg, tmp_path / "cfg.json")
        assert harness.load_config(path) == cfg

    def test_rayleigh_roundtrips_as_null(self, tmp_path):
        cfg = small_config()  # default K is -inf
        path = harness.save_config(cfg, tmp_path / "cfg.json")
        assert json.loads(path.read_text())["k_factor_db"] is None
        assert harness.load_config(path).k_factor_db == float("-inf")

    def test_named_schema_errors(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="valid JSON"):
            harness.load_config(path)
        path.write_text(json.dumps({"scheme": "sm", "nt": 2}))
        with pytest.raises(ConfigurationError, match="missing required"):
            harness.load_config(path)
        good = {"scheme": "sm", "nt": 2, "nr": 2, "modulation_order": 2,
                "snr_grid_db": [10.0]}
        path.write_text(json.dumps({**good, "bogus_knob": 1}))
        with pytest.raises(ConfigurationError, match="unknown field"):
            harness.load_config(path)
        path.write_text(json.dumps(good))
        assert harness.load_config(path).snr_grid_db == (10.0,)

    @pytest.mark.parametrize("field, value", [
        ("nt", "2"), ("nt", 2.0), ("trials_per_snr", True), ("snr_grid_db", 10),
        ("snr_grid_db", [10, "x"]), ("snr_grid_db", [float("nan")]), ("k_factor_db", "abc"),
        ("target_bit_errors", 1.5), ("pi_profile", 1),
    ])
    def test_wrong_types_named(self, tmp_path, field, value):
        good = {"scheme": "sm", "nt": 2, "nr": 2, "modulation_order": 2,
                "snr_grid_db": [10.0]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**good, field: value}))
        with pytest.raises(ConfigurationError, match=f"field {field!r} must be"):
            harness.load_config(path)

    def test_ints_accepted_in_float_fields(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scheme": "sm", "nt": 2, "nr": 2, "modulation_order": 2,
                                    "snr_grid_db": [10, 12], "k_factor_db": 33,
                                    "target_bit_errors": None}))
        cfg = harness.load_config(path)
        assert cfg.snr_grid_db == (10.0, 12.0)
        assert cfg.k_factor_db == 33 and cfg.target_bit_errors is None

    def test_missing_file_is_a_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read config"):
            harness.load_config(tmp_path / "absent.json")


@st.composite
def sim_config_fields(draw, tiny=False):
    """SimConfig fields, Rayleigh (K = -inf) included. With ``tiny``, budgets
    a run finishes in milliseconds, plus sizes the waveform layouts cannot
    carry: 16 antennas, a frame over the coherence budget, no SNR block."""
    scheme = draw(st.sampled_from(["sm", "smx"]))
    nt = draw(st.sampled_from([1, 2, 4, 8, 16] if tiny else [1, 2, 4, 8]))
    order = draw(st.sampled_from([2, 4, 16]))
    nr = draw(st.integers(1, 3 if tiny else 8))
    # The named imbalance profiles are for 2x2 links.
    profiles = ["none", "rx_config_1", "rx_config_2"] if tiny or (nr, nt) == (2, 2) else ["none"]
    block = draw(st.integers(1, 20) | st.just(20_000) if tiny else st.integers(1, 2000))
    # dB values whose linear form a float holds (|x| below about 3082 dB)
    decibels = st.floats(-3000.0, 3000.0)
    return dict(
        scheme=scheme, nt=nt, nr=nr, modulation_order=order,
        snr_grid_db=tuple(draw(st.lists(st.floats(-10.0, 30.0) | decibels if tiny else decibels,
                                        min_size=1, max_size=2 if tiny else 4))),
        k_factor_db=draw(st.just(float("-inf")) | decibels),
        pi_profile=draw(st.sampled_from(profiles)),
        fidelity=draw(st.sampled_from(["symbol", "waveform"])),
        csi_mode=draw(st.sampled_from(["perfect", "pilot"])),
        bits_per_trial=modem.bits_per_vector(scheme, nt, order) * block
        * draw(st.integers(1, 2 if tiny else 50)),
        trials_per_snr=draw(st.integers(1, 2 if tiny else 10**9)),
        target_bit_errors=draw(st.none() | st.integers(1, 10 if tiny else 10**9)),
        master_seed=draw(st.integers(-2**64, 2**128) if tiny else st.integers(0, 2**128)),
        fo_cycles_per_sample=draw(st.floats(-0.6, 0.6) if tiny else st.floats(-0.5, 0.5)),
        block_symbols=block,
        snr_block_symbols=draw(st.integers(0, 50) if tiny else st.integers(1, 10**6)),
    )


@st.composite
def sim_configs(draw):
    """Any valid SimConfig."""
    try:
        return harness.SimConfig(**draw(sim_config_fields()))
    except SmlinkError:
        assume(False)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(fields=sim_config_fields(tiny=True))
def test_config_refused_or_run_well_formed(fields):
    """Each drawn config is refused by name at construction, or runs to
    records whose counts are nonnegative and whose SNR estimate, if any,
    is finite. A negative seed is always refused."""
    if fields["master_seed"] < 0:
        with pytest.raises(ConfigurationError, match="master_seed"):
            harness.SimConfig(**fields)
        return
    try:
        cfg = harness.SimConfig(**fields)
    except SmlinkError:
        return
    records = harness.run_simulation(cfg)
    assert len(records) == len(cfg.snr_grid_db)
    for r in records:
        assert 0 <= r.bit_errors <= r.bits and r.rejected_vectors >= 0
        assert r.bits == sum(r.trial_bits) and r.bit_errors == sum(r.trial_errors)
        assert r.snr_db_estimated is None or math.isfinite(r.snr_db_estimated)


@settings(max_examples=60, deadline=None)
@given(cfg=sim_configs())
def test_save_load_roundtrip_property(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = harness.save_config(cfg, Path(tmp) / "cfg.json")
        assert harness.load_config(path) == cfg


class TestSymbolSim:
    def test_runs_are_deterministic(self):
        cfg = small_config(snr_grid_db=(8.0, 12.0))
        a = harness.run_simulation(cfg)
        b = harness.run_simulation(cfg)
        for ra, rb in zip(a, b):
            assert ra.bit_errors == rb.bit_errors
            assert ra.trial_errors == rb.trial_errors
            assert ra.bits == rb.bits

    def test_trial_order_is_seeded_not_sequential_state(self):
        """Each (snr, trial) pair owns an RNG substream, so restricting
        the grid does not change the values at the surviving point."""
        full = harness.run_simulation(small_config(snr_grid_db=(8.0, 12.0)))
        only = harness.run_simulation(small_config(snr_grid_db=(12.0,)))
        assert full[1].trial_errors == only[0].trial_errors

    def test_negative_snr_runs_on_its_own_stream(self):
        cfg = small_config(snr_grid_db=(-2.0, 2.0), trials_per_snr=2)
        low, high = harness.run_simulation(cfg)
        assert low.aber > high.aber > 0
        assert low.trial_errors != high.trial_errors
        draws = [harness._trial_rng(4, snr, 0).integers(0, 2**62, 8)
                 for snr in (-2.0, 2.0, 0.0)]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[0], draws[2])

    def test_non_negative_seed_keys_unchanged(self):
        """Published seeds: (master, round(1000*snr_db), trial) as before."""
        for snr, key in ((0.0, 0), (2.0, 2000), (10.25, 10250)):
            expected = np.random.default_rng(np.random.SeedSequence((7, key, 3)))
            assert np.array_equal(harness._trial_rng(7, snr, 3).integers(0, 2**62, 8),
                                  expected.integers(0, 2**62, 8))

    def test_huge_snr_is_error_free(self):
        cfg = small_config(snr_grid_db=(200.0,), bits_per_trial=10_000,
                           trials_per_snr=2)
        rec = harness.run_simulation(cfg)[0]
        assert rec.bit_errors == 0
        assert rec.aber == 0.0
        assert rec.bits == 20_000

    def test_early_stop_on_target(self):
        cfg = small_config(snr_grid_db=(0.0,), trials_per_snr=50,
                           target_bit_errors=10)
        rec = harness.run_simulation(cfg)[0]
        assert rec.bit_errors >= 10
        assert len(rec.trial_errors) == 1  # 0 dB gives plenty of errors
        assert rec.bits == 2000

    def test_aber_standard_error(self):
        cfg = small_config(snr_grid_db=(6.0,), trials_per_snr=8)
        rec = harness.run_simulation(cfg)[0]
        rates = np.array(rec.trial_errors) / np.array(rec.trial_bits)
        assert rec.aber_standard_error() == pytest.approx(
            np.std(rates, ddof=1) / np.sqrt(rates.size)
        )

    def test_one_estimate_and_one_detect_call_per_trial(self, monkeypatch):
        """A pilot-CSI trial (1000 vectors in blocks of 300, the last one
        ragged) makes one LS call and one detector call."""
        calls = []

        def counted(name):
            fn = getattr(rxchain, name)

            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        for name in ("ls_channel_estimate", "demodulate_frame"):
            monkeypatch.setattr(rxchain, name, counted(name))
        cfg = small_config(csi_mode="pilot", snr_grid_db=(6.0, 10.0), bits_per_trial=2000,
                           block_symbols=300)
        records = harness.run_simulation(cfg)
        assert sum(len(r.trial_errors) for r in records) == 6
        assert sorted(calls) == ["demodulate_frame"] * 6 + ["ls_channel_estimate"] * 6

    @pytest.mark.parametrize("overrides", [
        dict(nt=64, modulation_order=4, bits_per_trial=800),
        dict(csi_mode="pilot", block_symbols=20_000, bits_per_trial=40_000),
    ], ids=["perfect-csi-64-antennas", "pilot-csi-long-block"])
    def test_symbol_runs_that_need_no_pilot_frame(self, overrides):
        """Perfect CSI sends no pilots, so any nt runs; the pilot-CSI trial
        reads only the pilot fields of its frame, so a block longer than a
        waveform frame may hold runs too."""
        (record,) = harness.run_simulation(small_config(trials_per_snr=1, **overrides))
        assert record.bits == overrides["bits_per_trial"]

    @staticmethod
    def record_calls(monkeypatch, module, name):
        """Wrap ``module.name`` to record each call's (args, result)."""
        calls, fn = [], getattr(module, name)

        def wrapper(*args):
            calls.append((args, fn(*args)))
            return calls[-1][1]
        monkeypatch.setattr(module, name, wrapper)
        return calls

    def test_pilot_signal_is_the_frames(self, monkeypatch):
        """The symbol trial sends the pilot signal that build_frame puts in
        both pilot sections of a frame (two blocks, each followed by its two
        pilot observations)."""
        sent = self.record_calls(monkeypatch, channel, "propagate_symbols")
        harness.run_simulation(small_config(
            csi_mode="pilot", nt=4, bits_per_trial=150, block_symbols=25, trials_per_snr=1))
        layout = txchain.FrameLayout()
        frame = txchain.build_frame(np.zeros((1, layout.data_symbols_per_frame, 4)), layout)
        sections = layout.sections()
        pilots = [args[0].T for i, (args, _) in enumerate(sent) if i % 3]
        assert len(sent) == 6 and len(pilots) == 4
        for pilot in pilots:
            np.testing.assert_array_equal(pilot, frame[:, sections["pilot_first"]])
            np.testing.assert_array_equal(pilot, frame[:, sections["pilot_second"]])

    def test_pilot_estimate_error_variance_is_the_decoders(self, monkeypatch):
        """Each entry of a pilot estimate averages the 80 interior pilot
        symbols, so its error variance is sigma^2 / 80 (sigma^2 / 100 when all
        ten sequences were averaged). 2500 blocks give 4e4 error entries,
        whose mean |e|^2 has a relative spread of 0.5%: 5% is 10 sigma."""
        drawn = self.record_calls(monkeypatch, channel, "draw_channel")
        estimated = self.record_calls(monkeypatch, rxchain, "ls_channel_estimate")
        harness.run_simulation(small_config(
            csi_mode="pilot", nr=4, snr_grid_db=(0.0,), bits_per_trial=5000, block_symbols=1,
            trials_per_snr=1))
        h = np.array([result for _, result in drawn])
        [(_, estimates)] = estimated
        errors = estimates - h[:, None]
        assert errors.size == 40_000
        assert np.mean(np.abs(errors) ** 2) == pytest.approx(1.0 / 80, rel=0.05)

    def test_pilot_csi_degrades_gracefully(self):
        """Pilot-based CSI is noisier than genie CSI but the detector
        still works: the ABER stays within a small factor."""
        base = dict(snr_grid_db=(12.0,), bits_per_trial=50_000,
                    trials_per_snr=4, k_factor_db=33.0,
                    pi_profile="rx_config_1")
        perfect = harness.run_simulation(small_config(**base))[0]
        pilot = harness.run_simulation(
            small_config(csi_mode="pilot", **base)
        )[0]
        assert perfect.bit_errors > 50  # the point carries errors at all
        assert pilot.aber < 10 * perfect.aber
        assert pilot.aber > 0.1 * perfect.aber


class TestWaveformSim:
    def test_clean_chain_has_no_errors(self):
        cfg = small_config(
            fidelity="waveform", snr_grid_db=(60.0,), bits_per_trial=4000,
            trials_per_snr=1, block_symbols=1000, snr_block_symbols=500,
            k_factor_db=33.0,
        )
        rec = harness.run_simulation(cfg)[0]
        assert rec.bit_errors == 0
        assert rec.bits == 4000
        assert rec.rejected_vectors == 0

    @pytest.mark.parametrize("scheme,nt,order", [("sm", 2, 2), ("smx", 2, 4)])
    def test_chain_round_trips_through_encode(self, tmp_path, scheme, nt, order):
        """The waveform trial's chain, written as an ``smlink encode`` config,
        is the chain that the encoded sidecar gives back, and it carries
        ``bits_per_trial`` bits."""
        cfg = small_config(fidelity="waveform", scheme=scheme, nt=nt, modulation_order=order,
                           bits_per_trial=3 * 500 * (2 if scheme == "sm" else 4),
                           block_symbols=500, snr_block_symbols=300)
        chain = cfg.chain()
        (tmp_path / "c.json").write_text(json.dumps(dataclasses.asdict(chain)))
        bits = np.random.default_rng(4).integers(0, 2, chain.payload_bits).astype(np.uint8)
        np.packbits(bits).tofile(tmp_path / "tx.bits")
        argv = ["encode", "--config", str(tmp_path / "c.json"), "--bits",
                str(tmp_path / "tx.bits"), "--out", str(tmp_path / "cap")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
        meta, back = txchain.read_sidecar(tmp_path / "cap_meta.json")
        assert back == chain
        assert meta["n_bits"] == chain.payload_bits == cfg.bits_per_trial

    def test_trial_peak_well_under_one_capture(self):
        """The decoder reads the channel's output as a block source, so no
        capture-length array exists anywhere in the trial: its traced peak,
        transmission built and noise drawn included, stays under half the
        (nr, n) complex capture (measured: 0.21; 0.38 with the shaped data
        section stored, 1.10 with the received samples formed as one array)."""
        cfg = small_config(
            fidelity="waveform", snr_grid_db=(30.0,), bits_per_trial=2000,
            trials_per_snr=1, block_symbols=1000, snr_block_symbols=5000,
            k_factor_db=33.0,
        )
        chain = cfg.chain()
        data_start, data_len = chain.transmission_layout.sections(
            cfg.nt, chain.frame_layout)[0]["data"]
        capture_bytes = cfg.nr * (data_start + data_len) * 16
        harness.run_simulation(cfg)  # first-call allocations
        tracemalloc.start()
        try:
            rec = harness.run_simulation(cfg)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec.bits == 2000 and rec.rejected_vectors == 0
        assert peak <= 0.5 * capture_bytes

    def test_trial_peak_does_not_grow_with_frames(self):
        """Neither end of the chain holds a frame-count-sized array: the
        transmission shapes its samples as they are read and the decoder
        reads them a block at a time. From 50 to 400 frames the traced peak
        grows by the bits alone (payload, the transmission's copy, decoded:
        3 bytes per bit) plus less than one block of one antenna (measured:
        3.08 bytes per bit in all; 201 when the transmission stored its
        shaped data section and the SNR probe held whole sounding blocks)."""
        cfg = small_config(
            fidelity="waveform", snr_grid_db=(30.0,), trials_per_snr=1, block_symbols=1000,
            snr_block_symbols=1000, k_factor_db=33.0,
        )
        per_frame = cfg.bits_per_vector * cfg.block_symbols
        harness.run_simulation(dataclasses.replace(cfg, bits_per_trial=per_frame))
        peaks = {}
        for frames in (50, 400):
            tracemalloc.start()
            try:
                rec = harness.run_simulation(
                    dataclasses.replace(cfg, bits_per_trial=frames * per_frame))[0]
                peaks[frames] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert rec.bits == frames * per_frame and rec.rejected_vectors == 0
        extra_bits = 350 * per_frame
        assert peaks[400] - peaks[50] <= 3 * extra_bits + 16 * channel.SAMPLE_BLOCK

    def test_benchmark_trial_working_set(self):
        """One trial of the benchmark's waveform link (2x2 SM/BPSK, K = 33 dB,
        rx_config_1, 24 dB, offset 1e-4 cycles/sample, 100 000 bits in 50
        frames) holds at most 4.5 MiB of traced memory at once after a warm
        trial (measured: 3.8 MiB; 5.9 MiB when the shaping zero-stuffed an
        (nt, 32 807) array and convolved it whole, and the decoder's previous
        frame block and its products lived on while the next block was read)."""
        cfg = small_config(
            fidelity="waveform", snr_grid_db=(24.0,), bits_per_trial=100_000, trials_per_snr=1,
            k_factor_db=33.0, pi_profile="rx_config_1", fo_cycles_per_sample=1e-4)
        harness.run_simulation(cfg)  # first-call allocations
        tracemalloc.start()
        try:
            rec = harness.run_simulation(cfg)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rec.bits == 100_000 and rec.rejected_vectors == 0
        assert peak <= 4.5 * 2**20

    def test_snr_estimate_tracks_target(self):
        cfg = small_config(
            fidelity="waveform", snr_grid_db=(20.0,), bits_per_trial=4000,
            trials_per_snr=3, block_symbols=1000, snr_block_symbols=2000,
            k_factor_db=33.0,
        )
        rec = harness.run_simulation(cfg)[0]
        assert rec.snr_db_estimated is not None
        assert rec.snr_db_estimated == pytest.approx(20.0, abs=0.5)

    def test_sync_on_noise_peaks_counts_as_rejected(self):
        """At 0 dB one of these trials has a sync pulse under a noise sample
        of its gaps (its antenna-1 channel column has norm 0.58): that trial is a
        rejected capture, and the sweep still returns."""
        cfg = harness.SimConfig(
            scheme="smx", nt=2, nr=2, modulation_order=2, snr_grid_db=(0.0,),
            fidelity="waveform", bits_per_trial=40_000, trials_per_snr=3,
            snr_block_symbols=2000, target_bit_errors=None, master_seed=11,
        )
        rec = harness.run_simulation(cfg)[0]
        assert rec.rejected_vectors > 0
        assert rec.bits == 40_000 * (3 - rec.rejected_vectors)

    def test_weak_antenna_1_channels_are_not_rejected(self):
        """SM nt=4, nr=1 QPSK over Rayleigh at 30 dB: the sync pulses leave
        antenna 1 only, and trial 20 draws an antenna-1 gain about 0.1 of the
        strongest, so its pulses reach the receiver under the data section's
        peaks. Sync finds them all the same: no trial is rejected."""
        cfg = harness.SimConfig(
            scheme="sm", nt=4, nr=1, modulation_order=4, snr_grid_db=(30.0,),
            fidelity="waveform", bits_per_trial=4000, trials_per_snr=21,
            snr_block_symbols=2000, target_bit_errors=None, master_seed=5,
        )
        rec = harness.run_simulation(cfg)[0]
        assert rec.rejected_vectors == 0
        assert rec.bits == 21 * 4000

    def test_low_snr_rayleigh_sweep_matches_true_offset(self, monkeypatch):
        """At 4 to 12 dB on Rayleigh channels the estimated offsets cost no
        more bit errors than the true offset (0), within Poisson spread."""
        cfg = harness.SimConfig(
            scheme="sm", nt=2, nr=2, modulation_order=2, snr_grid_db=(4.0, 8.0, 12.0),
            fidelity="waveform", bits_per_trial=40_000, trials_per_snr=3,
            snr_block_symbols=2000, target_bit_errors=None, master_seed=11,
        )
        estimated = [r.bit_errors for r in harness.run_simulation(cfg)]
        monkeypatch.setattr(rxchain, "estimate_fo", lambda p: np.zeros(p.shape[-2]))
        true_offset = [r.bit_errors for r in harness.run_simulation(cfg)]
        assert min(true_offset) > 100
        for got, want in zip(estimated, true_offset):
            assert abs(got - want) <= 3 * np.sqrt(want)

    def test_agrees_with_symbol_fidelity(self):
        """Full-chain ABER matches the pilot-CSI symbol shortcut."""
        shared = dict(k_factor_db=33.0, pi_profile="rx_config_1",
                      snr_grid_db=(30.0,))
        sym = harness.run_simulation(small_config(
            csi_mode="pilot", bits_per_trial=100_000, trials_per_snr=2,
            **shared))[0]
        wav = harness.run_simulation(small_config(
            fidelity="waveform", bits_per_trial=20_000, trials_per_snr=10,
            block_symbols=1000, snr_block_symbols=500, **shared))[0]
        assert sym.bit_errors >= 20 and wav.bit_errors >= 20
        ratio = wav.aber / sym.aber
        assert 1 / 3 < ratio < 3


class TestCsv:
    def test_roundtrip_and_rerun_bytes(self, tmp_path):
        cfg = small_config(snr_grid_db=(8.0, 12.0), k_factor_db=33.0)
        records = harness.run_simulation(cfg)
        p1 = harness.export_csv(records, tmp_path / "a.csv")
        rows = harness.read_csv(p1)
        assert len(rows) == 2
        assert rows[0]["schema_version"] == harness.CSV_SCHEMA_VERSION
        assert rows[0]["scheme"] == "sm"
        assert rows[0]["k_factor_db"] == 33.0
        assert rows[0]["bit_errors"] == records[0].bit_errors
        assert rows[0]["aber"] == pytest.approx(records[0].aber)
        assert rows[0]["snr_db_estimated"] is None
        # byte-identical on a rerun of the same campaign
        p2 = harness.export_csv(harness.run_simulation(cfg), tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()

    def test_write_csv_cell_format(self, tmp_path):
        path = harness.write_csv(tmp_path / "new" / "t.csv", ("a", "b", "c", "d", "e", "f"),
                                 [[None, float("nan"), float("inf"), -float("inf"), 1 / 3, 7]])
        assert path.read_text() == "a,b,c,d,e,f\n,nan,inf,-inf,0.3333333333,7\n"

    def test_rayleigh_k_written_as_minus_inf(self, tmp_path):
        records = harness.run_simulation(small_config(trials_per_snr=1))
        path = harness.export_csv(records, tmp_path / "r.csv")
        assert "-inf" in path.read_text().splitlines()[1]
        assert harness.read_csv(path)[0]["k_factor_db"] == float("-inf")

    def test_schema_guards(self, tmp_path):
        records = harness.run_simulation(small_config(trials_per_snr=1))
        path = harness.export_csv(records, tmp_path / "x.csv")
        lines = path.read_text().splitlines()

        wrong_cols = tmp_path / "cols.csv"
        wrong_cols.write_text("\n".join(["a,b,c", "1,2,3"]) + "\n")
        with pytest.raises(ConfigurationError, match="columns"):
            harness.read_csv(wrong_cols)

        wrong_ver = tmp_path / "ver.csv"
        bad_row = lines[1].replace(harness.CSV_SCHEMA_VERSION, "99", 1)
        wrong_ver.write_text("\n".join([lines[0], bad_row]) + "\n")
        with pytest.raises(ConfigurationError, match="schema version"):
            harness.read_csv(wrong_ver)

    @staticmethod
    def _rewrite_first_row(tmp_path, edit):
        records = harness.run_simulation(small_config(trials_per_snr=1))
        path = harness.export_csv(records, tmp_path / "x.csv")
        header, row, *rest = path.read_text().splitlines()
        path.write_text("\n".join([header, ",".join(edit(row.split(","))), *rest]) + "\n")
        return path

    def test_malformed_numeric_cell_named(self, tmp_path):
        """int('abc') raised a bare ValueError."""
        bits = harness.CSV_COLUMNS.index("bits")
        path = self._rewrite_first_row(tmp_path, lambda c: c[:bits] + ["abc"] + c[bits + 1 :])
        with pytest.raises(ConfigurationError, match="line 2, column 'bits': 'abc'"):
            harness.read_csv(path)

    def test_short_row_named(self, tmp_path):
        """int(None) raised a TypeError for the cells a short row lacks."""
        path = self._rewrite_first_row(tmp_path, lambda c: c[: harness.CSV_COLUMNS.index("bits") + 1])
        with pytest.raises(ConfigurationError, match="line 2, column 'bit_errors': no cell"):
            harness.read_csv(path)

    def test_long_row_named(self, tmp_path):
        path = self._rewrite_first_row(tmp_path, lambda c: c + ["7"])
        with pytest.raises(ConfigurationError, match="line 2 has more cells"):
            harness.read_csv(path)
