"""End-to-end tests of the command-line interface."""

import contextlib
import copy
import dataclasses
import io
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smlink import analysis, channel, cli, harness, modem, txchain


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def refuse_constant(constant):
    """``parse_constant`` hook that makes ``json.loads`` strict."""
    raise ValueError(f"{constant} is not JSON")


BOUND = {"scheme": "sm", "nt": 2, "nr": 2, "modulation_order": 2, "snr_grid_db": [10.0]}
LINK_KEYS = {f.name for f in dataclasses.fields(harness.Link)}
SIM = {"scheme": "sm", "nt": 2, "nr": 2, "modulation_order": 2, "snr_grid_db": [10.0],
       "bits_per_trial": 200, "trials_per_snr": 1}
CHAIN = {"scheme": "sm", "nt": 2, "modulation_order": 2,
         "transmission_layout": {"n_frames": 1, "snr_block_symbols": 50}}


def _write(path, payload):
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return path


def _bound(tmp, payload):
    return ["bound", "--config", _write(tmp / "b.json", payload), "--out", tmp / "b.csv"]


def _simulate(tmp, payload):
    return ["simulate", "--config", _write(tmp / "s.json", payload), "--out", tmp / "s.csv"]


def _encode(tmp, bits=None, config=CHAIN, **changes):
    if bits is None:
        bits = tmp / "tx.bits"
        np.packbits(np.zeros(2000, dtype=np.uint8)).tofile(bits)
    return ["encode", "--config", _write(tmp / "c.json", {**config, **changes}),
            "--bits", bits, "--out", tmp / "cap"]


def _decode(tmp, mutate=None, capture=None, meta=None):
    """Encode a one-frame capture, let ``mutate`` edit its sidecar, decode."""
    assert run_cli(*_encode(tmp)) == 0
    sidecar = json.loads((tmp / "cap_meta.json").read_text())
    if mutate:
        mutate(sidecar)
    _write(tmp / "cap_meta.json", sidecar)
    captures = [capture] if capture else [tmp / "cap_ant1.bin", tmp / "cap_ant2.bin"]
    return ["decode", "--capture", *captures, "--meta", meta or tmp / "cap_meta.json",
            "--out", tmp / "rx.bits", "--report", tmp / "report.json"]


def _odd_byte_captures(tmp):
    """Both captures gain one byte: equal lengths, each ending in a partial I,Q pair."""
    argv = _decode(tmp)
    for name in ("cap_ant1.bin", "cap_ant2.bin"):
        with open(tmp / name, "ab") as fh:
            fh.write(b"\x01")
    return argv


def _cut_second_capture(tmp):
    argv = _decode(tmp)
    capture = tmp / "cap_ant2.bin"
    capture.write_bytes(capture.read_bytes()[:1000])
    return argv


MALFORMED = {
    "bound-bad-json": lambda t: _bound(t, "{"),
    "bound-json-list": lambda t: _bound(t, [BOUND]),
    "bound-k-factor-string": lambda t: _bound(t, {**BOUND, "k_factor_db": "abc"}),
    "bound-grid-scalar": lambda t: _bound(t, {**BOUND, "snr_grid_db": 10}),
    "bound-nt-string": lambda t: _bound(t, {**BOUND, "nt": "2"}),
    "bound-unknown-key": lambda t: _bound(t, {**BOUND, "n_chanels": 10}),
    "bound-missing-file": lambda t: ["bound", "--config", t / "absent.json",
                                     "--out", t / "b.csv"],
    "bound-zero-nr": lambda t: _bound(t, {**BOUND, "nr": 0}),
    "bound-n-channels": lambda t: _bound(t, {**BOUND, "n_channels": 10}),
    "bound-seed": lambda t: _bound(t, {**BOUND, "seed": 0}),
    "bound-empty-grid": lambda t: _bound(t, {**BOUND, "snr_grid_db": []}),
    "bound-grid-4000-db": lambda t: _bound(t, {**BOUND, "snr_grid_db": [4000.0]}),
    "simulate-nt-string": lambda t: _simulate(t, {**SIM, "nt": "2"}),
    "simulate-bool-int": lambda t: _simulate(t, {**SIM, "trials_per_snr": True}),
    "simulate-zero-nr": lambda t: _simulate(t, {**SIM, "nr": 0}),
    "simulate-k-factor-nan": lambda t: _simulate(t, {**SIM, "k_factor_db": float("nan")}),
    "simulate-fo-infinity": lambda t: _simulate(t, {**SIM, "fo_cycles_per_sample": float("inf")}),
    "simulate-negative-seed": lambda t: _simulate(t, {**SIM, "master_seed": -1}),
    "plotdata-negative-seed": lambda t: ["plotdata", "--figure", "fig13", "--quick",
                                         "--seed", "-1", "--out-dir", t],
    "simulate-missing-file": lambda t: ["simulate", "--config", t / "absent.json",
                                        "--out", t / "s.csv"],
    "encode-unknown-frame-key": lambda t: _encode(t, frame_layout={"bogus": 1}),
    "encode-n-frames-string": lambda t: _encode(t, transmission_layout={"n_frames": "x"}),
    "encode-unknown-key": lambda t: _encode(t, order=2),
    "encode-missing-bits": lambda t: _encode(t, bits=t / "absent.bits"),
    "encode-short-offset-preamble": lambda t: _encode(t, frame_layout={"fo_seq_len": 25}),
    "encode-frame-over-coherence-at-100-ks": lambda t: _encode(
        t, transmission_layout={**CHAIN["transmission_layout"], "sample_rate": 1e5}),
    "decode-sidecar-without-nt": lambda t: _decode(t, lambda m: m.pop("nt")),
    "decode-frame-layout-extra-key": lambda t: _decode(
        t, lambda m: m["frame_layout"].update(bogus=1)),
    "decode-schema-9": lambda t: _decode(t, lambda m: m.update(schema_version="9")),
    "decode-binary-sidecar": lambda t: _decode(t, meta=t / "cap_ant1.bin"),
    "decode-missing-capture": lambda t: _decode(t, capture=t / "absent.bin"),
    "decode-captures-unequal-length": _cut_second_capture,
    "decode-capture-odd-byte": _odd_byte_captures,
    "decode-sidecar-nt-minus-one": lambda t: _decode(t, lambda m: m.update(nt=-1)),
    "decode-sidecar-nt-zero": lambda t: _decode(t, lambda m: m.update(nt=0)),
    "decode-symbol-scale-string": lambda t: _decode(t, lambda m: m.update(symbol_scale="0.1")),
    "decode-symbol-scale-bool": lambda t: _decode(t, lambda m: m.update(symbol_scale=True)),
    "decode-symbol-scale-negative": lambda t: _decode(t, lambda m: m.update(symbol_scale=-1.0)),
    "decode-symbol-scale-nan": lambda t: _decode(t, lambda m: m.update(symbol_scale=np.nan)),
    "decode-symbol-scale-infinity": lambda t: _decode(
        t, lambda m: m.update(symbol_scale=np.inf)),
    "decode-symbol-scale-minus-infinity": lambda t: _decode(
        t, lambda m: m.update(symbol_scale=-np.inf)),
    "fit-channel-missing-samples": lambda t: ["fit-channel", "--samples", t / "absent.txt",
                                              "--out", t / "f.json"],
    "fit-channel-non-numeric": lambda t: ["fit-channel", "--samples",
                                          _write(t / "amps.txt", "0.5\nabc\n"),
                                          "--out", t / "f.json"],
    "fit-channel-empty-samples": lambda t: ["fit-channel", "--samples", _write(t / "amps.txt", ""),
                                            "--out", t / "f.json"],
    "fit-channel-two-columns": lambda t: ["fit-channel", "--samples",
                                          _write(t / "amps.txt", "0.5 0.7\n" * 1000),
                                          "--out", t / "f.json"],
    "fit-channel-one-row": lambda t: ["fit-channel", "--samples",
                                      _write(t / "amps.txt", " ".join(["0.5", "0.7"] * 1000)),
                                      "--out", t / "f.json"],
    "complexity-zero-nr-and-m": lambda t: ["complexity", "--nt", "4",
                                           "--nr", "0", "--m", "0"],
    "complexity-zero-nt": lambda t: ["complexity", "--nt", "0"],
    "complexity-nt-not-power-of-two": lambda t: ["complexity", "--nt", "3"],
}


@pytest.mark.parametrize("make_argv", [pytest.param(f, id=k) for k, f in MALFORMED.items()])
def test_malformed_input_exits_2_with_one_error_line(tmp_path, capsys, make_argv):
    argv = make_argv(tmp_path)
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err


def _set(*path, value):
    """An edit that sets the key at ``path`` of a JSON object to ``value``."""
    def edit(obj):
        for key in path[:-1]:
            obj = obj[key]
        obj[path[-1]] = value
    return edit


def _edited(payload, edit):
    payload = copy.deepcopy(payload)
    edit(payload)
    return payload


# The four JSON inputs, each given an edit of a valid object: the simulate,
# bound and encode configs, and the sidecar that encode writes.
JSON_INPUTS = {
    "simulate": lambda t, edit: _simulate(t, _edited(SIM, edit)),
    "bound": lambda t, edit: _bound(t, _edited(BOUND, edit)),
    "encode": lambda t, edit: _encode(t, config=_edited(CHAIN, edit)),
    "sidecar": _decode,
}
# Per case and input: the edit, and the field its one error line must name.
JSON_CASES = {
    "bool-for-int": {
        "simulate": (_set("trials_per_snr", value=True), "trials_per_snr"),
        "bound": (_set("nr", value=True), "nr"),
        "encode": (_set("nt", value=True), "nt"),
        "sidecar": (_set("nt", value=True), "nt"),
    },
    "float-for-int": {
        "simulate": (_set("bits_per_trial", value=200.0), "bits_per_trial"),
        "bound": (_set("nt", value=2.0), "nt"),
        "encode": (_set("modulation_order", value=2.0), "modulation_order"),
        "sidecar": (_set("transmission_layout", "n_frames", value=1.0), "n_frames"),
    },
    "string-for-number": {
        "simulate": (_set("k_factor_db", value="33"), "k_factor_db"),
        "bound": (_set("snr_grid_db", value=["10"]), "snr_grid_db"),
        "encode": (_set("transmission_layout", "power_factor", value="0.5"), "power_factor"),
        "sidecar": (_set("symbol_scale", value="0.1"), "symbol_scale"),
    },
    "nan-literal": {
        "simulate": (_set("fo_cycles_per_sample", value=np.nan), "fo_cycles_per_sample"),
        "bound": (_set("k_factor_db", value=np.nan), "k_factor_db"),
        "encode": (_set("transmission_layout", "sample_rate", value=np.nan), "sample_rate"),
        "sidecar": (_set("symbol_scale", value=np.nan), "symbol_scale"),
    },
    "infinity-literal": {
        "simulate": (_set("k_factor_db", value=np.inf), "k_factor_db"),
        "bound": (_set("snr_grid_db", value=[10.0, np.inf]), "snr_grid_db"),
        "encode": (_set("transmission_layout", "power_factor", value=np.inf), "power_factor"),
        "sidecar": (_set("transmission_layout", "sample_rate", value=np.inf), "sample_rate"),
    },
    "layout-not-an-object": {
        "encode": (_set("frame_layout", value=[50]), "frame_layout"),
        "sidecar": (_set("transmission_layout", value=1), "transmission_layout"),
    },
    "layout-key-wrong-type": {
        "encode": (_set("transmission_layout", "n_frames", value="1"), "n_frames"),
        "sidecar": (_set("frame_layout", "rrc_rolloff", value="0.75"), "rrc_rolloff"),
    },
    "layout-key-unknown": {
        "encode": (_set("frame_layout", value={"pilot_len": 10}), "pilot_len"),
        "sidecar": (lambda m: m["transmission_layout"].update(snr_block=50), "snr_block"),
    },
    "missing-required-key": {
        "simulate": (lambda c: c.pop("scheme"), "scheme"),
        "bound": (lambda c: c.pop("snr_grid_db"), "snr_grid_db"),
        "encode": (lambda c: c.pop("modulation_order"), "modulation_order"),
        "sidecar": (lambda m: m.pop("nt"), "nt"),
    },
}


@pytest.mark.parametrize("source, edit, field", [
    pytest.param(source, edit, field, id=f"{source}-{case}")
    for case, by_source in JSON_CASES.items() for source, (edit, field) in by_source.items()])
def test_json_inputs_refuse_by_field(tmp_path, capsys, source, edit, field):
    """Every JSON input goes through one loader: a bad value, a nested layout
    that is no object or holds a bad key, or a missing key exits 2 with one
    ``error:`` line that names the field."""
    argv = JSON_INPUTS[source](tmp_path, edit)
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert re.search(rf"\b{field}\b", err), err


def _encode_decode(tmp, config, n_bits):
    """Encode ``n_bits`` seeded bits with ``config``, decode them; returns the report."""
    bits = np.random.default_rng(3).integers(0, 2, n_bits).astype(np.uint8)
    np.packbits(bits).tofile(tmp / "tx.bits")
    assert run_cli("encode", "--config", _write(tmp / "c.json", config),
                   "--bits", tmp / "tx.bits", "--out", tmp / "cap") == 0
    nt = config["nt"]
    assert run_cli("decode", "--capture", *[tmp / f"cap_ant{t}.bin" for t in range(1, nt + 1)],
                   "--meta", tmp / "cap_meta.json", "--out", tmp / "rx.bits",
                   "--report", tmp / "report.json", "--reference-bits", tmp / "tx.bits") == 0
    return json.loads((tmp / "report.json").read_text(), parse_constant=refuse_constant)


@pytest.mark.parametrize("power_factor", [0.8, 0.9, 1.0])
def test_encode_round_trips_at_any_power_factor(tmp_path, power_factor):
    """SM nt=4 QPSK: the pilot signals drive all four antennas at once, so
    the antenna-combined data peak is about 1.77 x the power factor, above
    the full-scale sync pulses at 0.9 and 1.0. Sync compares the pulses with
    their own gaps only, so every factor up to full scale round-trips."""
    config = {"scheme": "sm", "nt": 4, "modulation_order": 4,
              "transmission_layout": {"n_frames": 1, "snr_block_symbols": 50,
                                      "power_factor": power_factor}}
    report = _encode_decode(tmp_path, config, 4000)
    # The gaps are silent: the sync margin is unbounded, written as null.
    assert report["bit_errors"] == 0 and report["sync_margin"] is None


def test_long_frame_at_a_high_sample_rate_encodes(tmp_path):
    """A 21 300-symbol frame lasts 0.852 ms at 100 Ms/s, inside the 7 ms
    coherence budget, so it encodes and decodes; the sidecar keeps the rate."""
    config = {**CHAIN, "frame_layout": {"data_symbols_per_frame": 20_000},
              "transmission_layout": {**CHAIN["transmission_layout"], "sample_rate": 1e8}}
    assert _encode_decode(tmp_path, config, 40_000)["bit_errors"] == 0
    assert json.loads((tmp_path / "cap_meta.json").read_text())["sample_rate"] == 1e8


# Small layouts: the frame count and sounding block length are always
# drawn, any other field is drawn or left at its default. Most drawn
# values are accepted; the ranges reach just past the accepted ones.
_FRAME_FIELDS = {
    "zero_pad_len": st.integers(0, 40),
    "pilot_sequences_per_signal": st.integers(1, 12),
    "pilot_seq_len": st.integers(1, 12),
    "fo_seq_len": st.integers(20, 200),
    "data_symbols_per_frame": st.integers(0, 200),
    "upsample_factor": st.integers(1, 8),
    "rrc_num_taps": st.integers(2, 64),
    "rrc_rolloff": st.floats(0.05, 1.0),
}
_TRANSMISSION_SIZES = {"n_frames": st.integers(1, 3), "snr_block_symbols": st.integers(1, 300)}
_TRANSMISSION_FIELDS = {
    "sync_pulses": st.integers(1, 25),
    "sync_gap_symbols": st.integers(1, 60),
    "snr_blocks": st.integers(1, 6),
    "power_factor": st.floats(0.0, 1.05),
}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(link=st.sampled_from([("sm", 2, 2), ("sm", 4, 4), ("smx", 2, 2), ("smx", 2, 4)]),
       frame=st.fixed_dictionaries({}, optional=_FRAME_FIELDS),
       transmission=st.fixed_dictionaries(_TRANSMISSION_SIZES, optional=_TRANSMISSION_FIELDS),
       seed=st.integers(0, 2**32 - 1))
def test_encode_decode_round_trip_or_refused(tmp_path_factory, link, frame, transmission,
                                             seed):
    """Noiseless ``encode`` -> ``decode`` over drawn layouts: each command
    exits 2 with one ``error:`` line, or the decode has 0 bit errors."""
    tmp = tmp_path_factory.mktemp("roundtrip")
    scheme, nt, order = link
    defaults = {**vars(txchain.FrameLayout()), **vars(txchain.TransmissionLayout())}
    sizes = {**defaults, **frame, **transmission}
    n_bits = max(modem.bits_per_vector(scheme, nt, order) * sizes["data_symbols_per_frame"]
                 * sizes["n_frames"], 0)
    bits = np.random.default_rng(seed).integers(0, 2, n_bits).astype(np.uint8)
    np.packbits(bits).tofile(tmp / "tx.bits")
    config = {"scheme": scheme, "nt": nt, "modulation_order": order,
              "frame_layout": frame, "transmission_layout": transmission}
    steps = [
        ["encode", "--config", _write(tmp / "c.json", config), "--bits", tmp / "tx.bits",
         "--out", tmp / "cap"],
        ["decode", "--capture", *[tmp / f"cap_ant{t + 1}.bin" for t in range(nt)],
         "--meta", tmp / "cap_meta.json", "--out", tmp / "rx.bits",
         "--report", tmp / "report.json", "--reference-bits", tmp / "tx.bits"],
    ]
    for argv in steps:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_cli(*argv)
        err = err.getvalue()
        if code == 2:
            assert len(err.splitlines()) == 1 and err.startswith("error: ")
            return
        assert code == 0 and not err
    report = json.loads((tmp / "report.json").read_text(), parse_constant=refuse_constant)
    assert report["n_bits"] == n_bits and report["bit_errors"] == 0


@settings(max_examples=30, deadline=None)
@given(key=st.text(min_size=1).filter(lambda k: k not in LINK_KEYS))
def test_bound_rejects_any_unknown_key(tmp_path_factory, key):
    tmp = tmp_path_factory.mktemp("bound")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        assert run_cli(*_bound(tmp, {**BOUND, key: 1})) == 2
    assert "unknown field(s)" in err.getvalue()


class TestComplexityCommand:
    def test_prints_and_writes_table(self, tmp_path, capsys):
        out = tmp_path / "cx.csv"
        assert run_cli("complexity", "--nt", "4", "128", "--nr", "2",
                       "--m", "4", "--out", out) == 0
        text = capsys.readouterr().out
        assert "60" in text and "98.4" in text
        lines = out.read_text().splitlines()
        assert lines[0] == "nt,nr,m,sm_mults,smx_mults,reduction_percent"
        assert lines[1].startswith("4,2,4,")
        assert len(lines) == 3


class TestBoundCommand:
    def test_matches_direct_evaluation(self, tmp_path, capsys):
        cfg = {
            "scheme": "sm", "nt": 2, "nr": 2, "modulation_order": 2,
            "k_factor_db": 33.0, "snr_grid_db": [30.0, 40.0],
        }
        cfg_path = tmp_path / "bound.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "bound.csv"
        assert run_cli("bound", "--config", cfg_path, "--out", out) == 0

        direct = analysis.union_bound_aber(
            analysis.BoundConfig(
                scheme="sm", nt=2, nr=2, modulation_order=2,
                fading=channel.FadingModel(33.0),
                snr_grid_db=(30.0, 40.0),
            ),
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "snr_db,aber_bound,scheme,nt,nr,m"
        for line, snr, val in zip(lines[1:], (30.0, 40.0), direct):
            cells = line.split(",")
            assert float(cells[0]) == snr
            assert float(cells[1]) == pytest.approx(val, rel=1e-9)
            assert cells[2:] == ["sm", "2", "2", "2"]

    @pytest.mark.parametrize("k_db", [None, 33.0])
    @pytest.mark.parametrize("profile", ["none", "rx_config_1"])
    def test_reads_the_link_of_a_saved_sim_config(self, tmp_path, k_db, profile):
        """A saved SimConfig with its non-link keys dropped is a bound config,
        and bounds the same link: simulate and bound read one schema."""
        sim = harness.SimConfig(scheme="sm", nt=2, nr=2, modulation_order=2,
                                snr_grid_db=(20.0, 30.0),
                                k_factor_db=float("-inf") if k_db is None else k_db,
                                pi_profile=profile, bits_per_trial=2000, master_seed=3)
        saved = json.loads(harness.save_config(sim, tmp_path / "sim.json").read_text())
        assert saved["k_factor_db"] == k_db
        link = {key: value for key, value in saved.items() if key in LINK_KEYS}
        assert link.keys() == LINK_KEYS
        assert run_cli(*_bound(tmp_path, link)) == 0
        want = analysis.union_bound_aber(analysis.BoundConfig(
            scheme="sm", nt=2, nr=2, modulation_order=2,
            fading=channel.FadingModel(float("-inf") if k_db is None else k_db),
            imbalance=channel.imbalance_profile(profile), snr_grid_db=(20.0, 30.0)))
        got = [float(line.split(",")[1])
               for line in (tmp_path / "b.csv").read_text().splitlines()[1:]]
        assert got == [float(f"{v:.10g}") for v in want]

    def test_int_values_in_float_fields(self, tmp_path):
        """Ints are accepted where floats are expected and give the same CSV;
        the writer creates the output directory."""
        as_float = {**BOUND, "k_factor_db": 33.0, "snr_grid_db": [30.0, 40.0]}
        as_int = {**as_float, "k_factor_db": 33, "snr_grid_db": [30, 40]}
        a, b = tmp_path / "float" / "b.csv", tmp_path / "int" / "b.csv"
        assert run_cli("bound", "--config", _write(tmp_path / "f.json", as_float),
                       "--out", a) == 0
        assert run_cli("bound", "--config", _write(tmp_path / "i.json", as_int),
                       "--out", b) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("key", ["n_channels", "seed"])
    def test_sampling_keys_refused_by_name(self, tmp_path, capsys, key):
        """The bound is exact: a channel-draw count or seed has no meaning."""
        capsys.readouterr()
        assert run_cli(*_bound(tmp_path, {**BOUND, key: 1})) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and key in err

    def test_snr_past_quadrature_range_fails_with_exit_2(self, tmp_path, capsys):
        capsys.readouterr()
        assert run_cli(*_bound(tmp_path, {**BOUND, "snr_grid_db": [10.0, 3030.0]})) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "3030.0" in err

    def test_missing_fields_fail_with_exit_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"scheme": "sm"}))
        assert run_cli("bound", "--config", cfg_path,
                       "--out", tmp_path / "x.csv") == 2
        assert "missing" in capsys.readouterr().err


class TestSimulateCommand:
    def test_small_sweep(self, tmp_path, capsys):
        cfg = harness.save_config(
            harness.SimConfig(
                scheme="sm", nt=2, nr=2, modulation_order=2,
                snr_grid_db=(6.0, 10.0), bits_per_trial=2000,
                trials_per_snr=2, target_bit_errors=None, master_seed=1,
            ),
            tmp_path / "sim.json",
        )
        out = tmp_path / "sim.csv"
        assert run_cli("simulate", "--config", cfg, "--out", out) == 0
        rows = harness.read_csv(out)
        assert [r["snr_db_target"] for r in rows] == [6.0, 10.0]
        assert all(r["bits"] == 4000 for r in rows)
        assert rows[0]["aber"] > rows[1]["aber"] > 0
        assert "aber" in capsys.readouterr().out

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        assert run_cli("simulate", "--config", bad,
                       "--out", tmp_path / "o.csv") == 2


class TestEncodeDecodeCommands:
    def test_benchmark_round_trip_working_set(self, tmp_path, capsys):
        """``encode`` then ``decode`` of the default 50-frame 2x2 SM/BPSK chain
        (100 000 bits, 4.5 M samples per antenna) hold at most 3 MiB of traced
        memory at once after a warm round trip (measured: 1.9 MiB; 3.7 MiB
        when the writer's and the decoder's previous block lived on while the
        next was built, and the shaping zero-stuffed an (nt, 32 807) array)."""
        config = _write(tmp_path / "chain.json", {"scheme": "sm", "nt": 2, "modulation_order": 2})
        bits = tmp_path / "payload.bin"
        np.packbits(np.random.default_rng(3).integers(0, 2, 100_000, dtype=np.uint8)).tofile(bits)
        cap = tmp_path / "tx"

        def round_trip():
            assert run_cli("encode", "--config", config, "--bits", bits, "--out", cap) == 0
            assert run_cli("decode", "--capture", f"{cap}_ant1.bin", f"{cap}_ant2.bin",
                           "--meta", f"{cap}_meta.json", "--out", tmp_path / "decoded.bin",
                           "--report", tmp_path / "report.json", "--reference-bits", bits) == 0

        round_trip()  # first-call allocations
        tracemalloc.start()
        try:
            round_trip()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert json.loads((tmp_path / "report.json").read_text())["bit_errors"] == 0
        assert peak <= 3 * 2**20

    def test_loopback_roundtrip(self, tmp_path, capsys):
        chain_cfg = {
            "scheme": "sm", "nt": 2, "modulation_order": 2,
            "transmission_layout": {"n_frames": 2, "snr_block_symbols": 200},
        }
        cfg_path = tmp_path / "chain.json"
        cfg_path.write_text(json.dumps(chain_cfg))

        rng = np.random.default_rng(31)
        n_bits = 2 * 2 * 1000  # m * data symbols * frames
        bits = rng.integers(0, 2, n_bits).astype(np.uint8)
        bits_path = tmp_path / "tx.bits"
        np.packbits(bits).tofile(bits_path)

        assert run_cli("encode", "--config", cfg_path, "--bits", bits_path,
                       "--out", tmp_path / "cap") == 0
        meta = tmp_path / "cap_meta.json"
        assert meta.exists()
        sidecar = json.loads(meta.read_text())
        assert sidecar["scheme"] == "sm"
        assert sidecar["n_bits"] == n_bits

        # Feeding the encoder's own streams back = identity channel.
        out_bits = tmp_path / "rx.bits"
        report_path = tmp_path / "report.json"
        assert run_cli(
            "decode",
            "--capture", tmp_path / "cap_ant1.bin", tmp_path / "cap_ant2.bin",
            "--meta", meta, "--out", out_bits, "--report", report_path,
            "--reference-bits", bits_path,
        ) == 0
        report = json.loads(report_path.read_text(), parse_constant=refuse_constant)
        assert report["bit_errors"] == 0
        assert report["ber"] == 0
        assert report["n_bits"] == n_bits
        assert report["sync_tx_start"] == 0
        # Noiseless gaps are silent: the infinite margin and SNR are written as null.
        assert report["sync_margin"] is None
        assert report["snr_db"] is None and report["snr_valid"] is False
        assert len(report["fo_cycles_per_sample"]) == 2
        assert max(abs(f) for f in report["fo_cycles_per_sample"]) <= 1e-6
        # identity channel: reported estimates are near the unit matrix
        first = np.array(report["channel_estimates"][0]["first"])
        h_hat = (first[:, 0] + 1j * first[:, 1]).reshape(2, 2)
        assert np.max(np.abs(h_hat - np.eye(2))) < 1e-3
        decoded = np.unpackbits(np.fromfile(out_bits, dtype=np.uint8))[:n_bits]
        assert np.array_equal(decoded, bits)


    @pytest.mark.parametrize("config", [
        CHAIN,
        {"scheme": "smx", "nt": 2, "modulation_order": 4,
         "frame_layout": {"data_symbols_per_frame": 300, "rrc_rolloff": 0.5},
         "transmission_layout": {"n_frames": 2, "snr_block_symbols": 40,
                                 "power_factor": 0.25, "sample_rate": 20_000_000}},
    ], ids=["default-layouts", "smx-own-layouts"])
    def test_sidecar_chain_keys_are_an_encode_config(self, tmp_path, config):
        """The chain keys of a sidecar that ``encode`` wrote, saved as an
        encode config, encode the same bits to byte-identical captures and
        sidecar: encode and decode read one schema."""
        chain_keys = {f.name for f in dataclasses.fields(txchain.Chain)}
        bits = tmp_path / "tx.bits"
        np.packbits(np.random.default_rng(8).integers(0, 2, 4000).astype(np.uint8)).tofile(bits)
        runs = []
        for run, payload in enumerate([config, None]):
            out = tmp_path / str(run)
            out.mkdir()
            if payload is None:  # the chain keys of the first run's sidecar
                sidecar = json.loads((runs[0] / "cap_meta.json").read_text())
                payload = {key: value for key, value in sidecar.items() if key in chain_keys}
                assert payload.keys() == chain_keys
            assert run_cli("encode", "--config", _write(out / "c.json", payload),
                           "--bits", bits, "--out", out / "cap") == 0
            runs.append(out)
        for name in ("cap_ant1.bin", "cap_ant2.bin", "cap_meta.json"):
            assert (runs[1] / name).read_bytes() == (runs[0] / name).read_bytes()


class TestFitChannelCommand:
    def test_fit_from_text_samples(self, tmp_path, capsys):
        rng = np.random.default_rng(12)
        fm = channel.FadingModel(33.0)
        x = np.abs(channel.draw_channels(20_000, 1, 1, fm, rng=rng)).reshape(-1)
        samples = tmp_path / "amps.txt"
        np.savetxt(samples, x)
        out = tmp_path / "fit.json"
        assert run_cli("fit-channel", "--samples", samples, "--out", out) == 0
        fit = json.loads(out.read_text())
        assert fit["k_factor_db"] == pytest.approx(33.0, abs=1.0)
        assert fit["n_samples"] == 20_000
        assert "K =" in capsys.readouterr().out

    def test_rayleigh_fit_writes_valid_json(self, tmp_path):
        """K = -inf dB (this draw's ML answer) is written as null, not -Infinity."""
        fm = channel.FadingModel(float("-inf"))
        x = np.abs(channel.draw_channels(5_000, 1, 1, fm, rng=np.random.default_rng(10))).reshape(-1)
        samples = tmp_path / "amps.txt"
        np.savetxt(samples, x)
        out = tmp_path / "fit.json"
        assert run_cli("fit-channel", "--samples", samples, "--out", out) == 0

        fit = json.loads(out.read_text(), parse_constant=refuse_constant)
        assert fit["k_factor_db"] is None
        assert fit["nu"] == 0.0
        assert fit["converged"] is True


class TestPlotdataCommand:
    def test_quick_bundle_structure(self, tmp_path, capsys):
        assert run_cli("plotdata", "--figure", "fig12", "--out-dir", tmp_path,
                       "--quick") == 0
        out = tmp_path / "fig12.csv"
        lines = out.read_text().splitlines()
        assert lines[0] == "figure,curve,kind,snr_db,aber,bits,bit_errors"
        body = [line.split(",") for line in lines[1:]]
        curves = {row[1] for row in body}
        assert curves == {"sm_nt64_m4", "smx_nt8_m2", "smx_nt4_m4"}
        assert all(row[2] == "sim" for row in body)  # this figure has no bound
        grid = sorted({float(row[3]) for row in body})
        assert grid == [float(s) for s in range(6, 22, 2)]

    def test_bound_rows_are_clipped(self, tmp_path):
        assert run_cli("plotdata", "--figure", "fig10", "--out-dir", tmp_path,
                       "--quick", "--trials", "1") == 0
        rows = [line.split(",") for line in
                (tmp_path / "fig10.csv").read_text().splitlines()[1:]]
        bound_vals = [float(r[4]) for r in rows if r[2] == "bound"]
        assert bound_vals  # bound rows present for this figure
        assert all(v <= 0.5 for v in bound_vals)
        assert bound_vals == sorted(bound_vals, reverse=True)


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            cli.main(["plotdata", "--figure", "fig99", "--out-dir", "/tmp/x"])
