"""The benchmark's span tracer still finds every package function it wraps.

``perfbench/layertrace.py`` wraps functions by module attribute name, so
renaming or removing one of them breaks the benchmark's ``--trace`` runs
without failing any package test. This test imports the tracer (read
only) and checks that installing it wraps every traced attribute and
that uninstalling restores the original objects, and that a count hook
sees the calls the package makes through module attributes.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from smlink import channel, rxchain, txchain

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


@pytest.fixture(scope="module")
def layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_is_wrapped_and_restored(layertrace):
    missing = [f"{m.__name__}.{attr}" for m, attr, _ in layertrace.TRACED
               if not hasattr(m, attr)]
    assert not missing, f"traced names missing from the package: {missing}"
    originals = [(m, attr, getattr(m, attr)) for m, attr, _ in layertrace.TRACED]
    tracer = layertrace.Tracer("test")
    tracer.install()
    try:
        for module, attr, original in originals:
            wrapped = getattr(module, attr)
            assert wrapped is not original
            assert wrapped.__wrapped__ is original
    finally:
        tracer.uninstall()
    for module, attr, original in originals:
        assert getattr(module, attr) is original


def test_sm_modulation_is_counted_through_build_transmission(layertrace):
    """The SM vectors built by the one bits->frames path land in the
    tracer's ``modem.sm_modulate.vectors`` count. The transmission
    modulates its frames as they are read: once in the shaping pass that
    sets its scale, and once more when the tracer's count of
    ``assemble_transmission`` reads its ``samples`` (both one block here)."""
    chain = txchain.Chain("sm", 2, 4, txchain.FrameLayout(data_symbols_per_frame=100),
                          txchain.TransmissionLayout(n_frames=2, snr_block_symbols=50))
    n_vectors = chain.payload_bits // chain.bits_per_vector
    bits = np.random.default_rng(1).integers(0, 2, chain.payload_bits, dtype=np.uint8)
    tracer = layertrace.Tracer("test")
    tracer.install()
    try:
        tracer.iteration = 0
        txchain.build_transmission(bits, chain)
    finally:
        tracer.iteration = None
        tracer.uninstall()
    assert tracer.counts["modem.sm_modulate.vectors"] == 2 * n_vectors


def test_link_round_trip_is_traced(layertrace, tmp_path):
    """One encode -> channel -> decode round trip, and a decode of the
    transmission's capture files, record the framing, matched filter,
    offset, LS estimation and detection spans, and the sample counts: a
    stage the decoder reached other than through its module attribute
    would leave its per-layer metrics at 0. The channel's block source and
    the decoder's view of the sounding section report their sizes, nr * n
    and nr * (sounding length), as the arrays they replace did."""
    chain = txchain.Chain("sm", 2, 2, txchain.FrameLayout(data_symbols_per_frame=100),
                          txchain.TransmissionLayout(n_frames=2, snr_block_symbols=50))
    bits = np.random.default_rng(2).integers(0, 2, 2 * 200, dtype=np.uint8)
    tracer = layertrace.Tracer("test")
    tracer.install()
    try:
        tracer.iteration = 0
        tx = txchain.build_transmission(bits, chain)
        rx = channel.propagate_waveform(tx, np.eye(2))
        result = rxchain.decode_transmission(rx, chain)
        txchain.write_waveform(tmp_path / "cap", tx)
        files = txchain.read_captures([tmp_path / "cap_ant1.bin", tmp_path / "cap_ant2.bin"])
        from_files = rxchain.decode_transmission(files, chain)
    finally:
        tracer.iteration = None
        tracer.uninstall()
    assert np.array_equal(result.bits, bits)
    assert np.array_equal(from_files.bits, bits)
    names = {span[0] for span in tracer.spans}
    for name in ("txchain.build_frame", "txchain.assemble_transmission",
                 "rxchain.matched_filter_downsample", "rxchain.estimate_fo",
                 "rxchain.correct_fo", "rxchain.ls_channel_estimate",
                 "rxchain.demodulate_frame", "txchain.dequantize_i16"):
        assert name in names
    assert tracer.counts["txchain.data_samples"] == tx.sections["data"][1]
    assert tracer.counts["channel.propagate_waveform.samples"] == 2 * tx.shape[1]
    assert tracer.counts["rxchain.estimate_snr.samples"] == 2 * 2 * tx.sections["snr"][1]
