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

from smlink import channel, modem, rxchain, txchain

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
    tracer's ``modem.sm_modulate.vectors`` count."""
    frame_layout = txchain.FrameLayout(data_symbols_per_frame=100)
    tx_layout = txchain.TransmissionLayout(n_frames=2, snr_block_symbols=50)
    n_vectors = frame_layout.data_symbols_per_frame * tx_layout.n_frames
    c = modem.build_constellation(4)
    bits = np.random.default_rng(1).integers(
        0, 2, n_vectors * modem.bits_per_vector("sm", 2, 4), dtype=np.uint8)
    tracer = layertrace.Tracer("test")
    tracer.install()
    try:
        tracer.iteration = 0
        txchain.build_transmission(bits, "sm", 2, c, frame_layout, tx_layout)
    finally:
        tracer.iteration = None
        tracer.uninstall()
    assert tracer.counts["modem.sm_modulate.vectors"] == n_vectors


def test_link_round_trip_is_traced(layertrace):
    """One encode -> channel -> decode round trip records the framing, LS
    estimation and detection spans, and the data-section count."""
    frame_layout = txchain.FrameLayout(data_symbols_per_frame=100)
    tx_layout = txchain.TransmissionLayout(n_frames=2, snr_block_symbols=50)
    c = modem.build_constellation(2)
    bits = np.random.default_rng(2).integers(0, 2, 2 * 200, dtype=np.uint8)
    tracer = layertrace.Tracer("test")
    tracer.install()
    try:
        tracer.iteration = 0
        tx = txchain.build_transmission(bits, "sm", 2, c, frame_layout, tx_layout)
        rx = channel.propagate_waveform(tx.samples, np.eye(2))
        result = rxchain.decode_transmission(rx, frame_layout, tx_layout, 2, "sm", c)
    finally:
        tracer.iteration = None
        tracer.uninstall()
    assert np.array_equal(result.bits, bits)
    names = {span[0] for span in tracer.spans}
    for name in ("txchain.build_frame", "txchain.assemble_transmission",
                 "rxchain.ls_channel_estimate", "rxchain.demodulate_frame"):
        assert name in names
    assert tracer.counts["txchain.data_samples"] == tx.sections["data"][1]
