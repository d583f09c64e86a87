"""The block-source protocol: ``segment(start, stop, out=None)`` on every source."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smlink import channel, rxchain, txchain
from smlink.errors import DimensionError

SOURCE = Path(channel.__file__).parent

KINDS = ["frame-stream", "transmission", "channel", "files", "screened", "section", "array"]


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """kind -> a block source (or, for "array", an array read through
    ``segment_reader``'s adapter): a 2-frame transmission and its frame
    stream, its noisy output of a 3x2 channel with a carrier offset, that
    output screened by the decoder and a section of it, and the
    transmission's int16 capture files."""
    chain = txchain.Chain("sm", 2, 2, txchain.FrameLayout(data_symbols_per_frame=100),
                          txchain.TransmissionLayout(n_frames=2, snr_block_symbols=500))
    bits = np.random.default_rng(2).integers(0, 2, chain.payload_bits, dtype=np.uint8)
    tx = txchain.build_transmission(bits, chain)
    h = np.array([[1.0 + 0.1j, 0.35 + 0.2j], [0.1 - 0.4j, 0.9 - 0.05j], [0.2, 0.3j]])
    received = channel.propagate_waveform(tx, h, -3e-4, 0.01, np.random.default_rng(8))
    folder = tmp_path_factory.mktemp("captures")
    txchain.write_waveform(folder / "cap", tx)
    screened = rxchain._ScreenedCapture(channel.propagate_waveform(
        tx, h, 2e-4, 0.02, np.random.default_rng(9)))
    return {
        "frame-stream": tx.stream,
        "transmission": tx,
        "channel": received,
        "files": txchain.read_captures([folder / "cap_ant1.bin", folder / "cap_ant2.bin"]),
        "screened": screened,
        "section": rxchain._Section(screened, 1000, tx.shape[1] - 3000),
        "array": tx.segment(0, 5000),
    }


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_read_into_out_equals_a_new_read(sources, kind, data):
    """``segment(a, b, out=buf)`` fills every entry of ``buf`` (NaN before)
    with the bytes of ``segment(a, b)`` and returns ``buf``, at any bounds."""
    segment, (rows, n), dtype = channel.segment_reader(sources[kind])
    start, stop = sorted(data.draw(st.tuples(st.integers(0, n), st.integers(0, n))))
    fresh = segment(start, stop)
    buf = np.full((rows, stop - start), np.nan, dtype=dtype)
    assert segment(start, stop, out=buf) is buf
    assert buf.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_out_of_another_shape_or_dtype_refused(sources, kind):
    segment, (rows, _), dtype = channel.segment_reader(sources[kind])
    for out in (np.empty((rows, 9), dtype), np.empty((rows + 1, 10), dtype),
                np.empty((rows, 10), np.complex64), np.empty((rows, 10)),
                np.empty(rows * 10, dtype), [[0j] * 10] * rows):
        with pytest.raises(DimensionError, match="segment output"):
            segment(100, 110, out=out)


def _segment_functions():
    """(where, out default or None) of every function named ``segment`` in the package."""
    found = []
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for parent in ast.walk(tree):
            if not isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                continue
            for node in parent.body:
                if isinstance(node, ast.FunctionDef) and node.name == "segment":
                    names = [a.arg for a in node.args.args]
                    defaults = dict(zip(names[len(names) - len(node.args.defaults):],
                                        node.args.defaults))
                    out = defaults.get("out")
                    found.append((f"{path.stem}.{getattr(parent, 'name', '')}",
                                  None if out is None else ast.unparse(out)))
    return found


def test_every_segment_takes_out():
    """Every ``segment`` method of the package, and the array adapter that
    ``segment_reader`` returns, takes ``out=None``."""
    found = _segment_functions()
    assert {where for where, _ in found} == {
        "txchain._FrameStream", "txchain.TransmissionVector", "txchain.CaptureFiles",
        "channel.segment_reader", "channel.ReceivedWaveform",
        "rxchain._ScreenedCapture", "rxchain._Section"}
    assert all(out == "None" for _, out in found), found


def test_no_allocator_settings():
    """The package reads fewer, reused buffers instead of tuning the
    allocator: no module calls ``mallopt`` or names a ``MALLOC_`` variable,
    which are settings of the whole process."""
    for path in SOURCE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", getattr(node, "attr", None))
            text = node.value if isinstance(node, ast.Constant) else None
            assert name != "mallopt", path.name
            assert not (isinstance(text, str) and (text.startswith("MALLOC_")
                                                   or text == "mallopt")), path.name
