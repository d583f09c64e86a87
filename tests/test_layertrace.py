"""The benchmark's span tracer still finds every package function it wraps.

``perfbench/layertrace.py`` wraps functions by module attribute name, so
renaming or removing one of them breaks the benchmark's ``--trace`` runs
without failing any package test. This test imports the tracer (read
only) and checks that installing it wraps every traced attribute and
that uninstalling restores the original objects.
"""

import importlib.util
from pathlib import Path

import pytest

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
