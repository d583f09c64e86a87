"""Guards on the one JSON loader: one parser, no type table, one type check."""

import ast
import dataclasses
import typing
from pathlib import Path

import pytest

from smlink import fileio, harness, txchain
from smlink.errors import ConfigurationError

SOURCE = Path(fileio.__file__).parent

# Every dataclass that fileio.build constructs, with the required fields of a valid one.
BUILT = {
    harness.SimConfig: {"scheme": "sm", "nt": 2, "nr": 2, "modulation_order": 2,
                        "snr_grid_db": [10.0]},
    harness.Link: {"scheme": "sm", "nt": 2, "nr": 2, "modulation_order": 2,
                   "snr_grid_db": [10.0]},
    txchain.Chain: {"scheme": "sm", "nt": 2, "modulation_order": 2},
    txchain.FrameLayout: {},
    txchain.TransmissionLayout: {},
}


def _json_parses(tree):
    """The ``json.loads`` and ``json.load`` references under an AST node."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and node.attr in ("loads", "load")
            and isinstance(node.value, ast.Name) and node.value.id == "json"]


def test_json_is_parsed_only_in_read_json():
    """``json.loads`` appears in the package once, inside ``fileio.read_json``."""
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCE.glob("*.py")}
    assert {name: len(_json_parses(tree)) for name, tree in trees.items()
            if _json_parses(tree)} == {"fileio.py": 1}
    read_json = next(node for node in ast.walk(trees["fileio.py"])
                     if isinstance(node, ast.FunctionDef) and node.name == "read_json")
    assert len(_json_parses(read_json)) == 1


def test_fileio_keeps_no_name_to_type_table():
    """The dataclasses' own annotations are the only type table."""
    tables = [name for name, value in vars(fileio).items()
              if isinstance(value, dict) and not name.startswith("__")
              and any(isinstance(k, str) and isinstance(v, type) for k, v in value.items())]
    assert tables == []
    assert not hasattr(fileio, "check_fields")


@pytest.mark.parametrize("cls, field", [
    pytest.param(cls, f.name, id=f"{cls.__name__}.{f.name}")
    for cls in BUILT for f in dataclasses.fields(cls)
    if int in (f.type, *typing.get_args(f.type))])
def test_str_in_an_int_field_is_refused_by_class_and_field(cls, field):
    with pytest.raises(ConfigurationError, match=f"{cls.__name__} field {field!r} must be"):
        fileio.build(cls, {**BUILT[cls], field: "1"}, "probe")


def test_every_built_class_is_probed():
    """The classes the package hands to ``build``, and those of their
    dataclass-typed fields, are the ones probed above."""
    named = set()
    for path in SOURCE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(
                    node.func, "id", None)) == "build" and node.args:
                named.add(ast.unparse(node.args[0]).split(".")[-1])
    classes = {cls.__name__: cls for cls in BUILT}
    reached = {classes[name] for name in named - {"kind"}}  # "kind": build's own recursion
    for cls in list(reached):
        reached |= {f.type for f in dataclasses.fields(cls) if dataclasses.is_dataclass(f.type)}
    assert reached == set(BUILT)
