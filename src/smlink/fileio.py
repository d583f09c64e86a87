"""The one JSON reader and field checker for configs and sidecars."""

import dataclasses
import json
import math
import numbers
import typing
from pathlib import Path

from .errors import ConfigurationError

_KINDS = {int: "an integer", float: "a finite number", tuple: "a list of finite numbers"}
_NUMBERS = {int: numbers.Integral, float: numbers.Real}


def read_json(path, what):
    """Parse the JSON object in ``path``; ``what`` names it in errors."""
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigurationError(f"cannot read {what} {path}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigurationError(f"{what} must be a JSON object")
    return data


def _accepts(kind, value):
    if kind is tuple:
        return isinstance(value, list) and all(_accepts(float, v) for v in value)
    if kind is float:
        return _accepts(int, value) or (isinstance(value, float) and math.isfinite(value))
    return isinstance(value, kind) and not isinstance(value, bool)


def check_field_types(obj):
    """Refuse, with :class:`ConfigurationError` naming the class and the field,
    a field of dataclass ``obj`` whose value does not match its annotation: an
    ``int`` field takes an integer (numpy integers pass) and is stored as an int,
    a ``float`` field a real number (numpy floats pass; the class checks its
    range), a ``str`` field a str and a class-typed field an instance. bool
    passes no number field, an ``X | None`` field may hold None, and ``tuple``
    fields are left to their own checks."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        kind, *optional = typing.get_args(f.type) or (f.type,)
        if kind is tuple or (value is None and optional):
            continue
        number_as_bool = kind in _NUMBERS and isinstance(value, bool)
        if number_as_bool or not isinstance(value, _NUMBERS.get(kind, kind)):
            wanted = {int: "an integer", float: "a real number"}.get(kind, f"a {kind.__name__}")
            raise ConfigurationError(
                f"{type(obj).__name__} field {f.name!r} must be {wanted}, got {value!r}")
        if kind is int:
            object.__setattr__(obj, f.name, int(value))


def check_fields(data, kinds, required, what):
    """Check a JSON object against a name -> type table; returns the values.

    A float field takes a finite number (an int too; NaN and infinities
    are refused), a ``tuple`` field a list of finite numbers, and a null
    ``k_factor_db`` means Rayleigh (as ``save_config`` writes it).
    """
    for problem, names in (("missing required", set(required) - data.keys()),
                           ("has unknown", data.keys() - kinds.keys())):
        if names:
            raise ConfigurationError(f"{what} {problem} field(s): {', '.join(sorted(names))}")
    values = {}
    for name, value in data.items():
        kind = kinds[name]
        if name == "k_factor_db" and value is None:
            value = float("-inf")
        elif not _accepts(kind, value):
            wanted = _KINDS.get(kind, getattr(kind, "__name__", kind))
            raise ConfigurationError(f"{what} field {name!r} must be {wanted}, got {value!r}")
        values[name] = tuple(value) if kind is tuple else value
    return values


def build(cls, data, what):
    """Construct dataclass ``cls`` from a JSON object checked against its fields."""
    fields = dataclasses.fields(cls)
    required = [f.name for f in fields if f.default is dataclasses.MISSING]
    return cls(**check_fields(data, {f.name: f.type for f in fields}, required, what))
