"""The one JSON reader and the one path from a JSON object to a config object."""

import dataclasses
import json
import numbers
import typing
from pathlib import Path

from .errors import ConfigurationError

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


def build(cls, data, what):
    """Construct dataclass ``cls`` from the JSON object ``data``; ``what`` names it in errors.

    Missing required and unknown keys are refused. A null ``k_factor_db`` is
    Rayleigh (as ``save_config`` writes it), a list for a ``tuple`` field a
    tuple, and an object for a dataclass-typed field that class, built the
    same way; the class's own checks are the only type and value checks.
    """
    fields = {f.name: f for f in dataclasses.fields(cls)}
    required = {name for name, f in fields.items() if f.default is dataclasses.MISSING}
    for problem, names in (("missing required", required - data.keys()),
                           ("has unknown", data.keys() - fields.keys())):
        if names:
            raise ConfigurationError(f"{what} {problem} field(s): {', '.join(sorted(names))}")
    values = dict(data)
    for name, value in data.items():
        kind = fields[name].type
        if name == "k_factor_db" and value is None:
            values[name] = float("-inf")
        elif kind is tuple and isinstance(value, list):
            values[name] = tuple(value)
        elif dataclasses.is_dataclass(kind) and isinstance(value, dict):
            values[name] = build(kind, value, f"{what} field {name!r}")
    try:
        return cls(**values)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{what}: {exc}") from exc
