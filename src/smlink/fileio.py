"""The one JSON reader and field checker for configs and sidecars."""

import dataclasses
import json
import math
import numbers
from pathlib import Path

from .errors import ConfigurationError

_KINDS = {int: "an integer", float: "a finite number", tuple: "a list of finite numbers"}


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


def check_integer_fields(obj):
    """Refuse, with :class:`ConfigurationError`, an ``int`` field of dataclass
    ``obj`` that does not hold an integer (numpy integers pass, bool does not;
    an ``int | None`` field may hold None), and store each one as an int."""
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if f.type not in (int, int | None) or (value is None and f.type != int):
            continue
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise ConfigurationError(
                f"{type(obj).__name__} field {f.name!r} must be an integer, got {value!r}")
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
