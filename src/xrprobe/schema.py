"""Typed converters for JSON documents: scenario files, media sidecars and
``tally.json``.

Each converter takes one decoded JSON value and returns it typed, or raises
TypeError/ValueError; ``read_fields`` and ``build`` turn that into a
SchemaError naming the offending field. This module imports nothing else
from xrprobe, so every module that reads JSON can depend on it.
"""

from __future__ import annotations

import math


class ConfigError(ValueError):
    pass


class SchemaError(ConfigError):
    """JSON document rejected; names the offending field."""

    def __init__(self, fieldname: str, message: str):
        super().__init__(f"{fieldname}: {message}")
        self.field = fieldname
        self.message = message


def finite(value) -> float:
    """A JSON number as a finite float; strings, booleans, NaN and infinities fail."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    try:
        value = float(value)
    except OverflowError:
        raise ValueError("number out of range") from None
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value}")
    return value


def integer(value) -> int:
    """A JSON integer; an integral float such as 20.0 passes, fractions do not."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def opt_finite(value) -> float | None:
    return None if value is None else finite(value)


def flag(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _array(value) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"expected a list, got {type(value).__name__}")
    return value


def numbers(value) -> tuple[float, ...]:
    return tuple(finite(x) for x in _array(value))


def text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {type(value).__name__}")
    return value


def names(value) -> tuple[str, ...]:
    return tuple(text(x) for x in _array(value))


def json_object(value) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"expected an object, got {type(value).__name__}")
    return value


def read_fields(doc: dict, fieldname: str, required: tuple[str, ...] = (), **convert) -> dict:
    """Convert each key of an object with its converter; a missing key stays
    missing unless it is ``required``. A missing required key, an unknown key
    or a failed conversion raises SchemaError naming ``fieldname.key``
    (``key`` alone when ``fieldname`` is empty)."""
    if not isinstance(doc, dict):
        raise SchemaError(fieldname or "<root>", "must be an object")
    values = {}
    for key, value in doc.items():
        name = f"{fieldname}.{key}" if fieldname else key
        if key not in convert:
            raise SchemaError(name, "unknown key")
        try:
            values[key] = convert[key](value)
        except (TypeError, ValueError) as exc:
            raise SchemaError(name, str(exc)) from exc
    for key in required:
        if key not in values:
            raise SchemaError(f"{fieldname}.{key}" if fieldname else key, "missing")
    return values


def build(cls, doc: dict, fieldname: str, required: tuple[str, ...] = (), **convert):
    """``cls`` from the ``read_fields`` of ``doc``; a rejection by ``cls``
    itself is a SchemaError under ``fieldname`` too."""
    kwargs = read_fields(doc, fieldname, required, **convert)
    try:
        return cls(**kwargs)
    except SchemaError as exc:
        raise SchemaError(f"{fieldname}.{exc.field}", exc.message) from exc
    except ValueError as exc:
        raise SchemaError(fieldname, str(exc)) from exc
