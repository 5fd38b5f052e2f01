"""Typed converters for JSON documents: scenario files, media sidecars and
``tally.json``.

Each converter takes one decoded JSON value and returns it typed, or raises
TypeError/ValueError. ``read_fields`` is the one way an object is read: it
runs a converter per key and turns a failure into a SchemaError naming the
key. A converter may itself call ``read_fields`` (or build a type whose
checks raise SchemaError); the enclosing call then puts its own key in
front, so a bad value deep in a document is named by its dotted path, e.g.
``uplink.outage.enter_prob``. This module imports nothing else from xrprobe,
so every module that reads JSON can depend on it.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

ROOT = "<root>"


class SchemaError(ValueError):
    """JSON document rejected; ``field`` is the dotted path of the offending
    field, or ``<root>`` for the document itself."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.field = path
        self.message = message


def read_json(path: str | Path):
    """The JSON document in the file at ``path``; bytes that do not decode as
    JSON, nesting past the recursion limit included, raise SchemaError at
    ``<root>`` naming the file."""
    blob = Path(path).read_bytes()
    try:
        return json.loads(blob)
    except (ValueError, RecursionError) as exc:  # bad JSON or bytes, digit or nesting limit
        raise SchemaError(ROOT, f"{path}: invalid JSON: {exc}") from None


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


def optional(convert):
    """``convert`` that also accepts null, as None."""
    return lambda value: None if value is None else convert(value)


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


def read_fields(doc, required: tuple[str, ...] = (), **convert) -> dict:
    """Convert each key of an object with its converter; a missing key stays
    missing unless it is ``required``.

    A non-object ``doc`` raises SchemaError at ``<root>``; a missing required
    key, an unknown key or a failed conversion raises it naming the key, with
    the key put in front of the field of a SchemaError the converter raised.
    """
    if not isinstance(doc, dict):
        raise SchemaError(ROOT, f"expected an object, got {type(doc).__name__}")
    values = {}
    for key, value in doc.items():
        if key not in convert:
            raise SchemaError(key, "unknown key")
        try:
            values[key] = convert[key](value)
        except SchemaError as exc:
            inner = "" if exc.field == ROOT else f".{exc.field}"
            raise SchemaError(f"{key}{inner}", exc.message) from exc
        except (TypeError, ValueError) as exc:
            raise SchemaError(key, str(exc)) from exc
    for key in required:
        if key not in values:
            raise SchemaError(key, "missing")
    return values
