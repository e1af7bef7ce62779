"""JSON's one reader and its writers (`read`, `load_json`, `write_json`, `write_json_lines`), and the CSV cell casts.

The config, component documents and network documents all read through here.
Each cast returns the value as its type, or raises TypeError or ValueError (or
OverflowError, for an int beyond the float range) when it is not one;
`checked` turns that into a SchemaError naming the value and the cast's
description, for `read` a config key and for a library function its
argument. No JSON cast truncates or parses a string, and only `boolean` reads
a boolean, which Python counts as an int. The cell casts, `text` to
`class_index`, read CSV cells for `glycast.dataset._read_rows`, and each one's
`FORMATS` entry writes the cell it reads back, for
`glycast.dataset._write_rows`. Every JSON document glycast writes goes through
`write_json`, and every JSON-lines file through `write_json_lines`.
"""

from __future__ import annotations

import json
import math
import operator
from datetime import datetime
from pathlib import Path

from .errors import SchemaError


def integer(value) -> int:
    """An int as it is: `int(20.7)` would truncate and `int("3")` parse."""
    if isinstance(value, bool):
        raise TypeError
    return operator.index(value)


def integers(value) -> tuple[int, ...]:
    """A JSON list of integers, each as `integer` reads it."""
    if not isinstance(value, list):
        raise TypeError
    return tuple(map(integer, value))


def number(value) -> float:
    """A finite int or float as a float: Python's json reads NaN and Infinity, which this refuses."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError
    value = float(value)
    if not math.isfinite(value):
        raise ValueError
    return value


def boolean(value) -> bool:
    """true or false only: `bool("false")` would be True."""
    if not isinstance(value, bool):
        raise TypeError
    return value


def string(value) -> str:
    """A string as it is: `str(["x"])` would be "['x']"."""
    if not isinstance(value, str):
        raise TypeError
    return value


def strings(value) -> tuple[str, ...]:
    """A JSON list of strings: a lone string would be read character by character."""
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError
    return tuple(value)


def objects(value) -> tuple[dict, ...]:
    """A JSON list of objects."""
    if not isinstance(value, list) or not all(isinstance(v, dict) for v in value):
        raise TypeError
    return tuple(value)


text = str.strip  # a CSV cell without its surrounding whitespace


def optional_number(cell: str) -> float | None:
    """A CSV cell's float, finite as `number` reads it, or None for a blank cell."""
    if not cell.strip():
        return None
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError
    return value


def timestamp(cell: str) -> datetime:
    """An RFC 3339 timestamp; a trailing Z or z reads as +00:00, which `fromisoformat` refuses before Python 3.11."""
    value = cell.strip()
    return datetime.fromisoformat(value[:-1] + "+00:00" if value[-1:] in ("Z", "z") else value)


def class_index(cell: str) -> int:
    """A CSV cell's non-negative integer below 2**63, so that an int64 holds it: int() refuses "1.5"."""
    value = int(cell)
    if not 0 <= value < 2**63:
        raise ValueError
    return value


def _number_cell(value: float | None) -> str:
    """Python's shortest repr, which `float` reads back to the same value, or blank for None."""
    return "" if value is None else repr(float(value))


# The inverse of each cell cast: the cell it reads back as the value.
FORMATS = {
    text: lambda value: "" if value is None else value,
    optional_number: _number_cell,
    timestamp: datetime.isoformat,
    class_index: lambda value: str(int(value)),
}

DESCRIPTIONS = {
    integer: "an integer", integers: "a list of integers", number: "a number", boolean: "true or false",
    string: "a string", strings: "a list of strings", objects: "a list of objects",
    text: "text", optional_number: "a number", timestamp: "an RFC 3339 timestamp", class_index: "a class index",
}


def checked(name: str, value, cast):
    """cast(value); SchemaError "<name> must be <description>, got <value>" for a value the cast refuses."""
    try:
        return cast(value)
    except (TypeError, ValueError, OverflowError):  # a huge JSON integer overflows a float
        raise SchemaError(f"{name} must be {DESCRIPTIONS[cast]}, got {value!r}") from None


def read(document, key: str, cast, default=None):
    """cast(document[key]), or cast(default) where the key is absent and a default is given.

    KeyError for an absent key without a default, which the caller words;
    SchemaError "'key' must be <description>, got <value>" for a value the
    cast refuses.
    """
    return checked(repr(key), document[key] if default is None else document.get(key, default), cast)


def load_json(path: Path | str) -> dict:
    """The JSON object in the file at `path`.

    SchemaError naming the file for bytes that are not UTF-8, invalid JSON
    or a document that is not an object.
    """
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise SchemaError(f"{path}: must be a JSON object, got {type(document).__name__}")
    return document


def write_json(path: Path | str, document) -> None:
    """Write `document` as JSON indented by two spaces with its keys sorted."""
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True), encoding="utf-8")


def write_json_lines(path: Path | str, documents, append: bool = False) -> None:
    """Write each document as one line of JSON with its keys sorted; append=True adds the lines after the file's."""
    with Path(path).open("a" if append else "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(document, sort_keys=True) + "\n" for document in documents)
