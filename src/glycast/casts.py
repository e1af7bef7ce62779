"""JSON's one reader and its writers (`read`, `load_json`, `write_json`, `write_json_lines`), and the CSV cell casts.

The config, component documents and network documents all read through here.
Each cast returns the value as its type, or raises TypeError for a value of
another type and ValueError (or OverflowError, for an int beyond the float
range) for one outside the type's domain; `checked` turns these into a
SchemaError and a RangeError naming the value and the cast's description, for
`read` a config key, for a library function its argument and for a settings
dataclass its field. `FIELD_CASTS` holds the cast of each settings field's
annotation: `cast_fields` applies them to an instance and checks that a
field annotated with a settings dataclass holds one, and `read_fields`
builds an instance from a JSON object. No JSON cast truncates or parses a
string, and only `boolean` reads a boolean, which Python counts as an int.
The cell casts, `text` to `class_index`, read CSV cells for
`glycast.dataset._read_rows`, and each one's `FORMATS` entry writes the cell
it reads back, for `glycast.dataset._write_rows`. Every JSON document glycast writes goes through
`write_json`, and every JSON-lines file through `write_json_lines`.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
import operator
import typing
from dataclasses import MISSING, fields, is_dataclass
from datetime import datetime
from pathlib import Path

from .errors import RangeError, SchemaError


def integer(value) -> int:
    """An int as it is: `int(20.7)` would truncate and `int("3")` parse."""
    if isinstance(value, bool):
        raise TypeError
    return operator.index(value)


def integers(value) -> tuple[int, ...]:
    """A JSON list, or a tuple, of integers, each as `integer` reads it."""
    if not isinstance(value, (list, tuple)):
        raise TypeError
    return tuple(map(integer, value))


def number(value) -> float:
    """A finite real (a numpy scalar too) as a float: Python's json reads NaN and Infinity, which this refuses."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
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
    """cast(value); "<name> must be <description>, got <value>" for a value the cast refuses.

    SchemaError for a value of the wrong type, RangeError for one of the
    right type outside the cast's domain: NaN, an infinity, or an integer
    too large for a float.
    """
    try:
        return cast(value)
    except TypeError:
        raise SchemaError(f"{name} must be {DESCRIPTIONS[cast]}, got {value!r}") from None
    except (ValueError, OverflowError):  # a huge JSON integer overflows a float
        raise RangeError(f"{name} must be {DESCRIPTIONS[cast]}, got {value!r}") from None


# The cast of each settings field's annotation as written: the settings modules
# import `annotations` from __future__, so a field's type is this string.
FIELD_CASTS = {"int": integer, "float": number, "bool": boolean, "str": string, "tuple[int, ...]": integers}


@functools.cache
def _nested_settings(cls) -> dict[str, tuple[type, bool]]:
    """Each field of `cls` annotated with a dataclass, or Optional of one: (that dataclass, whether None is allowed)."""
    nested = {}
    for name, hint in typing.get_type_hints(cls).items():
        args = typing.get_args(hint) if typing.get_origin(hint) is typing.Union else (hint,)
        classes = [arg for arg in args if is_dataclass(arg)]
        if len(classes) == 1:
            nested[name] = (classes[0], type(None) in args)
    return nested


def cast_fields(settings) -> None:
    """Set each field of the dataclass `settings` that FIELD_CASTS annotates to its cast value, frozen or not.

    Through `checked`, so a value the cast refuses raises the SchemaError or
    RangeError that names the field. A field annotated with a settings
    dataclass, such as a nested prior, must hold an instance of it, or None
    where the annotation is Optional: SchemaError naming the field otherwise.
    """
    nested = _nested_settings(type(settings))
    for setting in fields(settings):
        value = getattr(settings, setting.name)
        cast = FIELD_CASTS.get(setting.type)
        if cast is not None:
            object.__setattr__(settings, setting.name, checked(setting.name, value, cast))
        elif setting.name in nested:
            cls, optional = nested[setting.name]
            if not (isinstance(value, cls) or optional and value is None):
                expected = f"a {cls.__name__} or None" if optional else f"a {cls.__name__}"
                raise SchemaError(f"{setting.name} must be {expected}, got {value!r}")


def read(document, key: str, cast, default=None):
    """cast(document[key]), or cast(default) where the key is absent and a default is given.

    KeyError for an absent key without a default, which the caller words;
    SchemaError (or RangeError, as `checked` words it) "'key' must be
    <description>, got <value>" for a value the cast refuses.
    """
    return checked(repr(key), document[key] if default is None else document.get(key, default), cast)


def json_object(document) -> dict:
    """`document` itself if it is a JSON object; TypeError "expected a JSON object, got <value>" otherwise."""
    if not isinstance(document, dict):
        raise TypeError(f"expected a JSON object, got {document!r}")
    return document


def only_keys(document, keys) -> None:
    """`json_object`'s TypeError for a non-object document, ValueError "unknown key '<key>'" for a key not in `keys`."""
    unknown = [key for key in json_object(document) if key not in keys]
    if unknown:
        raise ValueError(f"unknown key {unknown[0]!r}")


def read_fields(settings, document, keys=(), **nested):
    """The dataclass `settings` built from the JSON object `document`, each field FIELD_CASTS annotates read by `read`.

    A field the document lacks keeps its default; one without a default
    raises KeyError, which the caller words. `nested` passes the other
    fields, which the caller read from the document's `keys`; `only_keys`
    refuses any other key.
    """
    annotated = [setting for setting in fields(settings) if setting.type in FIELD_CASTS]
    only_keys(document, {setting.name for setting in annotated} | set(keys))
    return settings(**nested, **{
        setting.name: read(document, setting.name, FIELD_CASTS[setting.type])
        for setting in annotated if setting.name in document or setting.default is MISSING
    })


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
