"""Casts of JSON values to the integers and numbers of settings, shared by the config and component readers.

Each returns the value as its type, or raises TypeError or ValueError (or
OverflowError, for an int beyond the float range) when it is not one; the
reader names the key. None truncates or parses a string, and none reads a
boolean, which Python counts as an int.
"""

from __future__ import annotations

import math
import operator


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
