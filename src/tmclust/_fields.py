"""Field rules shared by the config objects, the manifest and the result reader.

Each rule takes one value and returns it converted, or raises TypeError when
the value is of the wrong kind; :func:`_convert_field` turns that TypeError
into the owner's error type, naming the field.
"""

from __future__ import annotations

import numbers
import operator

from .errors import DataFormatError


def _integer(value) -> int:
    """``operator.index`` (a Python int, from numpy's too), but a bool, such
    as a JSON ``true``, is not the integer 1."""
    if isinstance(value, bool):
        raise TypeError("a boolean is not an integer")
    return operator.index(value)


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError("expected a boolean")
    return value


def _number(value):
    """A real number, kept as given; a bool or a string is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError("expected a number")
    return value


def _count(name: str, value) -> int:
    """``value`` as an int >= 1; otherwise ValueError naming ``name``."""
    try:
        count = _integer(value)
    except TypeError:
        count = 0
    if count < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")
    return count


def _items(value, convert=_integer) -> tuple:
    """Convert each entry of a list (to integers by default); a string is not a list."""
    if isinstance(value, str):
        raise TypeError("a string is not a list")
    return tuple(convert(v) for v in value)


def _convert_field(obj, name: str, kind: str, convert, error=DataFormatError) -> None:
    """Set a frozen dataclass field to ``convert(value)``; a TypeError becomes ``error``."""
    value = getattr(obj, name)
    try:
        object.__setattr__(obj, name, convert(value))
    except TypeError:
        raise error(f"{name} must be {kind}, got {value!r}") from None
