"""Checked reads of the JSON input files (geometries and Epstein specs).

``Fields`` wraps one JSON object together with its place in the file, such as
``elliptic_classes[0]``.  Each read checks the type and range of one value
and raises ``ValueError`` naming it, e.g. ``elliptic_classes[0].vol_quotient
must be positive``, so a malformed file ends in the CLI's exit code 1.
Numbers must be finite; JSON booleans are not numbers.  A key that no read
asks for is rejected by name, so a misspelt optional key is not read as absent,
and ``unique_keys`` rejects a key given twice in one object.  ``Checked`` is
the base of the five records that check their values when built.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from typing import Any

_REQUIRED = object()
_MAX = sys.float_info.max


class Checked:
    """Listed before a NamedTuple: ``_check`` runs however the record is built."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))  # so ``_replace`` checks too


def _kind(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "a boolean"
    if isinstance(value, (int, float)):
        return "a number"
    if isinstance(value, str):
        return "a string"
    return "a list" if isinstance(value, list) else "an object"


def unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """The ``object_pairs_hook`` for ``json.load``: one JSON object as a dict,
    or ValueError naming a key that it gives twice."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = next(key for key in keys if keys.count(key) > 1)
        raise ValueError(f"the key {repeated!r} appears twice in one object")
    return obj


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def number(value: Any, name: str, positive: bool = False) -> float:
    """A finite number as a float; ``positive`` also requires it to be > 0."""
    if not _is_number(value):
        raise ValueError(f"{name} must be a number, not {_kind(value)}")
    if not abs(value) <= _MAX:  # also false for NaN
        raise ValueError(f"{name} must be a finite number")
    if positive and not value > 0:
        raise ValueError(f"{name} must be positive")
    return float(value)


def integer(value: Any, name: str, minimum: int) -> int:
    """An integer of at least ``minimum`` (an integral float is accepted) that fits a float."""
    if not _is_number(value):
        raise ValueError(f"{name} must be an integer, not {_kind(value)}")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if not abs(value) <= _MAX:
        raise ValueError(f"{name} must fit a float")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}")
    return int(value)


def angle(value: Any, name: str) -> Fraction | float:
    """A coordinate: a number (a float), a fraction string or an [int, int] pair.
    Its value must fit a float, as the float evaluation paths convert it."""
    if isinstance(value, list):
        # integers that fit a float, and a nonzero denominator, bound the value
        if len(value) != 2 or not all(type(x) is int and abs(x) <= _MAX for x in value):
            raise ValueError(f"{name} must be a [numerator, denominator] pair of integers that fit a float")
        if value[1] == 0:
            raise ValueError(f"{name} has denominator 0")
        return Fraction(value[0], value[1])
    if isinstance(value, str):
        try:
            exact = Fraction(value)
            float(exact)
        except (ValueError, ZeroDivisionError, OverflowError):
            raise ValueError(f"{name} must be a fraction that fits a float, not {value!r}") from None
        return exact
    return number(value, name)


def items(value: Any, name: str) -> list[tuple[Any, str]]:
    """A list as (entry, name of the entry) pairs."""
    if not isinstance(value, list):
        raise ValueError(f"{name} must be a list, not {_kind(value)}")
    return [(entry, f"{name}[{i}]") for i, entry in enumerate(value)]


def angles(value: Any, name: str) -> tuple[Fraction | float, ...]:
    return tuple(angle(a, n) for a, n in items(value, name))


class Fields:
    """One JSON object and its place in the file ("" for the top level)."""

    def __init__(self, value: Any, name: str, what: str | None = None):
        if not isinstance(value, dict):
            raise ValueError(f"{what or name} must be a JSON object, not {_kind(value)}")
        self.value, self.name = value, name
        # the keys read from this object and the objects read through it
        self.read: set[str] = set()
        self.children: list[Fields] = []

    def _name(self, key: str) -> str:
        return f"{self.name}.{key}" if self.name else key

    def get(self, key: str, default: Any = _REQUIRED) -> Any:
        self.read.add(key)
        if key in self.value:
            return self.value[key]
        if default is _REQUIRED:
            raise ValueError(f"{self._name(key)} is missing")
        return default

    def number(self, key: str, default: Any = _REQUIRED, positive: bool = False) -> float:
        return number(self.get(key, default), self._name(key), positive)

    def integer(self, key: str, default: Any = _REQUIRED, *, minimum: int) -> int:
        return integer(self.get(key, default), self._name(key), minimum)

    def boolean(self, key: str) -> bool:
        value = self.get(key)
        if not isinstance(value, bool):
            raise ValueError(f"{self._name(key)} must be true or false, not {_kind(value)}")
        return value

    def string(self, key: str, default: Any = _REQUIRED, choices: tuple[str, ...] | None = None) -> str:
        value = self.get(key, default)
        if not isinstance(value, str):
            raise ValueError(f"{self._name(key)} must be a string, not {_kind(value)}")
        if choices is not None and value not in choices:
            raise ValueError(f"{self._name(key)} must be one of {', '.join(choices)}, not {value!r}")
        return value

    def angles(self, key: str) -> tuple[Fraction | float, ...]:
        return angles(self.get(key), self._name(key))

    def items(self, key: str) -> list[tuple[Any, str]]:
        """An optional list field, empty when absent."""
        return items(self.get(key, []), self._name(key))

    def entries(self, key: str) -> list["Fields"]:
        """An optional list of objects, empty when absent."""
        entries = [Fields(entry, name) for entry, name in self.items(key)]
        self.children += entries
        return entries

    def fields(self, key: str) -> "Fields":
        self.children.append(Fields(self.get(key), self._name(key)))
        return self.children[-1]

    def reject_unknown(self) -> None:
        """Raise ValueError naming the first key, here or in an object read
        through this one, that no read asked for."""
        for key in self.value:
            if key not in self.read:
                raise ValueError(f"{self._name(key)} is not a known key")
        for child in self.children:
            child.reject_unknown()
