"""Equality, hashing, repr and immutability shared by the package's records.

Value records are typing.NamedTuples: immutable, cheap to build, and equal
field by field like tuples. A record whose trailing fields, such as a source
span, take no part in equality counts the fields before them in _compared
and takes __eq__, __ne__ and __hash__ from LEADING_FIELDS. Such a record
equals only a record of its own type, never a plain tuple, and __ne__ is
replaced too, since tuple.__ne__ would still compare every field. (Python
asks the left operand first, so an unrelated NamedTuple on the left of ==
still compares with such a record as tuples do.)

Record is the base of the few records that are plain classes, because their
__init__ checks or defaults its arguments, or because they cache into an
instance dict.
"""

from __future__ import annotations


def _eq(self, other) -> bool:
    n = self._compared
    return type(other) is type(self) and self[:n] == other[:n]


def _ne(self, other) -> bool:
    return not _eq(self, other)


def _hash(self) -> int:
    return hash(self[:self._compared])


LEADING_FIELDS = (_eq, _ne, _hash)


def leading_repr(self) -> str:
    """The repr of a record's first _compared fields only."""
    shown = ", ".join(f"{name}={getattr(self, name)!r}"
                      for name in self._fields[:self._compared])
    return f"{type(self).__name__}({shown})"


class Record:
    """An immutable plain-class record. Its __init__ stores each of _fields
    through vars(self); the first _compared of them decide equality and
    hash, and are the ones its repr shows."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _compared = 0

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields[:self._compared])

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    __repr__ = leading_repr

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
