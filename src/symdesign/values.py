"""Immutable value records: the package's ids, sector tables and results.

:class:`Value` gives a class with ``__slots__`` the semantics of a frozen
dataclass without importing :mod:`dataclasses` (which pulls in ``inspect``,
``ast`` and ``tokenize`` on every command-line start): equality by exact class
and field tuple, the hash of that tuple, a ``Name(field=value, ...)`` repr,
``AttributeError`` on assignment or deletion, and pickling and copying through
the constructor.

A subclass lists its fields in a tuple ``__slots__``, in constructor order,
and sets each one in ``__init__`` with ``object.__setattr__``; ``_fields``
reads them back from there.
"""

from itertools import repeat


class Value:
    """Immutable record compared, hashed and printed by its field tuple."""

    __slots__ = ()

    def _fields(self) -> tuple:
        """The field values in ``__slots__`` order."""
        return tuple(map(getattr, repeat(self), self.__slots__))

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()
