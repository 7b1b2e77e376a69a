"""The base of the package's immutable records (reports, specs, traces).

A record names its fields in ``_fields`` and sets them once, in its own
``__init__``, through ``object.__setattr__``.  Equality holds only between
records of the same class with equal fields; the hash is the hash of the
field tuple; the repr is ``Cls(name=value, ...)``.  Assigning or deleting an
attribute raises :class:`AttributeError`.  Copies and pickles rebuild a
record from its fields through ``__init__``.
"""

from __future__ import annotations


class Value:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        body = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._astuple()
