"""The base of the package's records, and the one rule for comparing them.

A record is a plain class with `__slots__` and an explicit `__init__`, and
derives from `Record`: two records compare equal when they are of the same
type and their fields are equal, field by field in `__slots__` order.  A
`__dict__` slot is not a field; it holds what a `cached_property` caches.

An immutable record derives from `Frozen`: its `__init__` writes each field
through `object.__setattr__`, any later assignment or deletion raises
`AttributeError`, and it hashes by the same fields.  A mutable record
derives from `Record` alone, which has `__eq__` and no `__hash__`, so
Python makes it unhashable.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = [name for name in cls.__slots__ if name != "__dict__"]
        if names:
            # one getter per class: __eq__ runs in the confluence check's loops
            cls._fields = attrgetter(*names)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields(self) == self._fields(other)


class Frozen(Record):
    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
