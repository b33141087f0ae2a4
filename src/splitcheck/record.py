"""The base of the package's immutable records.

A record is a plain class with `__slots__` and an explicit `__init__`.  An
immutable one also derives from `Frozen`: its `__init__` writes each field
through `object.__setattr__`, and any later assignment or deletion raises
`AttributeError`.
"""


class Frozen:
    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
