"""The base of the package's value types, in place of `dataclasses`, whose
import (with `inspect` and `ast`) and generated methods slow every start."""
from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Record:
    """A value type whose fields are the names in `__slots__` that do not
    start with an underscore; the other slots are private caches.

    Instances are equal when their classes and fields are, hash by their
    fields and print as `Name(field=value, ...)`.  Fields are read-only, so
    `__init__` sets them with `_set`.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._values = attrgetter(*cls._fields)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"{type(self).__name__} field {name!r} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return other is self or self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"
