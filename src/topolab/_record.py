"""The base of the package's value types, in place of `dataclasses`, whose
import (with `inspect` and `ast`) and generated methods slow every start."""
from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Record:
    """A value type whose fields are the names in `__slots__` that do not
    start with an underscore; the other slots are private caches.

    Each subclass gets one constructor, `_init`, which takes the fields in
    order, by position or by name, with the defaults in `_defaults`, then
    calls `__post_init__`; it is the `__init__` unless the class writes one.
    Fields are read-only: only it and `__post_init__` set them, with `_set`.
    Instances are equal when their classes and fields are, hash by their
    fields and print as `Name(field=value, ...)`.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._values = attrgetter(*cls._fields)
        # from source, so that it costs what a hand-written one does
        params = ", ".join(f"{f}=_defaults[{f!r}]" if f in cls._defaults else f
                           for f in cls._fields)
        body = "".join(f"    _set(self, {f!r}, {f})\n" for f in cls._fields)
        namespace = {"_set": _set, "_defaults": cls._defaults}
        exec(f"def _init(self, {params}):\n{body}    self.__post_init__()\n", namespace)
        cls._init = namespace["_init"]
        cls._init.__qualname__ = f"{cls.__qualname__}.__init__"
        if "__init__" not in cls.__dict__:
            cls.__init__ = cls._init

    def __post_init__(self) -> None:
        """Validate or normalize the fields the constructor set."""

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
