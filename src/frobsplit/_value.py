"""Plain value classes: what ``@dataclass(frozen=True)`` gives, with no code
written at import time.

A subclass of ``Value`` names its fields once, as annotations in the class
body, in order; a class-level value is the field's default, and a
``Factory`` default is made afresh for each instance.  The subclass gets:

- ``__init__`` taking the fields by position or keyword, then calling
  ``__post_init__`` if the class has one.  A class with its own
  ``__init__`` sets its fields with ``object.__setattr__``;
- ``==`` and ``hash`` on the tuple of the field values, for instances of
  the same class only;
- the repr ``Name(field=value, ...)``, leaving out fields whose names
  begin with ``_``;
- assignment and deletion refused with ``FrozenInstanceError``.

``frozen=False`` in the class line keeps instances mutable and unhashable,
as a non-frozen dataclass is.  Instances keep a ``__dict__``, so
``cached_property`` works and copy and pickle restore the fields without
``__setattr__``.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from operator import attrgetter
from typing import Any, Callable


class Factory:
    """A default made afresh for each instance, like
    ``field(default_factory=make)``."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[], Any]):
        self.make = make


class Value:
    """Base of the value classes; see the module docstring."""

    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = True, **kwargs: Any) -> None:
        """Give the class its methods, as closures over its fields: a
        closure reads them from cells, faster than from the class."""
        super().__init_subclass__(**kwargs)
        name = cls.__qualname__
        fields = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        count = len(fields)
        numbered = tuple(enumerate(fields))
        post_init = getattr(cls, "__post_init__", None)
        # Builtin setattr where __setattr__ allows it: it is three times as
        # fast as object.__setattr__.
        store = object.__setattr__ if frozen else setattr
        # key(obj) is obj's field value, or the tuple of them for many fields.
        key = attrgetter(*fields)
        defaults = {field: cls.__dict__[field] for field in fields if field in cls.__dict__}

        def bind(args: tuple, kwargs: dict[str, Any]) -> list:
            """Every field's value, in order, from the arguments and defaults."""
            if len(args) > count:
                raise TypeError(f"{name}() takes {count} arguments but {len(args)} were given")
            values = list(args)
            for field in fields[len(args) :]:
                if field in kwargs:
                    values.append(kwargs.pop(field))
                elif field in defaults:
                    default = defaults[field]
                    values.append(default.make() if isinstance(default, Factory) else default)
                else:
                    raise TypeError(f"{name}() missing argument {field!r}")
            if kwargs:
                raise TypeError(f"{name}() got an unexpected or repeated argument {next(iter(kwargs))!r}")
            return values

        def __init__(self, *args: Any, **kwargs: Any) -> None:
            if kwargs or len(args) != count:
                args = bind(args, kwargs)
            # Indexing a fixed tuple of pairs is faster than a zip.
            for i, field in numbered:
                store(self, field, args[i])
            if post_init is not None:
                post_init(self)

        def __eq__(self, other: object) -> bool:
            if other.__class__ is not self.__class__:
                return NotImplemented
            if count == 1:
                return self is other or (key(self),) == (key(other),)
            return self is other or key(self) == key(other)

        def __hash__(self) -> int:
            return hash((key(self),) if count == 1 else key(self))

        for method in (__init__, __eq__, __hash__) if frozen else (__init__, __eq__):
            if method.__name__ not in cls.__dict__:
                method.__qualname__ = f"{name}.{method.__name__}"
                setattr(cls, method.__name__, method)
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __repr__(self) -> str:
        shown = ", ".join(f"{key}={getattr(self, key)!r}" for key in self._fields if key[0] != "_")
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")
