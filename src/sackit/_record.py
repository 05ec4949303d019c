"""Frozen value records.

``Record`` gives a class what ``@dataclass(frozen=True)`` gave the value
types of this package, without importing ``dataclasses`` or generating code
per class: fields are the names a subclass annotates, in order, and a field
whose class attribute is set has that value as its default.  Instances are
built positionally or by keyword, compare equal only to instances of the
same exact class with equal fields, hash as the tuple of their fields, print
as ``Name(field=value, ...)`` and refuse assignment and deletion.

Every value type of the package is a ``Record``; no other code freezes a value.
A subclass's own ``__init__`` may compute the fields for ``super().__init__``,
and a derived value or a cache is a ``cached_property``, which is no field.
"""

from __future__ import annotations


class Record:
    """Base of the frozen value types; ``_fields`` names their fields."""

    __slots__ = ()
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = tuple(cls.__annotations__)
        cls._fields = cls._fields + own
        cls._defaults = {**cls._defaults, **{
            name: cls.__dict__[name] for name in own if name in cls.__dict__
        }}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        given = dict(zip(fields, args))
        values = {**self._defaults, **given, **kwargs}
        if (len(args) > len(fields) or given.keys() & kwargs
                or values.keys() != set(fields)):
            raise TypeError(
                f"{type(self).__qualname__}() takes the fields {fields}, "
                f"got {len(args)} positional and {sorted(kwargs)} by keyword"
            )
        for key in fields:
            object.__setattr__(self, key, values[key])

    def _values(self) -> tuple:
        return tuple(getattr(self, key) for key in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        args = ", ".join(f"{key}={getattr(self, key)!r}" for key in self._fields)
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
