"""Base class for the engine's small immutable records.

A record's fields are its ``__slots__``, those of its base classes first.
The base supplies, driven by the slots:

* the one constructor, ``Cls(v1, v2, ...)``, which takes every field
  positionally in slot order and raises ``TypeError`` naming the class
  when the count is wrong,
* ``==`` by exact class and the compared fields, and ``hash`` of them;
  a subclass names in ``_uncompared`` the fields both skip,
* ``repr`` as ``Name(field=value, ...)`` over every field,
* ``replace(**changes)``, a copy built by calling the class again with
  the fields in slot order, so a subclass's checks run on the new fields;
  an unknown field raises ``TypeError``,
* the frozen guard: assigning or deleting an attribute raises
  ``AttributeError``.

A subclass that checks or converts its fields writes an ``__init__`` whose
parameters are its fields in slot order (defaults allowed), and ends it
with ``super().__init__(...)`` on the checked values; ``replace`` calls it
positionally.

The standard ``dataclasses`` does the same, but importing it pulls in
``inspect``, ``ast`` and ``dis``, and each class it builds compiles
generated methods, in every command-line process.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()
    _fields: tuple = ()
    _compared: tuple = ()
    _uncompared: tuple = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(
            name for c in reversed(cls.__mro__) for name in c.__dict__.get("__slots__", ())
        )
        cls._compared = tuple(f for f in cls._fields if f not in cls._uncompared)

    def __init__(self, *values):
        fields = self._fields
        if len(values) != len(fields):
            raise TypeError(
                f"{type(self).__qualname__} takes {len(fields)} field(s), got {len(values)}"
            )
        for name, value in zip(fields, values):
            _set(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def replace(self, **changes):
        """A copy of this record with ``changes`` to its fields."""
        values = [changes.pop(f) if f in changes else getattr(self, f) for f in self._fields]
        if changes:
            raise TypeError(
                f"{type(self).__qualname__} has no field {next(iter(changes))!r}"
            )
        return type(self)(*values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
