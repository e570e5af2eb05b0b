"""Base class for the engine's small immutable records.

A record's fields are its ``__slots__``, those of its base classes first.
Each subclass writes its own ``__init__``, which sets the fields with
``object.__setattr__``; the base supplies the rest, driven by the slots:

* ``==`` by exact class and the compared fields, and ``hash`` of them;
  a subclass names in ``_uncompared`` the fields both skip,
* ``repr`` as ``Name(field=value, ...)`` over every field,
* ``replace(**changes)``, a copy built through ``__init__`` again, so the
  subclass's checks run on the new fields,
* the frozen guard: assigning or deleting an attribute raises
  ``AttributeError``.

The standard ``dataclasses`` does the same, but importing it pulls in
``inspect``, ``ast`` and ``dis``, and each class it builds compiles
generated methods, in every command-line process.
"""


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
        fields = {f: getattr(self, f) for f in self._fields}
        fields.update(changes)
        return type(self)(**fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
