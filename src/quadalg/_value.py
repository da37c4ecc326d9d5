"""The one base of the package's immutable value types.

A subclass lists its fields in a tuple ``__slots__`` and sets them in
``__init__`` with ``object.__setattr__``.  Its fields are the slots of every
class on its MRO, base first.  The base then gives it read-only fields,
equality field by field within exactly one class, no hashing (the fields
hold Scalars, which do not hash) and a repr that names the fields.  A
subclass may override any of these.
"""

from operator import attrgetter


class Value:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = []
        for klass in reversed(cls.__mro__):
            fields += klass.__dict__.get("__slots__", ())
        cls._fields = tuple(fields)
        cls._key = attrgetter(*fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    __hash__ = None

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({body})"
