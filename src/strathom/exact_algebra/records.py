"""Records, built without generated code.

A ``Record`` is a tuple of its fields, named in ``_fields`` and read
through properties; a subclass sets ``__slots__ = ()`` and builds in
``__new__``, after any check, by ``tuple.__new__``.  Records are equal
when of one class with equal fields, never equal to a plain tuple, and
hash as the tuple of their fields.  A ``Fields`` object is a mutable
record whose ``__init__`` sets every attribute; it equals an object of its
class with equal attributes and is unhashable.
"""
from operator import itemgetter


class Record(tuple):
    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        for i, name in enumerate(cls.__dict__.get("_fields", ())):
            setattr(cls, name, property(itemgetter(i)))

    def __eq__(self, other):
        # False, not NotImplemented: a plain tuple would answer by its items
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    def __getnewargs__(self):
        return tuple(self)      # copies rebuild through __new__, checks and all

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{self.__class__.__qualname__}({fields})"


class Fields:
    def __eq__(self, other):
        return other.__class__ is self.__class__ and self.__dict__ == other.__dict__
