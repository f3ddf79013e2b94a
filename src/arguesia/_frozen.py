"""The shared base of arguesia's immutable value classes.

A subclass names its fields in ``_fields`` and sets them in ``__init__``
through ``object.__setattr__``; afterwards assignment and deletion raise
``AttributeError``.  Instances compare equal when they have the same class
and equal fields, hash as ``hash((field1, ...))`` and print as
``Name(field1=..., ...)``.  A slotted subclass declares
``__slots__ = _fields = (...)``.  ``PPoint`` and ``PLine``, the classes
compared most often, write ``__eq__`` and ``__hash__`` out by hand.  An
instance is equal to itself before any field is read: most comparisons of
charts (``Involution``, ``LineMap.compose``) compare one object with itself.
"""


class Frozen:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore fields here instead of assigning them;
        # a class with __slots__ hands them over as (None, {name: value})
        if isinstance(state, tuple):
            state = state[1]
        for name, value in state.items():
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"
