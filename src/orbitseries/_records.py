"""The base of the records whose constructor normalises or validates its fields.

A record that checks its fields is a ``Record``; every other record is a
plain ``typing.NamedTuple``.  A ``Record`` is not a sequence: with no
``_make``, ``_replace``, iteration or tuple arithmetic, its constructor is
the only way to build one.
"""

from __future__ import annotations

import operator


class Record:
    """Immutable values in ``__slots__``, set once by the constructor with
    ``object.__setattr__``; ``_fields`` names the public fields in order.

    A record equals only records of its class, hashes as the tuple of its
    fields, and is copied and pickled through its constructor.  A field is
    usually a slot, and ``__slots__`` may add derived values, which repr,
    equality, hash and pickle ignore; a field may also be a property computed
    from the slots, as ``LinExp``'s ``c0`` and ``c1`` are.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # one C getter per class, which returns the field itself when there
        # is one: the sweeps compare partitions in their inner loops
        cls._key = get = operator.attrgetter(*cls._fields)
        cls._values = get if len(cls._fields) > 1 else \
            staticmethod(lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(" + ", ".join(
            f"{f}={getattr(self, f)!r}" for f in self._fields) + ")"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)
