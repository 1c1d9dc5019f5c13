"""The base of the named-tuple records whose constructor checks its fields."""

from __future__ import annotations


class Validated:
    """Put before the ``typing.NamedTuple`` base of a record whose
    ``__new__`` normalises or validates its fields.

    The named tuple's ``_make``, which its ``_replace`` calls, builds the
    tuple directly and would skip that work, so here it goes through the
    constructor.  A record is not a sequence of its fields: tuple
    concatenation and repetition would return a plain tuple, so ``+`` and
    ``*`` raise TypeError unless the record defines its own arithmetic.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        values = tuple(iterable)
        if len(values) != len(cls._fields):
            raise TypeError(f"Expected {len(cls._fields)} arguments, got {len(values)}")
        return cls(*values)

    def _not_a_sequence(self, other):
        raise TypeError(f"{type(self).__name__} is a record: it does not "
                        "concatenate or repeat")

    __add__ = __radd__ = __mul__ = __rmul__ = _not_a_sequence
