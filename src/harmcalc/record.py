"""Immutable value records: the regions, modes, mirrors, radial weights and
inner products that the solvers take as arguments.

A record's fields are its class's `__slots__`, in order.  Two records are
equal, and hash alike, when they are of one class and their fields are
equal; a record of another class, or a tuple, is never equal to one.  The
repr is Name(field=value, ...), and no field can be assigned once built.
A subclass validates its arguments in its own `__init__` and passes the
field values, in slot order, to `Record.__init__`.
"""


class Record:
    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError("%s takes %d arguments" % (type(self).__qualname__, len(self.__slots__)))
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self.__slots__)
        return "%s(%s)" % (type(self).__qualname__, fields)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __reduce__(self):
        # pickle and copy rebuild through __init__, since __setattr__ refuses
        return type(self), self._values()
