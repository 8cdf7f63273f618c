"""Value classes without @dataclass, which imports inspect, ast and dis
(about 11 ms of start-up) and execs generated code for each class.

A record names its fields in `_fields` and writes its own __init__.  Record
gives == and repr over the fields in order, as @dataclass does; FrozenRecord
adds the hash of their tuple and refuses assignment, as frozen=True does, so
its __init__ sets the fields with object.__setattr__.
"""

from operator import attrgetter


class Record:
    _fields: tuple = ()
    __hash__ = None  # mutable, so unhashable, as a dataclass with eq is

    def __init_subclass__(cls):
        if cls._fields:
            get = attrgetter(*cls._fields)
            one = len(cls._fields) == 1  # attrgetter then gives the bare value
            cls._astuple = staticmethod((lambda obj: (get(obj),)) if one else get)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple(self) == other._astuple(other)

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({body})"


class FrozenRecord(Record):
    def __hash__(self):
        return hash(self._astuple(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: {self.__class__.__qualname__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {self.__class__.__qualname__} is frozen")
