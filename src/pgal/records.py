"""Value classes without @dataclass, which imports inspect, ast and dis
(about 11 ms of start-up) and execs generated code for each class.

A record names its fields in `_fields`, and immutable defaults for some in
`_defaults`; the constructor takes each field from a positional argument,
else a keyword, else its default.  A record that checks or converts its
arguments, or whose default is a fresh {} or [], writes an __init__ that
ends in _set.  Record gives == and repr over the fields in order, as
@dataclass does; FrozenRecord adds the hash of their tuple and refuses
assignment, as frozen=True does, which only _set gets round.
"""

from operator import attrgetter


class Record:
    _fields: tuple = ()
    _defaults: dict = {}
    __hash__ = None  # mutable, so unhashable, as a dataclass with eq is

    def __init_subclass__(cls):
        if cls._fields:
            get = attrgetter(*cls._fields)
            one = len(cls._fields) == 1  # attrgetter then gives the bare value
            cls._astuple = staticmethod((lambda obj: (get(obj),)) if one else get)

    def __init__(self, *args, **kwargs):
        fields, name = self._fields, self.__class__.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments but {len(args)} were given")
        values = dict(zip(fields, args))
        for f in fields[len(args):]:
            if f not in kwargs and f not in self._defaults:
                raise TypeError(f"{name}() missing argument {f!r}")
            values[f] = kwargs.pop(f, self._defaults.get(f))
        if kwargs:
            raise TypeError(f"{name}() got an unexpected or repeated keyword argument "
                            f"{next(iter(kwargs))!r}")
        self._set(**values)

    def _set(self, **fields):
        """Set attributes, a frozen record's too."""
        for f, value in fields.items():
            object.__setattr__(self, f, value)

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
