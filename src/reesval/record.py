"""Immutable value records, the one record idiom of the package.

A record class derives from :class:`Record` and names its fields in
``__slots__``, in positional order.  Trailing fields may take defaults
from the class's ``_defaults`` mapping, and a ``__post_init__`` method,
where the class defines one, validates and normalises the stored
values.  Records compare and hash by value within one class, are never
equal to a tuple or to a record of another class, reject assignment
with ``AttributeError`` and print as ``Name(field=value, ...)``.
"""

_store = object.__setattr__


class Record:
    __slots__ = ()
    _defaults: dict = {}

    def __init_subclass__(cls):
        # compiled once per class, so a record costs one call and one
        # slot store per field to build
        names = cls.__slots__
        params = ", ".join(
            f"{n}=_defaults[{n!r}]" if n in cls._defaults else n for n in names
        )
        body = [f"    _store(self, {n!r}, {n})" for n in names]
        if hasattr(cls, "__post_init__"):
            body.append("    self.__post_init__()")
        namespace = {"_store": _store, "_defaults": cls._defaults}
        exec("\n".join([f"def __init__(self, {params}):", *body]), namespace)
        cls.__init__ = namespace["__init__"]

    def _values(self) -> tuple:
        return tuple(getattr(self, n) for n in self.__slots__)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
