"""Immutable value records, the one record idiom of the package.

A record class derives from :class:`Record` and names its fields in
``__slots__``, in positional order.  Trailing fields may take defaults
from the class's ``_defaults`` mapping.  An integer field named in the
class's ``_ints`` mapping, with its least value, its name in messages
and its ``InputError`` class, is stored as given when it is an exact
``int`` at or above its least value, and as :func:`errors.read_int`
reads it otherwise.  A field named in ``_tuples`` is read once into a
tuple; one whose default is None keeps a None.  A ``__post_init__``
method, where the class defines one, validates and normalises the
stored values.  Every store, in ``__init__`` and in a normalising
``__post_init__``, goes through the slot's ``Cls.field.__set__``.
Records compare and hash by value within one class, are never
equal to a tuple or to a record of another class, reject assignment
with ``AttributeError`` and print as ``Name(field=value, ...)``.
"""

from .errors import read_int


def _compile_init(cls):
    """The ``__init__`` of a record class, compiled with each slot's setter bound to a name.

    A field costs one direct descriptor call: ``Record.__setattr__``,
    which refuses assignment, is never looked up.
    """
    names, ints, defaults = cls.__slots__, cls._ints, cls._defaults
    params = ", ".join(f"{n}=_defaults[{n!r}]" if n in defaults else n for n in names)
    body = []
    for n in names:
        if n in ints:
            least, what, _ = ints[n]
            # read_int's own fast path, inline; read_int words every refusal
            body.append(f"    if {n}.__class__ is not int or {n} < {least!r}:\n"
                        f"        {n} = read_int({n}, {least!r}, {what!r}, _error_{n})")
        elif n in cls._tuples:
            keep_none = f"if {n} is not None: " if n in defaults and defaults[n] is None else ""
            body.append(f"    {keep_none}{n} = tuple({n})")
        body.append(f"    _set_{n}(self, {n})")
    if hasattr(cls, "__post_init__"):
        body.append("    self.__post_init__()")
    namespace = {f"_set_{n}": getattr(cls, n).__set__ for n in names}
    namespace |= {f"_error_{n}": error for n, (_, _, error) in ints.items()}
    namespace |= {"_defaults": defaults, "read_int": read_int}
    exec("\n".join([f"def __init__(self, {params}):", *body]), namespace)
    return namespace["__init__"]


class Record:
    __slots__ = ()
    _defaults: dict = {}
    _ints: dict = {}
    _tuples: tuple = ()

    def __init_subclass__(cls):
        # a stub that compiles the class's __init__ on its first construction
        # and installs it, so a process compiles only the records it builds
        def __init__(self, *args, **kwargs):
            init = _compile_init(cls)
            cls.__init__ = init
            init(self, *args, **kwargs)

        cls.__init__ = __init__

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
