"""Record classes: values with named fields, built from a class's own
annotations once, when the class is created.

``@record`` reads the annotated names of the class body, in order, as its
fields and gives the class each of these methods that it does not define
itself: ``__init__`` (positional or keyword arguments, defaults and
``default_factory``; fields with ``init=False`` are no arguments and are
left to ``__post_init__``, which runs last), ``__eq__`` on the compared
fields of two instances of one class, and ``__repr__`` as
``Name(field=value, ...)``.  Every record is frozen: it also gets
``__hash__``, the hash of the tuple of its compared fields, and a
``__setattr__`` and ``__delattr__`` that raise
:class:`FrozenInstanceError`; an ``__init__`` or ``__post_init__`` sets
fields with :func:`set_field`.  Instances keep a ``__dict__``.  No code is
compiled at run time, so a class on a hot path writes out the methods it
needs fast.

>>> @record
... class Pair:
...     a: int
...     b: tuple = field(default=(), repr=False)
>>> Pair(1) == Pair(1, ()), replace(Pair(1), a=2), hash(Pair(1)) == hash((1, ()))
(True, Pair(a=2), True)
"""

from __future__ import annotations

from operator import attrgetter

MISSING = object()  # no default, no default factory

# ``object.__setattr__``: sets a field past a record's __setattr__
set_field = object.__setattr__


class FrozenInstanceError(AttributeError):
    """An assignment to, or a deletion of, an attribute of a record."""


class Field:
    """One field of a record class (``fields``)."""

    __slots__ = ("name", "default", "default_factory", "init", "repr", "compare", "metadata")

    def __init__(self, default, default_factory, init, repr, compare, metadata):
        self.name = None  # set when the class is created
        self.default = default
        self.default_factory = default_factory
        self.init = init
        self.repr = repr
        self.compare = compare
        self.metadata = metadata


def field(*, default=MISSING, default_factory=MISSING, init=True, repr=True, compare=True,
          metadata=None) -> Field:
    return Field(default, default_factory, init, repr, compare, metadata or {})


def fields(cls) -> tuple[Field, ...]:
    """The fields of a record class, in declaration order."""
    return cls.__record_fields__


def replace(obj, **changes):
    """A new record like ``obj`` but for ``changes``.  It is built by its
    class's ``__init__``, so ``__post_init__`` derives the fields with
    ``init=False`` afresh, and they cannot be changed."""
    for f in fields(type(obj)):
        if not f.init:
            if f.name in changes:
                raise ValueError(f"field {f.name} is declared with init=False, "
                                 "it cannot be specified with replace()")
        elif f.name not in changes:
            changes[f.name] = getattr(obj, f.name)
    return type(obj)(**changes)


def record(cls):
    """The class decorator: ``cls`` as a frozen record class."""
    found = []
    for name in cls.__annotations__:
        f = cls.__dict__.get(name, MISSING)
        if not isinstance(f, Field):
            f = field(default=f)
        f.name = name
        if f.default is not MISSING:
            setattr(cls, name, f.default)
        elif name in cls.__dict__:
            delattr(cls, name)
        found.append(f)
    cls.__record_fields__ = tuple(found)
    compared = [f.name for f in found if f.compare]
    key = attrgetter(*compared) if len(compared) > 1 else lambda obj: tuple(
        getattr(obj, name) for name in compared
    )
    shown = [f.name for f in found if f.repr]

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in shown)
        return f"{self.__class__.__qualname__}({values})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    # a method of the class body is kept; an own __eq__ leaves __hash__ None
    # there, so that one is given too
    for method in (_init(cls, found), __eq__, __hash__, __repr__, __setattr__, __delattr__):
        name = method.__name__
        if cls.__dict__.get(name) is None:
            method.__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
    return cls


def _init(cls, found):
    params = [f for f in found if f.init]
    names = [f.name for f in params]
    n = len(names)
    post_init = hasattr(cls, "__post_init__")
    where = f"{cls.__qualname__}.__init__()"

    def bind(args, kwargs) -> list:
        """Every argument in field order, from a call that does not pass
        them all by position."""
        if len(args) > n:
            raise TypeError(f"{where} takes {n + 1} positional arguments but "
                            f"{len(args) + 1} were given")
        values = list(args)
        for f in params[len(args):]:
            if f.name in kwargs:
                values.append(kwargs.pop(f.name))
            elif f.default is not MISSING:
                values.append(f.default)
            elif f.default_factory is not MISSING:
                values.append(f.default_factory())
            else:
                raise TypeError(f"{where} missing required argument: {f.name!r}")
        for name in kwargs:
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{where} got {problem} argument {name!r}")
        return values

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != n:
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            set_field(self, name, value)
        if post_init:
            self.__post_init__()

    return __init__
