"""Frozen result records with one shared set of methods.

A subclass of :class:`Record` is declared like a frozen dataclass: annotated
fields, ``dataclasses.field(default=..., default_factory=..., compare=False)``
and an optional ``__post_init__``.  ``__init_subclass__`` applies
``dataclasses.dataclass(init=False, repr=False, eq=False)``, which generates
no code but keeps ``__dataclass_fields__``, so ``dataclasses.replace``,
``fields`` and ``asdict`` work on records.  ``__init__``, ``==``, ``hash``,
``repr`` and the frozen ``__setattr__``/``__delattr__`` are the methods
below, read through per-class tuples of field names, so every record shares
their code objects and importing a record compiles nothing.
"""
import dataclasses
from dataclasses import MISSING, FrozenInstanceError

_set = object.__setattr__


class Record:
    """Base of the frozen result records; see the module docstring."""

    __slots__ = ()
    _fields = ()      # field names in declaration order
    _compare = ()     # the fields == and hash read
    _post_init = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__doc__ is None:  # else dataclass calls inspect.signature
            cls.__doc__ = f"{cls.__name__}({', '.join(cls.__annotations__)})"
        fields = dataclasses.fields(
            dataclasses.dataclass(cls, init=False, repr=False, eq=False))
        cls._fields = tuple(f.name for f in fields)
        cls._compare = tuple(f.name for f in fields if f.compare)
        cls._post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls._fields
        if kwargs or len(args) != len(names):
            args = _bind(cls, args, kwargs)
        for name, value in zip(names, args):
            _set(self, name, value)
        if cls._post_init is not None:
            cls._post_init(self)

    def _key(self):
        return tuple([getattr(self, n) for n in self._compare])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _bind(cls, args, kwargs):
    """The field values of a call with keywords, defaults or a wrong count,
    with the TypeErrors a generated ``__init__`` raises."""
    names = cls._fields
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} positional "
                        f"arguments but {len(args)} were given")
    for name in kwargs:
        if name not in names:
            raise TypeError(f"{cls.__name__}() got an unexpected keyword "
                            f"argument {name!r}")
        if name in names[:len(args)]:
            raise TypeError(f"{cls.__name__}() got multiple values for "
                            f"argument {name!r}")
    values = list(args)
    for name in names[len(args):]:
        f = cls.__dataclass_fields__[name]
        if name in kwargs:
            values.append(kwargs[name])
        elif f.default is not MISSING:
            values.append(f.default)
        elif f.default_factory is not MISSING:
            values.append(f.default_factory())
        else:
            raise TypeError(f"{cls.__name__}() missing required argument: "
                            f"{name!r}")
    return values
