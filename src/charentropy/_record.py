"""What ``dataclass(frozen=True, slots=True)`` made of a class, without the
~10 ms import (dataclasses loads inspect) and ~1 ms a class of compiling.
Fields with defaults come last. A class may write its own ``__init__``;
``slots=False`` keeps ``__dict__``."""

_MISSING = object()


def record(cls, *, slots=True):
    fields = tuple(cls.__annotations__)
    body = {**_METHODS, **vars(cls), "_fields": fields,
            "__qualname__": cls.__qualname__}
    defaults = tuple(body.pop(name, _MISSING) for name in fields)
    del body["__dict__"], body["__weakref__"]
    if slots:
        body["__slots__"] = fields
    cls = type(cls)(cls.__name__, cls.__bases__, body)
    setters = [vars(cls)[name].__set__ if slots else
               (lambda self, value, name=name: object.__setattr__(
                   self, name, value)) for name in fields]
    post = body.get("__post_init__")
    required = defaults.count(_MISSING)

    def __init__(self, *args, **kwargs):
        if kwargs:
            given = len(args)
            args += tuple(map(kwargs.pop, fields[given:], defaults[given:]))
            if kwargs or id(_MISSING) in map(id, args):
                raise TypeError(f"{cls.__name__}() takes the fields {fields}")
        elif required <= len(args) <= len(fields):  # by position
            args += defaults[len(args):]
        else:
            raise TypeError(f"{cls.__name__}() takes the fields {fields}")
        for set_field, value in zip(setters, args):
            set_field(self, value)
        if post is not None:
            post(self)

    if "__init__" not in body:
        cls.__init__ = __init__
    return cls


def asdict(obj) -> dict:
    """A record's fields by name, in order; the values are not copied."""
    return {name: getattr(obj, name) for name in obj._fields}


def replace(obj, **changes):
    """A copy of a record with ``changes``, checked as a new one is."""
    return type(obj)(**{**asdict(obj), **changes})


def _values(self) -> tuple:
    return tuple(map(self.__getattribute__, self._fields))


def _repr(self) -> str:
    pairs = (f"{name}={value!r}" for name, value in asdict(self).items())
    return f"{type(self).__qualname__}({', '.join(pairs)})"


def _frozen(self, name, *_):
    raise AttributeError(f"cannot set or delete field {name!r} of a record")


_METHODS = {
    "__eq__": lambda self, other: _values(self) == _values(other)
    if other.__class__ is self.__class__ else NotImplemented,
    "__hash__": lambda self: hash(_values(self)), "__repr__": _repr,
    "__setattr__": _frozen, "__delattr__": _frozen,
    "__reduce__": lambda self: (type(self), _values(self))}
