"""Record, the frozen base of the package's value types.

A record's fields are the names its class annotates, in order, after those of
its bases; a class attribute of the same name is that field's default. The
constructor binds positional or keyword arguments, then runs __post_init__,
the type's checks. Equality, hash and repr read the fields alone, so what a
cached_property keeps in the instance __dict__ stays out of all three.
Assignment and deletion raise AttributeError; pickle and copy rebuild through
the constructor, so the checks run again. _fields names the fields, _values
is their tuple, and _replace copies a record with some of them changed.
"""
from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class Record:
    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [name for name in cls.__annotations__ if name not in cls._fields]
        cls._fields += tuple(own)
        cls._defaults = {**cls._defaults,
                         **{name: vars(cls)[name] for name in own if name in vars(cls)}}
        get = attrgetter(*cls._fields)  # one value, not a tuple, for one field
        cls._values = property(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            args = self._bind(args, kwargs)
        # object.__setattr__, not the __dict__: reading the instance __dict__
        # makes CPython move the fields into a real dict, and every later
        # field read goes through it, about 4x slower
        for name, value in zip(fields, args):
            _set(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        """args and kwargs as one value per field, in field order."""
        name = cls.__name__
        if len(args) > len(cls._fields):
            raise TypeError(f"{name}() takes {len(cls._fields)} positional "
                            f"arguments but {len(args)} were given")
        values = list(args)
        for field in cls._fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in cls._defaults:
                values.append(cls._defaults[field])
            else:
                raise TypeError(f"{name}() missing required argument {field!r}")
        if kwargs:
            key = next(iter(kwargs))
            raise TypeError(f"{name}() got multiple values for argument {key!r}"
                            if key in cls._fields else
                            f"{name}() got an unexpected keyword argument {key!r}")
        return values

    def __post_init__(self):
        pass

    def _replace(self, **changes):
        """A copy with the named fields changed, checked again."""
        return type(self)(**{**dict(zip(self._fields, self._values)), **changes})

    def __reduce__(self):
        return type(self), self._values

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._values))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
