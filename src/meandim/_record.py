"""`Record`, the frozen base of every value class in meandim.

A subclass declares its fields as annotations, in order, as a frozen
dataclass does::

    class Caps(Record):
        cells: int = DEFAULT_CELL_CAP
        patterns: int = DEFAULT_PATTERN_CAP

A class attribute of a field's name is its default.  An annotation that
starts with `_` is private state: not an argument, not compared, hashed or
shown, and set to its class default by `__init__`.

An instance behaves as one of `dataclasses.dataclass(frozen=True)`:

- the same positional and keyword signature, the same `TypeError` for a
  missing, unknown or repeated argument, and `__post_init__` called last;
- equal only to an instance of its own class with an equal field tuple;
- `hash(field tuple)`, so the hash values are a dataclass's own;
- `repr` is ``QualName(field=value, ...)``;
- assigning or deleting an attribute raises `FrozenRecordError`, an
  `AttributeError`, with a dataclass's message.

Why a base and not the decorator: a frozen dataclass compiles six methods
with `exec` when its class is made, which no bytecode cache keeps.  A
5-field class took 0.71 ms as a frozen dataclass, 21 us as a `Record` and
11 us as a plain class (2 vCPU x86_64, Python 3.11.7, medians of 7 runs of
200 classes).  Every process pays it: the `clouds` benchmark's set-up,
which makes 25 of the classes, fell from 158.5 to 143.5 ms
(`BENCH_33.json`).  Here the methods are written once and read a
per-class field table.

Two choices keep the instances close to a dataclass's speed (measured on
the same host):

- `__init__` sets the fields one by one with `object.__setattr__`, in
  field order and private fields last, so every instance of a class keeps
  the shared-key layout whose attribute reads 3.11 specializes.  Filling
  the `__dict__` that a first read makes instead left reads about 3 times
  slower (54 against 20 ns).
- arguments are bound at C speed: an `itemgetter` of every field reads a
  call that names them all, and `map(kwargs.pop, ...)` binds any other.  A
  missing argument is found by the `KeyError` of a lookup, never by `==`,
  since a field may hold a numpy array.
"""
from __future__ import annotations

from operator import attrgetter, itemgetter

_NO_DEFAULT = object()
_set = object.__setattr__


class FrozenRecordError(AttributeError):
    """An attempt to assign or delete an attribute of a record."""


def _names(names) -> str:
    """'a', 'a' and 'b', or 'a', 'b', and 'c', as CPython lists the
    missing arguments of a call."""
    quoted = [repr(name) for name in names]
    if len(quoted) < 3:
        return " and ".join(quoted)
    return ", ".join(quoted[:-1]) + ", and " + quoted[-1]


def _call_error(cls, given: int, left: dict, unbound: int) -> TypeError:
    """The TypeError of the dataclass __init__ for a call of `cls` with
    `given` positional arguments, whose keywords not bound to a field after
    the positional ones are `left`, and whose required fields from index
    `unbound` on are bound only if they are in `left`."""
    names, required = cls._record_fields, cls._record_required
    call = f"{cls.__qualname__}.__init__()"
    if given > len(names):
        takes = (f"{required + 1}" if required == len(names)
                 else f"from {required + 1} to {len(names) + 1}")
        return TypeError(f"{call} takes {takes} positional arguments but "
                         f"{given + 1} were given")
    for key in left:
        if key not in names:
            return TypeError(f"{call} got an unexpected keyword argument "
                             f"{key!r}")
        if names.index(key) < given:
            return TypeError(f"{call} got multiple values for argument "
                             f"{key!r}")
    missing = [name for name in names[unbound:required] if name not in left]
    return TypeError(f"{call} missing {len(missing)} required positional "
                     f"argument{'s' if len(missing) > 1 else ''}: "
                     f"{_names(missing)}")


def _bind(cls, args: tuple, kwargs: dict) -> tuple:
    """The field values of a call of `cls` that fills some fields from
    their defaults or mixes positional and keyword arguments."""
    names, required = cls._record_fields, cls._record_required
    given = len(args)
    if given > len(names) or given < required and not kwargs:
        raise _call_error(cls, given, kwargs, given)
    if not kwargs:
        return args + cls._record_defaults[given:]
    try:
        args += tuple(map(kwargs.pop, names[given:required]))
    except KeyError as exc:
        raise _call_error(cls, given, kwargs,
                          names.index(exc.args[0])) from None
    bound = len(args)
    args += tuple(map(kwargs.pop, names[bound:],
                      cls._record_defaults[bound:]))
    if kwargs:
        raise _call_error(cls, given, kwargs, len(names))
    return args


class Record:
    """Frozen value class with fields declared as annotations; see the
    module docstring."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        annotations = {}
        for base in reversed(cls.__mro__):
            annotations.update(base.__dict__.get("__annotations__", {}))
        names, defaults, private = [], [], {}
        for name in annotations:
            default = getattr(cls, name, _NO_DEFAULT)
            if name.startswith("_"):
                if default is _NO_DEFAULT:
                    raise TypeError(f"private field {name!r} needs a default")
                private[name] = default
                continue
            if default is _NO_DEFAULT and defaults:
                raise TypeError(f"field {name!r} without a default follows "
                                "one with a default")
            names.append(name)
            if default is not _NO_DEFAULT:
                defaults.append(default)
        names = tuple(names)
        # a record's field tuple and that of keywords naming every field;
        # both getters return a bare value for one name
        if len(names) == 1:
            name, = names
            getter = lambda record: (getattr(record, name),)  # noqa: E731
            named = lambda kwargs: (kwargs[name],)  # noqa: E731
        else:
            getter, named = attrgetter(*names), itemgetter(*names)
        cls._record_fields = names
        cls._record_required = len(names) - len(defaults)
        # one per field, _NO_DEFAULT for a required one
        cls._record_defaults = ((_NO_DEFAULT,) * cls._record_required
                                + tuple(defaults))
        # staticmethod, since a function read through an instance would
        # bind it
        cls._record_values = staticmethod(getter)
        # what __init__ reads, in one class attribute: the field names, the
        # keyword reader, the names and the values of the private fields,
        # and __post_init__
        cls._record_init = (names, named, names + tuple(private),
                            tuple(private.values()),
                            getattr(cls, "__post_init__", None))

    def __init__(self, *args, **kwargs):
        cls = type(self)
        names, named, slots, private, post_init = cls._record_init
        if not args and len(kwargs) == len(names):
            try:  # every field named, so no other key
                args = named(kwargs)
            except KeyError:
                args = _bind(cls, args, kwargs)
        elif kwargs or len(args) != len(names):
            args = _bind(cls, args, kwargs)
        for name, value in zip(slots, args + private):
            _set(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._record_values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._record_values(self))

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self._record_fields,
                               self._record_values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenRecordError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenRecordError(f"cannot delete field {name!r}")

    def replace(self, **changes):
        """A new record of the same class with `changes` over this one's
        fields; private state starts from its defaults, as __init__ sets
        it."""
        cls = type(self)
        names, values = cls._record_fields, self._record_values(self)
        if changes:
            values = tuple(map(changes.pop, names, values))
            if changes:  # the TypeError of an unknown keyword
                return cls(**dict(zip(names, values)), **changes)
        return cls(*values)
