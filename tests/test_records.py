"""Every `Record` of meandim behaves as its frozen dataclass twin.

The twin of a record class is `dataclasses.dataclass(frozen=True)` over the
same annotations, defaults and methods, with each private (underscore)
annotation a field of `init=False, repr=False, compare=False`.  Record and
twin are built from the same arguments: the calls that the command lines
of `test_reach` make (captured by wrapping `Record.__init__`) and a few
written here for the classes no command line builds.  They must agree in
`repr`, `==` and `hash`, and raise the same errors on misuse.
"""
import contextlib
import dataclasses
import importlib
import io
import json
import types
from fractions import Fraction

import numpy as np
import pytest

import meandim
from meandim._record import FrozenRecordError, Record
from meandim.groups import GroupSpec, GroupWindow, _built, ball, box
from meandim.metrics import PointCloud, ProductMetric, WeightScheme
from meandim.subshifts import FiberTable, golden_mean
from test_reach import COMMAND_LINES, PACKAGE, SPECS

MODULES = [importlib.import_module(f"meandim.{path.stem}")
           for path in sorted(PACKAGE.glob("*.py"))
           if path.stem != "__init__"]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


RECORDS = sorted((c for c in _subclasses(Record)
                  if c.__module__.startswith("meandim.")),
                 key=lambda c: (c.__module__, c.__qualname__))
NOT_COPIED = {"__dict__", "__weakref__", "__annotations__", "__module__",
              "__qualname__"}


def twin_of(cls):
    """The frozen dataclass of `cls`'s annotations, defaults and methods."""
    fields = []
    for name in cls.__annotations__:
        if name.startswith("_"):
            fields.append((name, object, dataclasses.field(
                default=vars(cls)[name], init=False, repr=False,
                compare=False)))
        elif name in vars(cls):
            fields.append((name, object,
                           dataclasses.field(default=vars(cls)[name])))
        else:
            fields.append((name, object))
    namespace = {key: value for key, value in vars(cls).items()
                 if key not in NOT_COPIED and key not in cls.__annotations__
                 and not key.startswith("_record")}
    return dataclasses.make_dataclass(cls.__qualname__, fields, frozen=True,
                                      namespace=namespace)


TWINS = {cls: twin_of(cls) for cls in RECORDS}


def _window():
    return GroupWindow(GroupSpec(1), ((0,), (1,), (-1,)), "explicit", 1)


# (args, kwargs) for the classes that no command line builds by __init__
WRITTEN = {
    GroupWindow: [((GroupSpec(1), ((0,), (1,))), {}),
                  ((GroupSpec(2), ((0, 0), (1, 0))), {"kind": "box",
                                                      "index": 3})],
    PointCloud: [((_window(), "kset", ((0, 1, 2), (1, 1, 1))), {})],
    ProductMetric: [((WeightScheme(1, Fraction(1, 2)), _window(), "kset"),
                     {}),
                    ((), {"scheme": WeightScheme(1, Fraction(1, 3)),
                          "window": _window(), "kind": "unit",
                          "shifts": ((0,), (1,))})],
    meandim.selfsimilar.AddressedCloud: [
        ((PointCloud(_window(), "unit", ()), (), (0, 0, 0)), {})],
}


@pytest.fixture(scope="module")
def calls(tmp_path_factory):
    """(args, kwargs) per record class: the first, middle and last call
    that the command lines make, then the ones of `WRITTEN`."""
    made = {cls: [] for cls in RECORDS}
    init = Record.__init__

    def spy(self, *args, **kwargs):
        made[type(self)].append((args, dict(kwargs)))
        init(self, *args, **kwargs)

    tmp = tmp_path_factory.mktemp("specs")
    for name, doc in SPECS.items():
        (tmp / f"{name}.json").write_text(json.dumps(doc))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Record, "__init__", spy)
        for spec, argv in COMMAND_LINES:
            argv = ([argv[0], "--spec", str(tmp / f"{spec}.json")]
                    + [a.replace("{out}", str(tmp / "out"))
                       for a in argv[1:]])
            with contextlib.redirect_stdout(io.StringIO()):
                assert meandim.cli.main(argv) == 0
    return {cls: [found[i] for i in sorted({0, len(found) // 2,
                                            len(found) - 1})
                  if found] + WRITTEN.get(cls, [])
            for cls, found in made.items()}


def outcome(call):
    """What `call()` returns, or the type family and message it raises."""
    try:
        return "returns", call()
    except (AttributeError, TypeError, ValueError) as exc:
        for family in (AttributeError, TypeError, ValueError):
            if isinstance(exc, family):
                return family.__name__, str(exc)


def test_every_record_class_is_found():
    # the value classes of the eight modules and the DP's `_Program`; a
    # class lost here would leave the tests below without it
    assert len(RECORDS) == 28
    assert all(cls.__module__ in {m.__name__ for m in MODULES}
               for cls in RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_records_match_their_dataclass_twins(calls, cls):
    twin = TWINS[cls]
    assert calls[cls], "no sample call"
    for args, kwargs in calls[cls]:
        record, other = cls(*args, **kwargs), cls(*args, **kwargs)
        made = twin(*args, **kwargs)
        again = twin(*args, **kwargs)
        assert repr(record) == repr(made)
        assert outcome(lambda: hash(record)) == outcome(lambda: hash(made))
        assert (outcome(lambda: record == other)
                == outcome(lambda: made == again))
        assert record != made and made != record  # other classes
        assert record.__eq__(made) is NotImplemented
        names = [f.name for f in dataclasses.fields(made) if f.init]
        assert list(cls._record_fields) == names
        for name in names + ["absent"]:
            assert (outcome(lambda: setattr(record, name, 1))
                    == outcome(lambda: setattr(made, name, 1)))
            assert (outcome(lambda: delattr(record, name))
                    == outcome(lambda: delattr(made, name)))


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_misused_calls_raise_as_the_twins_do(calls, cls):
    twin = TWINS[cls]
    args, kwargs = calls[cls][0]
    names = cls._record_fields
    values = tuple(getattr(cls(*args, **kwargs), n) for n in names)
    keywords = dict(zip(names, values))
    misuses = [
        ((), {}),                                  # every required missing
        (values + (1,), {}),                       # too many positional
        (values, {"absent": 1}),                   # unknown keyword
        (values, {names[0]: values[0]}),           # repeated
        ((), {**keywords, "absent": 1}),
        (values[:1], {**keywords}),                # repeated among keywords
        ((), {"absent": 1}),                       # unknown before missing
    ]
    for k in range(len(names)):
        misuses.append((values[:k], {}))           # some missing
        misuses.append(((), {n: keywords[n] for n in names if n != names[k]}))
    for call_args, call_kwargs in misuses:
        got = outcome(lambda: cls(*call_args, **call_kwargs))
        want = outcome(lambda: twin(*call_args, **call_kwargs))
        if want[0] == "returns":
            assert got[0] == "returns" and repr(got[1]) == repr(want[1])
        else:
            assert got == want, (call_args, call_kwargs)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__qualname__)
def test_replace_matches_dataclasses_replace(calls, cls):
    twin = TWINS[cls]
    args, kwargs = calls[cls][-1]
    record, made = cls(*args, **kwargs), twin(*args, **kwargs)
    for name in cls._record_fields:
        value = getattr(record, name)
        assert (repr(record.replace(**{name: value}))
                == repr(dataclasses.replace(made, **{name: value})))
    assert repr(record.replace()) == repr(dataclasses.replace(made))
    assert (outcome(lambda: record.replace(absent=1))
            == outcome(lambda: dataclasses.replace(made, absent=1)))


def test_defaults_fill_the_fields_not_given():
    caps = meandim.Caps()
    assert vars(caps) == {"cells": 10**6, "patterns": 10**6,
                          "cloud": 200_000}
    assert meandim.Caps(5).replace(cloud=7) == meandim.Caps(5, 10**6, 7)
    row = meandim.entropy.EntropyRow(1, 2, 0.5, 0.25)
    assert row.depth is None
    assert row == meandim.entropy.EntropyRow(index=1, size=2, log_count=0.5,
                                             per_site=0.25, depth=None)
    assert row.replace(depth=3).depth == 3 and row.depth is None
    window = GroupWindow(GroupSpec(1), ((0,),))
    assert (window.kind, window.index) == ("explicit", None)
    # a __post_init__ default is set once the fields are
    spec = meandim.KSpaceSpec(2)
    assert spec.weights == WeightScheme(2, Fraction(1, 10**9))


def test_records_of_two_classes_are_never_equal():
    # as dataclasses: equality holds only within a class
    same_fields = types.new_class("Rank", (Record,), {}, lambda ns: ns.update(
        __annotations__={"rank": "int"}))
    assert GroupSpec(2) != same_fields(2)
    assert GroupSpec(2).__eq__(same_fields(2)) is NotImplemented
    assert hash(GroupSpec(2)) == hash(same_fields(2)) == hash((2,))


def test_a_field_may_hold_a_numpy_array():
    # a missing argument is found without comparing the values given
    window = box(1, GroupSpec(1))
    entries = np.arange(4)
    for table in (FiberTable(golden_mean(), window, entries),
                  FiberTable(golden_mean(), window, entries=entries),
                  FiberTable(spec=golden_mean(), window=window,
                             entries=entries)):
        assert table.entries is entries
        assert table == table  # the same array: no elementwise compare
    twin = TWINS[FiberTable]
    other = np.arange(4)
    assert (outcome(lambda: table == table.replace(entries=other))
            == outcome(lambda: twin(golden_mean(), window, entries)
                       == twin(golden_mean(), window, other)))
    assert table.replace(entries=other).entries is other
    with pytest.raises(TypeError, match="missing 1 required positional "
                                        "argument: 'entries'"):
        FiberTable(golden_mean(), window)


def _private(window):
    return window._shape, window._swept


def test_group_window_private_state():
    spec = GroupSpec(2)
    made = GroupWindow(spec, ((0, 0), (1, 0)), "box", 1)
    assert _private(made) == (None, False)
    built = _built(spec, ((0, 0), (1, 0)), "box", 1,
                   ("cube", (0, 0), (2, 2)), swept=True)
    assert _private(built) == (("cube", (0, 0), (2, 2)), True)
    # private state is not compared, hashed or shown
    assert built == made and hash(built) == hash(made)
    assert repr(built) == repr(made) == (
        "GroupWindow(spec=GroupSpec(rank=2), elements=((0, 0), (1, 0)), "
        "kind='box', index=1)")
    # replace starts it from its defaults, as dataclasses.replace does for
    # fields of init=False
    assert _private(built.replace()) == (None, False)
    assert _private(built.replace(index=2)) == (None, False)
    twin = TWINS[GroupWindow](spec, ((0, 0), (1, 0)), "box", 1)
    object.__setattr__(twin, "_swept", True)
    assert dataclasses.replace(twin)._swept is False
    # __init__ and _built give the same key order, so one layout
    assert list(vars(made)) == list(vars(built)) == [
        "spec", "elements", "kind", "index", "_shape", "_swept"]
    assert list(vars(ball(1, spec)))[:6] == list(vars(made))
    for name in ("_shape", "_swept", "position_map"):
        with pytest.raises(FrozenRecordError):
            setattr(made, name, None)


def test_no_meandim_class_has_generated_methods():
    # a dataclass or a namedtuple compiles its methods from strings, whose
    # code objects carry the file name "<string>"
    found = []
    for module in MODULES:
        for cls in vars(module).values():
            if not (isinstance(cls, type)
                    and cls.__module__ == module.__name__):
                continue
            for name, value in vars(cls).items():
                value = getattr(value, "__func__", value)
                if isinstance(value, property):
                    value = value.fget
                code = getattr(value, "__code__", None)
                if code is not None and code.co_filename == "<string>":
                    found.append(f"{cls.__qualname__}.{name}")
    assert found == []
    assert not any(dataclasses.is_dataclass(cls) for cls in RECORDS)


def test_class_definitions_are_checked_as_dataclasses_check_them():
    with pytest.raises(TypeError, match="without a default follows"):
        types.new_class("Late", (Record,), {}, lambda ns: ns.update(
            __annotations__={"a": "int", "b": "int"}, a=1))
    with pytest.raises(TypeError, match="needs a default"):
        types.new_class("Hidden", (Record,), {}, lambda ns: ns.update(
            __annotations__={"a": "int", "_b": "int"}))
