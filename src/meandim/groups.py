"""Word geometry of Z^d with the standard symmetric generating set.

Elements are integer coordinate tuples.  The generating set is
e_1 < e_1^{-1} < e_2 < e_2^{-1} < ... (a fixed total order on generators),
so the word length is the l1 norm and balls are l1 balls.  Windows carry a
deterministic element order: sort by word length, break ties by comparing the
lexicographically least minimal generator word.  The builders `ball`, `box`
and `interval` emit their cells in that order directly, shell by shell, with
no sort.

Every other module imports this one, so it also holds what they all share:
the run limits (`Caps`), the two failures reported as a cap abort
(`CapExceeded`, `NetTooCoarse`) and the strict JSON readers of a spec
(`json_int`, `json_object`).
"""
from __future__ import annotations

import math
import operator
from functools import cached_property
from itertools import chain, product
from typing import Iterable

from ._record import Record

GroupElement = tuple  # integer coordinate tuple of length rank

DEFAULT_CELL_CAP = 10**6
DEFAULT_PATTERN_CAP = 10**6
DEFAULT_CLOUD_CAP = 200_000


class Caps(Record):
    """The three run limits.  `cells` bounds the cells of a window,
    `patterns` the patterns an enumeration finds and the live frontier
    states of a count, `cloud` the points of a cloud.  Each raises
    CapExceeded under its own name."""

    cells: int = DEFAULT_CELL_CAP
    patterns: int = DEFAULT_PATTERN_CAP
    cloud: int = DEFAULT_CLOUD_CAP


class CapExceeded(RuntimeError):
    """The `limit` (cells, patterns, cloud or radius) of value `cap` stopped
    building `subject`, which `needs` a count, >= where the build stopped."""

    def __init__(self, limit: str, cap: int, subject: str, needs: str):
        super().__init__(f"{limit} cap {cap} exceeded: {subject} needs {needs}")
        self.limit = limit


class NetTooCoarse(RuntimeError):
    """No address word over the net reaches the requested ball."""


def json_int(value, what: str) -> int:
    """A JSON integer as is; bools, floats and strings raise ValueError."""
    if type(value) is not int:
        raise ValueError(f"{what} must be a JSON integer, got {value!r}")
    return value


def json_object(value, what: str) -> dict:
    """A JSON object as is; anything else raises ValueError."""
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got "
                         f"{type(value).__name__}")
    return value


class GroupSpec(Record):
    """Z^rank with the 2*rank standard generators in their fixed order."""

    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")


def word_length(g: GroupElement) -> int:
    """Minimal generator word length; the l1 norm for standard generators."""
    return sum(map(abs, g))


def canonical_key(g: GroupElement) -> tuple:
    """(word length, negated generator counts in generator order).

    Minimal words of g are the arrangements of |c_i| copies of the axis-i
    generator, so the least one is the sorted multiset; of two such words of
    equal length, the lexicographically smaller holds more copies of the
    first generator on which their counts differ.
    """
    counts = []
    for c in g:
        counts += (-c, 0) if c > 0 else (0, c)
    return word_length(g), tuple(counts)


def canonical_order(elements: Iterable[GroupElement]) -> list[GroupElement]:
    """Total order: word length first, minimal-word lexicographic tie break."""
    return sorted(elements, key=canonical_key)


class GroupWindow(Record):
    """Finite ordered subset of Z^rank (or of Z^rank x N for product windows)."""

    spec: GroupSpec
    elements: tuple
    kind: str = "explicit"  # ball | box | explicit | product
    index: int | None = None
    # Private state, which __init__ leaves at these defaults and only the
    # builders (`_built`) set: `_shape` is ("cube", corner, side) for the
    # cells corner + [0, side)^rank or ("ball", m) for the ball of radius
    # m, and `_swept` marks a window that `sweep` made, in its own sweep
    # order.
    _shape: tuple | None = None
    _swept: bool = False

    def __post_init__(self):
        if len(set(self.elements)) != len(self.elements):
            raise ValueError("window elements must be distinct")

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, g):
        return g in self.position_map

    @cached_property
    def position_map(self) -> dict:
        return {g: i for i, g in enumerate(self.elements)}

    @property
    def name(self) -> str:  # box(3), ball(2), product(4) in cap messages
        return (f"{self.kind}({self.index})" if self.index is not None
                else f"{self.kind} window of {len(self)} cells")

    def sweep(self) -> GroupWindow:
        """The window in lexicographic order, longest extent outermost, so
        that a frontier swept along it spans the shortest extents.  A cube
        or a ball that a builder made has equal extents and comes out axis
        0 outermost with no sort: a cube's cells from `product`, a ball's
        from `_ball_coords`.  Any other window is sorted, once: the sweep
        is marked as its own sweep."""
        if self._swept:
            return self
        shape = self._shape
        if shape is None:
            extent = [max(xs) - min(xs) for xs in zip(*self.elements)]
            axes = sorted(range(len(extent)), key=lambda a: -extent[a])
            cells = tuple(sorted(self.elements,
                                 key=lambda c: [c[a] for a in axes]))
        elif shape[0] == "cube":
            _, corner, side = shape
            if self.spec.rank == 1 and corner[0] >= 0:
                cells = self.elements  # canonical order is ascending here
            else:
                cells = tuple(product(*(range(c, c + side) for c in corner)))
        else:
            cells = tuple(_ball_coords(self.spec.rank, shape[1]))
        return _built(self.spec, cells, self.kind, self.index, shape,
                      swept=True)


def _built(spec: GroupSpec, elements: tuple, kind: str,
           index: int | None = None, shape: tuple | None = None,
           swept: bool = False) -> GroupWindow:
    """A window whose elements a builder made distinct by construction, so
    it skips the distinctness check that __init__ runs; the fields are set
    as `Record.__init__` sets them, in field order, private state last."""
    window = object.__new__(GroupWindow)
    for name, value in (("spec", spec), ("elements", elements),
                        ("kind", kind), ("index", index), ("_shape", shape),
                        ("_swept", swept)):
        object.__setattr__(window, name, value)
    return window


def _ball_coords(rank: int, m: int):
    if rank == 1:
        for x in range(-m, m + 1):
            yield (x,)
    else:
        for x in range(-m, m + 1):
            for rest in _ball_coords(rank - 1, m - abs(x)):
                yield (x,) + rest


def _ball_shell(rank: int, s: int) -> list:
    """The cells of l1 norm s in canonical order: the first coordinate runs
    s, s - 1, ..., 1, -s, ..., -1, 0 (ascending in `canonical_key`'s pair
    for it) and the rest of each cell is a shell of rank - 1 in that order."""
    if rank == 1:
        return [(s,), (-s,)] if s else [(0,)]
    return [(x,) + rest for x in chain(range(s, 0, -1), range(-s, 0), (0,))
            for rest in _ball_shell(rank - 1, s - abs(x))]


def _box_shell(rank: int, s: int, n: int) -> list:
    """The cells of [0, n)^rank, rank >= 2, of l1 norm s in descending
    lexicographic order, which is canonical order on cells >= 0."""
    top, low = min(s, n - 1), max(0, s - (rank - 1) * (n - 1))
    if rank == 2:
        return [(x, s - x) for x in range(top, low - 1, -1)]
    return [(x,) + rest for x in range(top, low - 1, -1)
            for rest in _box_shell(rank - 1, s - x, n)]


def _interval_cells(lo: int, hi: int) -> tuple:
    """The cells lo..hi of Z in canonical order: ascending |x|, +x before
    -x, so 0, 1, -1, 2, -2, ... clipped to [lo, hi]."""
    if lo >= 0:
        xs = range(lo, hi + 1)
    elif hi <= 0:
        xs = range(hi, lo - 1, -1)
    else:
        k = min(hi, -lo)
        xs = chain((0,), chain.from_iterable(zip(range(1, k + 1),
                                                 range(-1, -k - 1, -1))),
                   range(k + 1, hi + 1), range(-k - 1, lo - 1, -1))
    return tuple(zip(xs))


def _cube_cells(corner: tuple, side: int) -> tuple:
    """The cells corner + [0, side)^rank, side >= 1, in canonical order:
    an interval or a box shell by shell, with no sort; any other cube by
    `canonical_order`."""
    if len(corner) == 1:
        return _interval_cells(corner[0], corner[0] + side - 1)
    if any(corner):
        return tuple(canonical_order(product(*(range(c, c + side)
                                               for c in corner))))
    return tuple(chain.from_iterable(
        _box_shell(len(corner), s, side)
        for s in range(len(corner) * (side - 1) + 1)))


def _cell_cap(cells: int, cap: int, subject: str) -> None:
    if cells > cap:
        raise CapExceeded("cells", cap, subject, f"{cells} cells")


def ball(m: int, spec: GroupSpec, cap: int = DEFAULT_CELL_CAP) -> GroupWindow:
    """The word-metric ball of radius m, in canonical order; its cells with
    k nonzero coordinates number 2^k C(rank, k) C(m, k)."""
    if m < 0:
        raise ValueError("radius must be >= 0")
    _cell_cap(sum(2 ** k * math.comb(spec.rank, k) * math.comb(m, k)
                  for k in range(spec.rank + 1)), cap, f"ball({m})")
    if spec.rank == 1:
        return _built(spec, _interval_cells(-m, m), "ball", m,
                      ("cube", (-m,), 2 * m + 1))
    cells = tuple(chain.from_iterable(_ball_shell(spec.rank, s)
                                      for s in range(m + 1)))
    return _built(spec, cells, "ball", m, ("ball", m))


def box(n: int, spec: GroupSpec, cap: int = DEFAULT_CELL_CAP) -> GroupWindow:
    """The box [0, n)^rank, in canonical order."""
    if n < 1:
        raise ValueError("box side must be >= 1")
    _cell_cap(n ** spec.rank, cap, f"box({n})")
    corner = (0,) * spec.rank
    return _built(spec, _cube_cells(corner, n), "box", n, ("cube", corner, n))


def interval(lo: int, hi: int, cap: int = DEFAULT_CELL_CAP) -> GroupWindow:
    """Explicit window {lo..hi} of Z, canonical order."""
    _cell_cap(hi - lo + 1, cap, f"interval {lo}..{hi}")
    return _built(GroupSpec(1), _interval_cells(lo, hi), "explicit",
                  shape=("cube", (lo,), max(0, hi - lo + 1)))


def product_window(window: GroupWindow, n: int,
                   cap: int = DEFAULT_CELL_CAP) -> GroupWindow:
    """F x {0..n-1} over Z^rank x N, ordered window-major."""
    if n < 1:
        raise ValueError("depth must be >= 1")
    _cell_cap(len(window) * n, cap, f"product({n})")
    elems = tuple(f + (k,) for f in window.elements for k in range(n))
    return _built(GroupSpec(window.spec.rank + 1), elems, "product", n)


def minkowski_sum(a: GroupWindow, b: GroupWindow,
                  cap: int = DEFAULT_CELL_CAP) -> GroupWindow:
    """The set {g + h : g in a, h in b}, canonical order.  The sum of two
    nonempty cubes that a builder made is the cube at the sum of their
    corners, of side s + t - 1, built as such.  Any other set grows by the
    sums of one element of the smaller window at a time, and the cap is
    checked after each, so a sum past the cap stops within max(|a|, |b|)
    cells of it."""
    shapes = (a._shape, b._shape)
    if all(s is not None and s[0] == "cube" and s[2] for s in shapes):
        corner = tuple(map(operator.add, a._shape[1], b._shape[1]))
        side = a._shape[2] + b._shape[2] - 1
        if side ** len(corner) <= cap:
            return _built(a.spec, _cube_cells(corner, side), "explicit",
                          shape=("cube", corner, side))
    outer, inner = sorted((a.elements, b.elements), key=len)
    elems = set()
    for h in outer:
        # map over operator.add: a call and a generator per pair were most
        # of the build
        elems.update([tuple(map(operator.add, g, h)) for g in inner])
        if len(elems) > cap:
            raise CapExceeded("cells", cap, f"sum of {a.name} and {b.name}",
                              f">= {len(elems)} cells")
    return _built(a.spec, tuple(canonical_order(elems)), "explicit")


class FolnerDescriptor(Record):
    """A ball- or box-shaped window family with the indices to be computed."""

    family: str  # balls | boxes
    indices: tuple

    def __post_init__(self):
        if self.family not in ("balls", "boxes"):
            raise ValueError("family must be 'balls' or 'boxes'")
        if list(self.indices) != sorted(set(self.indices)):
            raise ValueError("indices must be strictly increasing")

    def window(self, m: int, spec: GroupSpec, cap: int = DEFAULT_CELL_CAP) -> GroupWindow:
        return ball(m, spec, cap) if self.family == "balls" else box(m, spec, cap)
