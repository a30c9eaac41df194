"""Word geometry of Z^d with the standard symmetric generating set.

Elements are integer coordinate tuples.  The generating set is
e_1 < e_1^{-1} < e_2 < e_2^{-1} < ... (a fixed total order on generators),
so the word length is the l1 norm and balls are l1 balls.  Windows carry a
deterministic element order: sort by word length, break ties by comparing the
lexicographically least minimal generator word.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

GroupElement = tuple  # integer coordinate tuple of length rank

DEFAULT_CELL_CAP = 10**6


class WindowCapExceeded(RuntimeError):
    """A window would exceed the configured cell cap; fail loudly, never swap."""

    def __init__(self, requested, cap):
        super().__init__(f"window needs >= {requested} cells, cap is {cap}")
        self.requested = requested
        self.cap = cap


@dataclass(frozen=True)
class GroupSpec:
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


@dataclass(frozen=True)
class GroupWindow:
    """Finite ordered subset of Z^rank (or of Z^rank x N for product windows)."""

    spec: GroupSpec
    elements: tuple
    kind: str = "explicit"  # ball | box | explicit | product
    index: int | None = None

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


def _ball_coords(rank: int, m: int):
    if rank == 1:
        for x in range(-m, m + 1):
            yield (x,)
    else:
        for x in range(-m, m + 1):
            for rest in _ball_coords(rank - 1, m - abs(x)):
                yield (x,) + rest


def ball(m: int, spec: GroupSpec, cap: int = DEFAULT_CELL_CAP) -> GroupWindow:
    """The word-metric ball of radius m, in canonical order."""
    if m < 0:
        raise ValueError("radius must be >= 0")
    elems = []
    for g in _ball_coords(spec.rank, m):
        elems.append(g)
        if len(elems) > cap:
            raise WindowCapExceeded(len(elems), cap)
    return GroupWindow(spec=spec, elements=tuple(canonical_order(elems)),
                       kind="ball", index=m)


def box(n: int, spec: GroupSpec, cap: int = DEFAULT_CELL_CAP) -> GroupWindow:
    """The box [0, n)^rank, in canonical order."""
    if n < 1:
        raise ValueError("box side must be >= 1")
    if n ** spec.rank > cap:
        raise WindowCapExceeded(n ** spec.rank, cap)
    coords = [()]
    for _ in range(spec.rank):
        coords = [c + (x,) for c in coords for x in range(n)]
    return GroupWindow(spec=spec, elements=tuple(canonical_order(coords)),
                       kind="box", index=n)


def interval(lo: int, hi: int, spec: GroupSpec | None = None,
             cap: int = DEFAULT_CELL_CAP) -> GroupWindow:
    """Explicit 1-d interval window {lo..hi}, canonical order."""
    spec = spec or GroupSpec(1)
    if spec.rank != 1:
        raise ValueError("interval windows are rank 1")
    if hi - lo + 1 > cap:
        raise WindowCapExceeded(hi - lo + 1, cap)
    elems = tuple((x,) for x in range(lo, hi + 1))
    return GroupWindow(spec=spec, elements=tuple(canonical_order(elems)),
                       kind="explicit")


def product_window(window: GroupWindow, n: int,
                   cap: int = DEFAULT_CELL_CAP) -> GroupWindow:
    """F x {0..n-1} over Z^rank x N, ordered window-major."""
    if n < 1:
        raise ValueError("depth must be >= 1")
    if len(window) * n > cap:
        raise WindowCapExceeded(len(window) * n, cap)
    elems = tuple(f + (k,) for f in window.elements for k in range(n))
    return GroupWindow(spec=GroupSpec(window.spec.rank + 1), elements=elems,
                       kind="product", index=n)


def minkowski_sum(a: GroupWindow, b: GroupWindow,
                  cap: int = DEFAULT_CELL_CAP) -> GroupWindow:
    """The set {g + h : g in a, h in b}, canonical order.  The set grows by
    the sums of one element of the smaller window at a time, and the cap is
    checked after each, so a sum past the cap stops within max(|a|, |b|)
    cells of it."""
    outer, inner = sorted((a.elements, b.elements), key=len)
    elems = set()
    for h in outer:
        # map over operator.add: a call and a generator per pair were most
        # of the build
        elems.update([tuple(map(operator.add, g, h)) for g in inner])
        if len(elems) > cap:
            raise WindowCapExceeded(len(elems), cap)
    return GroupWindow(spec=a.spec, elements=tuple(canonical_order(elems)),
                       kind="explicit")


@dataclass(frozen=True)
class FolnerDescriptor:
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
