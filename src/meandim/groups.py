"""Word geometry of Z^d with the standard symmetric generating set.

Elements are integer coordinate tuples.  The generating set is
e_1 < e_1^{-1} < e_2 < e_2^{-1} < ... (a fixed total order on generators),
so the word length is the l1 norm and balls are l1 balls.  Windows carry a
deterministic element order: sort by word length, break ties by comparing the
lexicographically least minimal generator word.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

GroupElement = tuple  # integer coordinate tuple of length rank

DEFAULT_CELL_CAP = 10**6
DEFAULT_PATTERN_CAP = 10**6
DEFAULT_CLOUD_CAP = 200_000


@dataclass(frozen=True)
class Caps:
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

    @property
    def name(self) -> str:  # box(3), ball(2), product(4) in cap messages
        return (f"{self.kind}({self.index})" if self.index is not None
                else f"{self.kind} window of {len(self)} cells")


def _ball_coords(rank: int, m: int):
    if rank == 1:
        for x in range(-m, m + 1):
            yield (x,)
    else:
        for x in range(-m, m + 1):
            for rest in _ball_coords(rank - 1, m - abs(x)):
                yield (x,) + rest


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
    return GroupWindow(spec=spec, kind="ball", index=m, elements=tuple(
        canonical_order(_ball_coords(spec.rank, m))))


def box(n: int, spec: GroupSpec, cap: int = DEFAULT_CELL_CAP) -> GroupWindow:
    """The box [0, n)^rank, in canonical order."""
    if n < 1:
        raise ValueError("box side must be >= 1")
    _cell_cap(n ** spec.rank, cap, f"box({n})")
    coords = [()]
    for _ in range(spec.rank):
        coords = [c + (x,) for c in coords for x in range(n)]
    return GroupWindow(spec=spec, elements=tuple(canonical_order(coords)),
                       kind="box", index=n)


def interval(lo: int, hi: int, cap: int = DEFAULT_CELL_CAP) -> GroupWindow:
    """Explicit window {lo..hi} of Z, canonical order."""
    _cell_cap(hi - lo + 1, cap, f"interval {lo}..{hi}")
    elems = tuple((x,) for x in range(lo, hi + 1))
    return GroupWindow(spec=GroupSpec(1),
                       elements=tuple(canonical_order(elems)), kind="explicit")


def product_window(window: GroupWindow, n: int,
                   cap: int = DEFAULT_CELL_CAP) -> GroupWindow:
    """F x {0..n-1} over Z^rank x N, ordered window-major."""
    if n < 1:
        raise ValueError("depth must be >= 1")
    _cell_cap(len(window) * n, cap, f"product({n})")
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
            raise CapExceeded("cells", cap, f"sum of {a.name} and {b.name}",
                              f">= {len(elems)} cells")
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
