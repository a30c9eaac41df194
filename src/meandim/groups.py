"""Word geometry of Z^d with the standard symmetric generating set.

Elements are integer coordinate tuples.  The generating set is
e_1 < e_1^{-1} < e_2 < e_2^{-1} < ... (a fixed total order on generators),
so the word length is the l1 norm and balls are l1 balls.  Windows carry a
deterministic element order: sort by word length, break ties by comparing the
lexicographically least minimal generator word.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable
import json

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

    @property
    def identity(self) -> GroupElement:
        return (0,) * self.rank

    def generators(self) -> list[GroupElement]:
        """Generators in canonical order: +e_1, -e_1, +e_2, -e_2, ..."""
        gens = []
        for axis in range(self.rank):
            e = [0] * self.rank
            e[axis] = 1
            gens.append(tuple(e))
            gens.append(tuple(-v for v in e))
        return gens


def add(g: GroupElement, h: GroupElement) -> GroupElement:
    return tuple(a + b for a, b in zip(g, h))


def word_length(g: GroupElement) -> int:
    """Minimal generator word length; the l1 norm for standard generators."""
    return sum(abs(c) for c in g)


def minimal_word(g: GroupElement) -> tuple:
    """Lexicographically least minimal word, as a tuple of generator indices.

    Minimal words for g are exactly the arrangements of |c_i| copies of the
    axis-i generator (positive index 2i, inverse 2i+1); the least arrangement
    is the sorted multiset, which axis-ascending emission produces directly.
    """
    word = []
    for axis, c in enumerate(g):
        if c:
            word.extend([2 * axis if c > 0 else 2 * axis + 1] * abs(c))
    return tuple(word)


def canonical_key(g: GroupElement):
    return (word_length(g), minimal_word(g))


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

    def to_json(self) -> str:
        """Serialize as a JSON array of coordinate vectors; order is part of the form."""
        return json.dumps([list(g) for g in self.elements])

    @staticmethod
    def from_json(text: str, spec: GroupSpec) -> "GroupWindow":
        elems = tuple(tuple(v) for v in json.loads(text))
        return GroupWindow(spec=spec, elements=elems, kind="explicit")


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


def folner_defect(window: GroupWindow, g: GroupElement) -> Fraction:
    """Exact |F \\ gF| / |F| for the left translate gF."""
    if len(window) == 0:
        raise ValueError("window must be nonempty")
    translated = {add(g, f) for f in window.elements}
    missing = sum(1 for f in window.elements if f not in translated)
    return Fraction(missing, len(window))


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
    """The set {g + h : g in a, h in b}, canonical order."""
    elems = {add(g, h) for g in a.elements for h in b.elements}
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

    def windows(self, spec: GroupSpec, cap: int = DEFAULT_CELL_CAP) -> list[GroupWindow]:
        return [self.window(m, spec, cap) for m in self.indices]

    def check_nested(self, spec: GroupSpec, cap: int = DEFAULT_CELL_CAP) -> bool:
        """Nestedness on the requested indices.

        Balls also exhaust Z^rank; boxes [0,m)^rank exhaust only up to
        translation, which is all the Folner property needs.
        """
        wins = self.windows(spec, cap)
        for small, big in zip(wins, wins[1:]):
            big_set = set(big.elements)
            if not all(g in big_set for g in small.elements):
                return False
        return True

    def defect_table(self, spec: GroupSpec, cap: int = DEFAULT_CELL_CAP) -> dict:
        """folner_defect per generator per index; the Folner diagnostic."""
        table = {}
        for m in self.indices:
            w = self.window(m, spec, cap)
            table[m] = {g: folner_defect(w, g) for g in spec.generators()}
        return table
