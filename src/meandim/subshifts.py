"""Finite-alphabet subshifts over Z^d given by local rules.

Exact pattern enumeration (backtracking over the cells in window order),
exact big integer counting (one frontier, or broken-profile, transfer DP
for every rule on every window), the projected rule of a paired alphabet
and fiber counts.  A series of windows shares one sweep: the DP records
its running total at a list of stops, and each window that is a translate
of a prefix of the largest window's sweep reads its count off its stop
(`count_windows`).

Both engines read a window's step program (`_Program`): its distinct
steps, and one step index per cell.  A step holds, per symbol, the
`(mask, value)` pairs over the packed frontier slots that ban the symbol at
the cell, the slot it is seated in, and the slots that leave there.
`_templates` states the rule once, as clause templates: the offsets of an
adjacency edge or of a forbidden pattern, and per offset that fires (the
last cell of an instance) the symbols it bans there given symbols at the
other offsets.  `_cell_bans` places them at every cell of any window
through its position map, the one place where a template meets a cell,
and `_compile` builds the program from those clauses, interning equal
steps.  A cube that `groups` built (a box, a rank-1 ball, an interval, a
sum of two such) places them on a slab of 2 reach + 1 of its layers
along axis 0 alone (`_cube_program`, `reach` the furthest a template
reaches back along that axis): its layers take the clauses and the last
readers of the slab layer as far from the nearer face, shifted by whole
layers, and a steady layer repeats, with no cell tuples and no clause
lists past the slab.

The enumerator tests the bans on the packed frontier of its assignment.
The DP walks a dict of frontier states while fewer than `_ARRAY_STATES`
(32) are live and runs on arrays from then on: int64 keys while the
frontier fits in 63 bits, object keys past that, and int64 counts while a
bound on their total stays below 2^63, object counts of Python ints past
that, so every count stays exact.  An array step is a plan that depends on
the step and the keys alone (`_step_plan`) and one gather and one
`np.add.reduceat` of the counts.  Once a sweep row meets the keys of the
row before, every later steady row replays the plans of the row before
with no plan built and no lookup.  A rank-1 nearest-neighbour window holds
at most one state per symbol, so with fewer than 32 symbols its steps stay
on dicts.

A count of one window (`count_patterns`) whose program repeats one period
of steps many times (`_layers`: one cell of an interval or of a rank-1
ball or box, k cells of a k-wide strip) steps only the head and the tail.
In between it applies the layer's transfer operator T, where T[s][t] is
the number of ways one layer goes from frontier key s to key t, raised to
the number of repeats by squaring in exact ints (`_layer_power`), so a long
interval costs a few big products instead of a sum per cell.
`_takes_layers` picks that path from the repeats and T's state count; the
stop sweeps of `count_windows` and square boxes keep the step DP, and the
enumerator steps every cell.

Pattern legality on a window checks the rules that fit entirely inside the
window (free boundary).  For the shipped rule classes this either matches the
projection of globally legal configurations or over-counts by a boundary
factor that vanishes per site; `projection_count_interval` gives the exact
projection count for 1-d nearest-neighbor rules so the gap can be reported.
"""
from __future__ import annotations

from functools import cache
from itertools import chain, product
from operator import add, mul, sub
from typing import Iterable, Mapping, Sequence
import json

import numpy as np

from ._record import Record
from .groups import (CapExceeded, DEFAULT_PATTERN_CAP, GroupSpec, GroupWindow,
                     _built, json_int, json_object)
from .metrics import _INT64_LIMIT, exact_int_dtype


class Alphabet(Record):
    """Symbols 0..size-1, optionally structured as pairs A x B with size = a*b."""

    size: int
    pair: tuple | None = None  # (a, b)

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("alphabet must have at least one symbol")
        if self.pair is not None:
            a, b = self.pair
            if min(a, b) < 1 or a * b != self.size:
                raise ValueError("paired alphabet needs a, b >= 1 and "
                                 "size = a*b")

    @property
    def is_paired(self) -> bool:
        return self.pair is not None

    @property
    def a(self) -> int:
        return self.pair[0]

    @property
    def b(self) -> int:
        return self.pair[1]

    def pair_index(self, u: int, v: int) -> int:
        if not (0 <= u < self.a and 0 <= v < self.b):
            raise ValueError(f"pair ({u}, {v}) is outside [0, {self.a}) x "
                             f"[0, {self.b})")
        return u * self.b + v


class Rule(Record):
    """Composite local rule: cellwise symbol set, per-axis adjacency, forbidden patterns.

    axis_allowed maps an axis to a k x k boolean matrix M with M[s][t] true
    when symbol s at cell c and symbol t at cell c + e_axis may co-occur.
    Forbidden patterns are (offsets, symbols) pairs banned at every translate.
    """

    size: int
    allowed_symbols: frozenset | None = None
    axis_allowed: tuple = ()  # tuple of (axis, matrix-as-tuple-of-tuples)
    forbidden: tuple = ()     # tuple of (offsets tuple, symbols tuple)

    @staticmethod
    def full(size: int) -> "Rule":
        return Rule(size=size)

    @staticmethod
    def cellwise(size: int, allowed: Iterable[int]) -> "Rule":
        return Rule(size=size, allowed_symbols=frozenset(allowed))

    @staticmethod
    def nearest_neighbor(size: int, forbidden_pairs: Mapping[int, Iterable[tuple]]) -> "Rule":
        mats = []
        for axis, pairs in sorted(forbidden_pairs.items()):
            banned = set(tuple(p) for p in pairs)
            if any(len(p) != 2 or not all(0 <= s < size for s in p)
                   for p in banned):
                raise ValueError(f"axis {axis}: a forbidden pair is not two "
                                 f"symbols in [0, {size})")
            mat = tuple(tuple((s, t) not in banned for t in range(size))
                        for s in range(size))
            mats.append((axis, mat))
        return Rule(size=size, axis_allowed=tuple(mats))

    @staticmethod
    def forbidden_patterns(size: int, patterns: Iterable[tuple]) -> "Rule":
        pats = tuple((tuple(tuple(o) for o in offs), tuple(syms))
                     for offs, syms in patterns)
        return Rule(size=size, forbidden=pats)

    def matrix_for_axis(self, axis: int):
        return dict(self.axis_allowed).get(axis)

    @property
    def symbols(self) -> list[int]:
        if self.allowed_symbols is None:
            return list(range(self.size))
        return sorted(self.allowed_symbols)

    @property
    def factors_over_cells(self) -> bool:
        """No adjacency matrix and no forbidden pattern: on any window, every
        word over `symbols` is legal."""
        return not self.axis_allowed and not self.forbidden


class SubshiftSpec(Record):
    rank: int
    alphabet: Alphabet
    rule: Rule
    name: str = ""

    def __post_init__(self):
        if self.rule.size != self.alphabet.size:
            raise ValueError("rule and alphabet sizes disagree")
        if self.alphabet.size > 256:
            raise ValueError("patterns store one byte per cell; 256 symbols max")
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        rule = self.rule
        symbols = set(rule.allowed_symbols or ())
        symbols.update(s for _, syms in rule.forbidden for s in syms)
        if not symbols <= set(range(rule.size)):
            raise ValueError(f"rule symbols must lie in [0, {rule.size})")
        if any(not 0 <= axis < self.rank for axis, _ in rule.axis_allowed):
            raise ValueError(f"rule axes must lie in [0, {self.rank})")
        for offs, syms in rule.forbidden:
            if (not offs or len(offs) != len(syms)
                    or any(len(o) != self.rank for o in offs)):
                raise ValueError("a forbidden pattern needs one symbol per "
                                 f"offset and {self.rank} coordinates per "
                                 "offset")

    @property
    def group(self) -> GroupSpec:
        """Z^rank, one `GroupSpec` per rank for every spec of that rank."""
        group = _GROUPS.get(self.rank)
        if group is None:
            group = _GROUPS[self.rank] = GroupSpec(self.rank)
        return group


_GROUPS: dict = {}  # rank -> its GroupSpec


class PatternSet(Record):
    """Enumerated legal assignments window -> alphabet, in deterministic order."""

    spec: SubshiftSpec
    window: GroupWindow
    patterns: tuple  # tuple of bytes, one byte per cell in window order

    @property
    def count(self) -> int:
        return len(self.patterns)


class FiberTable(Record):
    """Map from projected B-pattern v to the fiber count t(v)."""

    spec: SubshiftSpec
    window: GroupWindow
    entries: Mapping  # bytes -> int

    # no CLI path uses it; kept while perfbench/layers.py counts with it
    @property
    def total(self) -> int:
        return sum(self.entries.values())


# ---------------------------------------------------------------------------
# construction helpers for the shipped systems

def full_shift(size, rank: int = 1, name: str = "") -> SubshiftSpec:
    if isinstance(size, tuple):
        a, b = size
        alpha = Alphabet(a * b, pair=(a, b))
    else:
        alpha = Alphabet(size)
    return SubshiftSpec(rank, alpha, Rule.full(alpha.size), name or "full")


def golden_mean(rank: int = 1, name: str = "golden-mean") -> SubshiftSpec:
    """Binary shift forbidding adjacent (1,1) along every axis."""
    forb = {axis: [(1, 1)] for axis in range(rank)}
    return SubshiftSpec(rank, Alphabet(2), Rule.nearest_neighbor(2, forb), name)


def hard_square(rank: int = 2) -> SubshiftSpec:
    return golden_mean(rank=rank, name="hard-square")


def cellwise_pair_shift(a: int, b: int, pairs: Iterable[tuple], rank: int = 1,
                        name: str = "cellwise") -> SubshiftSpec:
    alpha = Alphabet(a * b, pair=(a, b))
    allowed = [alpha.pair_index(u, v) for u, v in pairs]
    return SubshiftSpec(rank, alpha, Rule.cellwise(alpha.size, allowed), name)


def mcmullen_shift() -> SubshiftSpec:
    """a=4, b=2 cellwise shift with allowed pairs {(0,0),(1,0),(0,1)}."""
    return cellwise_pair_shift(4, 2, [(0, 0), (1, 0), (0, 1)], name="mcmullen")


def pair_shift_with_b_rule(a: int, b_spec: SubshiftSpec, name: str = "") -> SubshiftSpec:
    """Paired shift: the B component follows b_spec's NN rule, A is free."""
    b = b_spec.alphabet.size
    alpha = Alphabet(a * b, pair=(a, b))
    mats = [(axis, tuple(tuple(bmat[s % b][t % b] for t in range(alpha.size))
                         for s in range(alpha.size)))
            for axis, bmat in b_spec.rule.axis_allowed]
    allowed = None
    if b_spec.rule.allowed_symbols is not None:
        allowed = frozenset(u * b + v for u in range(a)
                            for v in b_spec.rule.allowed_symbols)
    rule = Rule(size=alpha.size, allowed_symbols=allowed, axis_allowed=tuple(mats))
    return SubshiftSpec(b_spec.rank, alpha, rule, name or f"{b_spec.name}-on-B")


def projected_spec(spec: SubshiftSpec) -> SubshiftSpec | None:
    """The induced subshift on the B component, when derivable from the rule.

    Derivable for full or cellwise rules and for NN rules whose matrices
    factor through the B component (A free); returns None otherwise.
    """
    alpha = spec.alphabet
    if not alpha.is_paired:
        raise ValueError("projection needs a paired alphabet")
    a, b = alpha.pair
    rule = spec.rule
    if rule.forbidden:
        return None
    mats = []
    for axis, mat in rule.axis_allowed:
        bmat = [[False] * b for _ in range(b)]
        for s in rule.symbols:
            for t in rule.symbols:
                if mat[s][t]:
                    bmat[s % b][t % b] = True
        # factorization check: lifted matrix must reproduce mat
        for s in rule.symbols:
            for t in rule.symbols:
                if mat[s][t] != bmat[s % b][t % b]:
                    return None
        mats.append((axis, tuple(tuple(r) for r in bmat)))
    bset = sorted({s % b for s in rule.symbols})
    allowed = None if len(bset) == b else frozenset(bset)
    return SubshiftSpec(spec.rank, Alphabet(b),
                        Rule(size=b, allowed_symbols=allowed,
                             axis_allowed=tuple(mats)),
                        spec.name + "-proj")


# ---------------------------------------------------------------------------
# constraints, backtracking enumeration, frontier counting

@cache  # one table per rule, which every compile of a window reads
def _templates(spec: SubshiftSpec) -> tuple:
    """The rule, stated once, as clause templates `(offsets, fires)`.  An
    adjacency axis gives the offsets `(0, e_axis)` and a forbidden pattern
    its distinct offsets, shifted so that the first is 0, in order of first
    use; a pattern that forces an offset to two symbols never matches and
    gives none.
    Placed at a cell c, a template covers the cells c + offsets, and the
    last of them in the window's order fires: `fires[k]`, for the offset k
    that fires, holds the `(s, others)` pairs that ban a symbol s of the
    rule there given `others[j]` at the other offsets in order, sorted."""
    rule = spec.rule
    symbols = rule.symbols
    allowed = set(symbols)
    zero = (0,) * spec.rank
    banned = []  # (offsets, the symbol tuples they ban)
    for axis, mat in rule.axis_allowed:
        e = tuple(int(a == axis) for a in range(spec.rank))
        banned.append(((zero, e), [(s, t) for s in symbols for t in symbols
                                   if not mat[s][t]]))
    for offs, syms in rule.forbidden:
        need = {}
        if not any(need.setdefault(tuple(map(sub, off, offs[0])), t) != t
                   for off, t in zip(offs, syms)):
            banned.append((tuple(need), [tuple(need.values())]))
    templates = []
    for offsets, tuples in banned:
        fires = tuple(tuple(sorted((ts[k], ts[:k] + ts[k + 1:])
                                   for ts in tuples if ts[k] in allowed))
                      for k in range(len(offsets)))
        if any(fires):
            templates.append((offsets, fires))
    return tuple(templates)


def _cell_bans(spec: SubshiftSpec, window: GroupWindow) -> list:
    """Per cell i, the `(s, clause)` pairs that ban symbol s at i: s is
    illegal when every `(p, t)` in `clause` has symbol t at an earlier
    cell p.  Every template of `_templates` is placed at every cell, in
    window order, through the position map, and an instance inside the
    window gives its clauses at its last cell."""
    bans = [[] for _ in range(len(window))]
    templates = _templates(spec)
    # per axis, the coordinates of the cells, when a template reads them
    axes = list(zip(*window.elements)) if templates else ()
    for offsets, fires in templates:
        # per offset but the first, the positions of the translates
        ends = [map(window.position_map.get,
                    zip(*[[x + a for x in xs] if a else xs
                          for xs, a in zip(axes, d)]))
                for d in offsets[1:]]
        inside = [inst for inst in zip(range(len(bans)), *ends)
                  if None not in inst]
        for inst, last in zip(inside, map(max, inside)):
            k = inst.index(last)
            others = inst[:k] + inst[k + 1:]
            cell = bans[last]
            for s, ts in fires[k]:
                cell.append((s, tuple(zip(others, ts))))
    return bans


class _Program(Record):
    """A window compiled in its cell order: its distinct steps, in order of
    first use, the step index of each cell, and the cells per sweep row
    (`_sweep_row`).

    A state of the DP is a key that packs the symbols of the frontier (the
    seated cells that a later clause still reads), `width` bits per slot.
    A step is a triple `(keep, moves, top)`.  It clears the slots of the
    cells that leave there, keeping `keep`.  Per symbol s of
    `rule.symbols`, `moves` holds `(add, bans)`: `add` is s in the slot of
    the cell seated there (0 when no later clause reads the cell), and s is
    illegal when `key & mask == value` for a `(mask, value)` pair of
    `bans`, sorted and distinct.  `top` is the bits in use, the bound of
    the array keys."""

    steps: tuple
    cells: tuple
    row: int


class _Seating:
    """The frontier slots while a program is compiled, cell by cell.

    `step` turns a cell's `(s, clause)` pairs of `_cell_bans` into
    `(mask, value)` pairs over the slots of the cells they read, frees the
    slots of the cells that leave there (their last reader), then seats the
    cell in the slot freed last, or a new one, if a later clause reads it.
    Equal steps share one index."""

    def __init__(self, spec: SubshiftSpec):
        self.symbols = spec.rule.symbols
        self.width = max(1, (spec.rule.size - 1).bit_length())
        self.full = (1 << self.width) - 1
        self.slot, self.free, self.top, self.live = {}, [], 0, 0
        self.steps = {}  # step -> its index
        self.adds = {None: (0,) * len(self.symbols)}  # seat -> the adds

    def step(self, i: int, clauses, leaving, seated: bool,
             base: int = 0) -> int:
        """The index of cell i's step; its `(s, clause)` pairs read the
        cells `base + p`."""
        slot, full, free = self.slot, self.full, self.free
        bans = {}
        for s, clause in clauses:
            mask = value = 0
            for p, t in clause:
                q = slot[base + p]
                mask |= full << q
                value |= t << q
            bans[s] = bans.get(s, ()) + ((mask, value),)
        live = self.live
        for j in leaving:
            q = slot.pop(j)
            live &= ~(full << q)
            free.append(q)
        keep, seat = live, None
        if seated:
            if not free:
                free.append(self.top)
                self.top += self.width
            seat = slot[i] = free.pop()
            live |= full << seat
        self.live = live
        adds = self.adds.get(seat)
        if adds is None:
            adds = self.adds[seat] = tuple(s << seat for s in self.symbols)
        step = (keep, tuple([(a, tuple(sorted(set(bans[s]))) if s in bans
                              else ()) for s, a in zip(self.symbols, adds)]),
                self.top)
        return self.steps.setdefault(step, len(self.steps))


def _last_readers(clauses: Sequence) -> list:
    """Per cell of `_cell_bans`' clauses, the step after which it leaves:
    the last cell whose clauses read it, or the cell itself when none
    does."""
    last = list(range(len(clauses)))
    for i, cell in enumerate(clauses):
        for _, clause in cell:
            for p, _ in clause:
                last[p] = i
    return last


def _compile(spec: SubshiftSpec, window: GroupWindow) -> _Program:
    """The step program of the window's cells in their order, from the
    clauses of `_cell_bans`: a cell leaves after the last step whose
    clauses read it."""
    clauses = _cell_bans(spec, window)
    n = len(window)
    last = _last_readers(clauses)
    # the seated cells that leave at step i; the empty tuple is shared, so
    # a window of n cells adds n pointers and one tuple per leaving step
    leaving = [()] * n
    for p, i in enumerate(last):
        if i > p:
            leaving[i] += (p,)
    seating = _Seating(spec)
    cells = tuple(seating.step(i, clauses[i], leaving[i], last[i] > i)
                  for i in range(n))
    return _Program(tuple(seating.steps), cells, _sweep_row(window.elements))


def _sweep_row(cells: Sequence) -> int:
    """The cells of the first sweep row of cells in lexicographic order:
    the longest run of leading cells that agree with the first cell on an
    axis on which some cell does not (the outermost axis that varies).  In
    the sweep of a box, or of any other product of intervals, every row has
    that many cells.  The rows of a ball differ in length, and its steps do
    not repeat: every step of a hard-square ball of radius 4, 6 or 10 is
    distinct."""
    n = len(cells)
    runs = [next((j for j, c in enumerate(cells) if c[a] != x), n)
            for a, x in enumerate(cells[0])] if n else []
    return max([run for run in runs if run < n], default=max(n, 1))


def _cube_program(spec: SubshiftSpec, rank: int, side: int) -> _Program:
    """The step program of the sweep of a cube of the given side, equal to
    `_compile` on the swept cube, from the clauses of `_cell_bans` on a slab
    of the cube: its first min(side, 2 reach + 1) layers along axis 0 (a
    sweep row, side^(rank-1) cells), where `reach` is the furthest a
    template reaches along axis 0.

    Clauses read only backwards, at most `reach` layers, so a layer's
    clauses depend only on its distance from the lower face, and a cell's
    last reader only on its distance from the upper face.  Cube layer x
    thus takes the clauses and the readers of slab layer x below `reach`,
    of slab layer `reach` up to side - 1 - reach, and of the slab layer as
    far from the upper face above that, shifted by whole layers.  Once a
    middle layer starts from the slots that the layer before it started
    from, shifted by one layer, it repeats that layer's steps and ends as
    that layer ended, and by induction so does every layer up to the last
    `reach` ones, which are compiled as they come."""
    firsts = [[d[0] for d in offsets] for offsets, _ in _templates(spec)]
    reach = max((max(xs) - min(xs) for xs in firsts), default=0)
    layers = min(side, 2 * reach + 1)
    slab = _built(spec.group, tuple(product(range(layers),
                                            *[range(side)] * (rank - 1))),
                  "box")
    if layers == side:
        return _compile(spec, slab)
    clauses = _cell_bans(spec, slab)
    last = _last_readers(clauses)
    seating = _Seating(spec)
    row = side ** (rank - 1)
    leaving = {}  # step -> the seated cells that leave after it

    def layer(x0: int) -> tuple:
        at = x0 if x0 < reach else max(reach, x0 - side + layers)
        out, step, i, base = [], seating.step, x0 * row, (x0 - at) * row
        for j in range(at * row, (at + 1) * row):
            seated = last[j] > j
            if seated:
                leaving.setdefault(last[j] + base, []).append(i)
            out.append(step(i, clauses[j], leaving.pop(i, ()), seated, base))
            i += 1
        return tuple(out)

    def start(x0: int) -> tuple:
        """The slots, the free list, the bits in use and the pending
        departures, with cells counted from the start of layer x0."""
        base = x0 * row
        return (sorted((p - base, q) for p, q in seating.slot.items()),
                tuple(seating.free), seating.top,
                sorted((q - base, [p - base for p in cells])
                       for q, cells in leaving.items()))

    parts, prev, x0 = [], None, 0
    while x0 < side:
        # the start of a layer that may repeat, or be repeated by, the next
        now = start(x0) if reach <= x0 <= side - 1 - reach else None
        if now is not None and now == prev:
            # layers x0 .. side-1-reach repeat layer x0 - 1
            skip = side - reach - x0
            parts.append(parts[-1] * skip)
            delta = skip * row
            seating.slot = {p + delta: q for p, q in seating.slot.items()}
            leaving = {q + delta: [p + delta for p in cells]
                       for q, cells in leaving.items()}
            x0, prev = x0 + skip, None
            continue
        prev = now
        parts.append(layer(x0))
        x0 += 1
    return _Program(tuple(seating.steps), tuple(chain.from_iterable(parts)),
                    row)


def _program(spec: SubshiftSpec, window: GroupWindow) -> _Program:
    """The step program of the window's sweep (`GroupWindow.sweep`): of a
    nonempty cube that `groups` built (a box, a rank-1 ball, an interval, a
    sum of two such) from a slab of it (`_cube_program`), of any other
    window from all its cells; either way compiled from `_cell_bans`."""
    shape = window._shape
    if shape is not None and shape[0] == "cube" and shape[2]:
        return _cube_program(spec, window.spec.rank, shape[2])
    return _compile(spec, window.sweep())


def _iter_patterns(spec: SubshiftSpec, window: GroupWindow, cap: int):
    """Depth-first over cells in window order; deterministic symbol order.
    A cell's symbols are tested against the bans of its step, as the DP
    tests them, on the packed frontier of the assignment so far.  An
    explicit stack of per-depth iterators over the symbols replaces
    recursion, so the depth is bounded by the cell cap rather than by the
    interpreter.  Finding pattern number cap + 1 raises the patterns cap."""
    n = len(window)
    if n == 0:
        if cap < 1:
            raise CapExceeded("patterns", cap, window.name, ">= 1 patterns")
        yield b""
        return
    program = (_program(spec, window) if window._swept
               else _compile(spec, window))
    steps, cells = program.steps, program.cells
    # per step: (symbol, add, bans) per symbol, in symbol order
    choices = [tuple(zip(spec.rule.symbols, *zip(*moves)))
               for _, moves, _ in steps]
    keeps = [steps[k][0] for k in cells]
    assign = bytearray(n)
    keys = [0] * n  # per depth: the frontier before that cell
    trying = [iter(choices[cells[0]])] + [None] * (n - 1)
    i = found = 0
    while i >= 0:
        key = keys[i]
        for s, add, bans in trying[i]:
            for mask, value in bans:
                if key & mask == value:
                    break
            else:
                assign[i] = s
                if i < n - 1:
                    keys[i + 1] = key & keeps[i] | add
                    i += 1
                    trying[i] = iter(choices[cells[i]])
                    break
                found += 1
                if found > cap:
                    raise CapExceeded("patterns", cap, window.name,
                                      f">= {found} patterns")
                yield bytes(assign)
        else:
            i -= 1


def enumerate_patterns(spec: SubshiftSpec, window: GroupWindow,
                       cap: int = DEFAULT_PATTERN_CAP) -> PatternSet:
    return PatternSet(spec=spec, window=window,
                      patterns=tuple(_iter_patterns(spec, window, cap)))


# Live frontier states from which the DP step runs on arrays; below it the
# per-call overhead of numpy outweighs the vector step.  Milliseconds per
# count at each value (2 vCPU x86_64, min of 6-30 runs per window, values
# interleaved): hard-square boxes and balls, and rank-3 hard-core boxes.
#
#   window          16      32      64     128
#   box(5)        0.31    0.20    0.19    0.20
#   box(7)        0.39    0.38    0.45    0.49
#   box(8)        0.47    0.46    0.49    0.86
#   box(9)        0.58    0.58    0.56    1.84
#   box(12)       1.38    1.47    1.23    1.39
#   box(16)      12.60   12.11   12.17   11.18
#   ball(3)       0.39    0.18    0.19    0.18
#   ball(4)       0.68    0.58    0.57    0.37
#   ball(8)       4.68    4.44    4.58    4.68
#   rank-3 box(3) 0.51    0.44    0.48    0.48
#   rank-3 box(4) 2.20    2.05    2.04    2.10
#
# Boxes 10..16 and balls 5..8 stay within the 10% run-to-run spread at any
# value.  At 16 the windows of a few cells slow down, at 128 boxes 8 and 9
# (a row of dict steps on about 100 states); box 7, whose rows reach 32 to
# 63 states, is 15% faster at 32 than at 64 in each of four runs.
_ARRAY_STATES = 32


def _frontier_count(spec: SubshiftSpec, window: GroupWindow,
                    stops: Sequence[int] | None = None,
                    cap: int = DEFAULT_PATTERN_CAP) -> list[int]:
    """Broken-profile transfer DP over the step program of the window's
    sweep (`_program`).

    Returns the running total, the sum of the state counts, after each of
    the increasing cell counts in `stops` (default: the whole window).  With
    the default, a run of repeated layers that pays (`_layers`,
    `_takes_layers`) is jumped by the layer operator (`_layer_power`) once
    the DP has run the cells before it, and the DP runs the cells after.
    Every clause of `_cell_bans` fires at its last cell, so after k steps
    every clause among the first k cells has fired and no other has: the
    total is the exact free-boundary count of those k cells.

    A state is a frontier key (`_Program`) mapped to an exact count.  Each
    cell's step keeps the states that pass its bans, clears the slots that
    leave and adds the symbol in the cell's slot, so states that agree on
    the remaining frontier merge.  While fewer than `_ARRAY_STATES` states
    are live the step walks a dict of states.  From then on it runs on
    arrays: keys of dtype `exact_int_dtype(1 << top)` (int64 while the
    frontier fits in 63 bits, promoted to object on the step it stops
    fitting) and counts of dtype `exact_int_dtype(bound)`.  `bound` starts
    as the exact total of the dict states and is multiplied by the number
    of moves before each step, since each state feeds each move at most
    once.  Where it reaches `_INT64_LIMIT` (2^63, the limit that
    `exact_int_dtype` tests) it is tightened to the exact int64 total
    times the moves, and where that reaches the limit too the counts turn to
    object arrays of Python ints before the step runs; they never turn
    back.  So no int64 sum can wrap, and every total is an exact Python
    int.  Each move keeps the states whose masks pass, the targets are
    sorted and equal keys merge with `np.add.reduceat`.  All of that but
    the sum is the step's plan (`_step_plan`), a pure function of the step
    and the keys.

    So a cell whose step is that of the cell one sweep row back, and whose
    keys equal the keys that cell met, takes that cell's plan, and ends
    with the keys that cell ended with.  The next cell whose step repeats
    the one a row back then meets equal keys too, by induction, so once a
    row's keys repeat those of the row before, every later cell of a
    steady row replays the plan one row back with no plan built and no
    comparison: one gather and one `reduceat` per cell.  The keys are
    compared (`np.array_equal`) only where the steps repeat and the
    induction does not yet hold.  The count holds one row of plans.  A
    step that leaves more than `cap` states raises the patterns cap,
    naming the window.
    """
    program = _program(spec, window)
    steps, cells, row = program.steps, program.cells, program.row
    n = len(cells)
    marks = set([n] if stops is None else stops)
    # with a single stop, the repeated layers of the program, if any: the
    # DP runs the head, cells[:head], and may then jump them.  They are
    # looked for only where an operator of one key would pay, as the rule
    # asks more layers of more keys
    layers = (_layers(cells, row) if stops is None
              and _takes_layers(1, (n - 1) // row) else None)
    head = n if layers is None else layers[0]
    totals = []
    states = {0: 1}
    keys = counts = None  # the states once the step runs on arrays
    bound = None  # above the counts' total while they are int64
    back = [None] * row  # per column: the keys one row back and their plan
    same = False  # whether the keys equal those one row back
    lo = 0
    for hi in (head, n):
        for i in range(lo, hi):
            k = cells[i]
            keep, moves, top = steps[k]
            if keys is None and len(states) >= _ARRAY_STATES:
                keys = np.array(list(states), dtype=exact_int_dtype(1 << top))
                bound = sum(states.values())
                counts = np.array(list(states.values()),
                                  dtype=exact_int_dtype(bound))
            if keys is None:
                states = _dict_step(states, keep, moves)
            else:
                if bound is not None:
                    # each state feeds each move at most once
                    bound *= len(moves)
                    if bound >= _INT64_LIMIT:
                        bound = int(counts.sum()) * len(moves)
                        if bound >= _INT64_LIMIT:
                            counts, bound = counts.astype(object), None
                col = i % row
                prev = back[col]
                if prev is not None and k == cells[i - row] and (
                        same or np.array_equal(keys, prev[0])):
                    plan, same = prev[1], True
                else:
                    keys = keys.astype(exact_int_dtype(1 << top), copy=False)
                    plan, same = _step_plan(keys, keep, moves), False
                back[col] = keys, plan
                keys, src, starts = plan
                counts = np.add.reduceat(counts[src], starts)
            size = len(states) if keys is None else len(keys)
            if size > cap:
                raise CapExceeded("patterns", cap, window.name,
                                  f"{size} live frontier states")
            if i + 1 in marks:
                totals.append(sum(states.values()) if keys is None
                              else int(counts.sum()))
        lo = hi
        if hi < n:  # the end of the head: jump the layers, if they pay
            start, period, repeats = layers
            size = len(states) if keys is None else len(keys)
            if _takes_layers(size, repeats):
                if keys is not None:
                    states = dict(zip(keys.tolist(), counts.tolist()))
                layer = cells[start:start + period]
                jumped = _layer_power(states, steps, layer, repeats, cap,
                                      window)
                if jumped is not None:
                    states, lo = jumped, start + period * repeats
                    keys = counts = bound = None
                    back, same = [None] * row, False
    return totals


def _dict_step(states: dict, keep: int, moves) -> dict:
    """The dict form of a step: each move, a symbol, over every state."""
    nxt: dict = {}
    get = nxt.get
    items = states.items()
    for add, ban in moves:
        for key, cnt in items:
            for mask, value in ban:
                if key & mask == value:
                    break
            else:
                k = key & keep | add
                nxt[k] = get(k, 0) + cnt
    return nxt


def _step_plan(keys, keep: int, moves):
    """The merge of one array step as `(merged_keys, src, starts)`: the
    step's counts are `np.add.reduceat(counts[src], starts)`.  It depends
    on the keys, `keep` and `moves` alone, never on the counts."""
    base = keys & keep
    index = np.arange(len(keys))
    targets, sources = [], []
    for add, ban in moves:
        kept, src = base, index
        if ban:
            (mask, value), *rest = ban
            ok = (keys & mask) != value
            for mask, value in rest:
                ok &= (keys & mask) != value
            src = np.flatnonzero(ok)
            kept = base[src]
        targets.append(kept | add)
        sources.append(src)
    keys = np.concatenate(targets)
    # the stable sort loads less of numpy than the default kind: about
    # 0.25 MB less peak RSS in a fresh process
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return keys[starts], np.concatenate(sources)[order], starts


def _periodic_run(cells: Sequence, i: int, period: int) -> int:
    """The largest e >= i with cells[j] == cells[j + period] for every j
    in [i, e), by slices that double while they match and halve where they
    do not."""
    n, size = len(cells) - period, period
    while size:
        e = min(i + size, n)
        if i < e and cells[i:e] == cells[i + period:e + period]:
            i, size = e, size * 2
        else:
            size //= 2
    return i


# The most sweep rows that one period of repeated steps may span: a rule
# that reads back r rows along the sweep may seat each cell in the slot of
# the cell r rows back, so that its steps repeat only every r rows (two
# cells for a rank-1 rule that reads two cells back).
_PERIODS = 4


def _layers(cells: tuple, row: int) -> tuple | None:
    """`(start, period, repeats)`: from `start` on, the `period` cells there
    repeat `repeats` >= 2 times, with at least the last cell after them; or
    None.  The period is the least of one to `_PERIODS` sweep rows that
    repeats at the middle row; the run is followed from there both ways
    and cut to whole periods from a row boundary."""
    n = len(cells)
    mid = n // row // 2 * row
    for period in range(row, min(_PERIODS * row, (n - mid) // 2) + 1, row):
        if cells[mid:mid + period] == cells[mid + period:mid + 2 * period]:
            break
    else:
        return None
    end = min(_periodic_run(cells, mid, period) + period, n - 1)
    start = n - period - _periodic_run(cells[::-1], n - mid - period, period)
    start += -start % row
    repeats = (end - start) // period
    return (start, period, repeats) if repeats > 1 else None


# Whether n repeated layers from m frontier keys are counted by the layer
# operator (`_layer_power`) rather than the DP: 32 <= n and m^2 log2(n) <
# 32 n, log2(n) read as n.bit_length().  The DP steps about n layers of m
# states; the operator steps m layers to find T, then squares it log2(n)
# times, m^3 products each.  Milliseconds per count of a compiled program,
# DP / operator (2 vCPU x86_64, min of 60 runs):
#
#   n layers of          24         32         48         64        128
#   golden-mean cell  0.03/0.03  0.03/0.03  0.05/0.04  0.06/0.04  0.13/0.04
#   3-symbol cell     0.04/0.05  0.06/0.05  0.08/0.05  0.11/0.05  0.22/0.06
#   golden-B cell     0.07/0.07  0.09/0.07  0.14/0.08  0.19/0.08  0.36/0.10
#   hard-square 3     0.15/0.11  0.20/0.11  0.30/0.13  0.39/0.13  0.78/0.16
#   hard-square 4     0.30/0.25  0.42/0.28  0.61/0.32  0.80/0.36  1.66/0.45
#   hard-square 5     0.59/0.84  0.79/0.84  1.17/1.14  1.58/1.15  3.06/1.42
#   hard-square 6     1.10/2.85  1.52/2.89  2.19/3.89  3.10/3.94  5.99/5.52
#
# (m = 2, 3, 4 keys on a cell of the rank-1 rules; columns of k cells of
# the hard square, m = 5, 8, 13, 21.)  The rule takes the operator from 32
# layers for m <= 13 and from 128 for m = 21.
def _takes_layers(states: int, repeats: int) -> bool:
    return 32 <= repeats and states * states * repeats.bit_length() < \
        32 * repeats


def _layer_power(states: dict, steps: tuple, layer: tuple, repeats: int,
                 cap: int, window: GroupWindow) -> dict | None:
    """The states after `repeats` runs of the steps `layer` from `states`,
    by the layer's transfer operator; None once the operator has too many
    states to pay (`_takes_layers`).

    T[s][t] is the number of ways the layer goes from key s to key t: the
    layer run by the DP from {s: 1}.  Its states are the closure of the
    keys of `states` under the layer, so `states` times T^repeats, with T
    raised by repeated squaring in exact ints, is the DP's result.  More
    states than `cap` raise the patterns cap, naming the window."""
    order = list(states)  # T's states, in order of discovery
    index = dict(zip(order, range(len(order))))
    rows = []
    for key in order:  # grows while it is read
        out = {key: 1}
        for k in layer:
            keep, moves, _ = steps[k]
            out = _dict_step(out, keep, moves)
        rows.append(out)
        for t in out:
            if t not in index:
                index[t] = len(order)
                order.append(t)
        if len(order) > cap:
            raise CapExceeded("patterns", cap, window.name,
                              f"{len(order)} live frontier states")
        if not _takes_layers(len(order), repeats):
            return None
    m = len(order)
    transfer = [[0] * m for _ in range(m)]
    for line, out in zip(transfer, rows):
        for t, c in out.items():
            line[index[t]] = c
    power = transfer
    for bit in bin(repeats)[3:]:
        power = _matrix_product(power, power)
        if bit == "1":
            power = _matrix_product(power, transfer)
    vector = [states.get(key, 0) for key in order]
    return {key: c for key, c in zip(order, _matrix_product([vector],
                                                             power)[0]) if c}


def _matrix_product(a: list, b: list) -> list:
    """The product of two matrices of exact ints, as lists of rows."""
    columns = list(zip(*b))
    return [[sum(map(mul, r, c)) for c in columns] for r in a]


def count_patterns(spec: SubshiftSpec, window: GroupWindow,
                   cap: int = DEFAULT_PATTERN_CAP) -> int:
    """Exact number of free-boundary legal patterns on the window.

    Rules with no adjacency and no forbidden patterns have the closed form
    |symbols|^n.  Every other rule, on every window of any rank, is counted
    by the frontier DP `_frontier_count` in exact integers over the
    window's sweep order, with a single stop at the last cell.  Its frontier
    holds only the cells that a clause of `_cell_bans` still reads, so a
    matrix that bans nothing adds no state.  Where the window's program
    repeats a layer often enough for `_takes_layers` (an interval, a rank-1
    ball or box, a long strip of a few rows), the repeated layers are
    counted by the layer's transfer operator raised by squaring
    (`_layer_power`): a golden-mean interval of 1e6 cells in about 0.3 s
    against 33 s by the DP.  More than `cap` live frontier states, or
    states of that operator, raises the patterns cap.  A series of windows
    is counted by
    `count_windows`, which reads every window that is a translated prefix
    of the largest one's sweep off a stop of that one sweep.
    """
    rule = spec.rule
    if rule.factors_over_cells:
        return len(rule.symbols) ** len(window)
    if len(window) == 0:
        return 1
    return _frontier_count(spec, window, cap=cap)[0]


def _is_translated_prefix(window: GroupWindow, swept: GroupWindow) -> bool:
    """Whether the window's cells are a translate of the first len(window)
    cells of `swept`.  Two intervals that `groups` built answer by their
    lengths alone.  Otherwise the translate is fixed by the per-axis minima
    of the two cell sets; each cell then takes one lookup in the position
    map, and the first miss ends the test."""
    k = len(window)
    if k == 0:
        return False  # no stop records the empty prefix
    if all(w.spec.rank == 1 and w._shape is not None
           for w in (window, swept)):  # two intervals `groups` built
        return k <= len(swept)
    shift = [a - b for a, b in zip(map(min, zip(*swept.elements[:k])),
                                   map(min, zip(*window.elements)))]
    cells = window.elements
    if any(shift):
        cells = (tuple(map(add, c, shift)) for c in cells)
    for j in map(swept.position_map.get, cells):
        if j is None or j >= k:
            return False
    return True


def count_windows(spec: SubshiftSpec, windows: Iterable[GroupWindow],
                  cap: int = DEFAULT_PATTERN_CAP) -> list[tuple]:
    """(window, count_patterns(spec, window, cap)) for each window in order,
    from one frontier sweep where the windows allow it.

    The largest window is swept once, with a stop at the size of every
    window whose cell set is a translate of a prefix of that sweep (every
    rank-1 interval, ball or box); such a window reads its count off its
    stop, since a count depends on the cell set only.  In a series of
    rank-1 boxes, balls and intervals that `groups` built, every window is
    such a translate by construction, with no lookup per cell
    (`_is_translated_prefix`).  Every other window (rank-2 boxes and balls,
    say) is counted alone by `count_patterns`.
    The sweep is the largest window's own count; when it hits `cap`, the
    windows are counted one at a time, so that the error names the window
    and the states that a loop over the windows would.  `windows` may be a
    generator; a cap error it raises waits until the windows built before
    it are counted, so a patterns cap of an earlier window wins.
    """
    built, too_big = [], None
    try:
        for window in windows:
            built.append(window)
    except CapExceeded as exc:
        too_big = exc
    big = max(built, key=len, default=None)
    prefix = [False] * len(built)
    if len(built) > 1 and len(big) and not spec.rule.factors_over_cells:
        swept = big.sweep()
        prefix = [w is big or _is_translated_prefix(w, swept) for w in built]
        sizes = sorted({len(w) for w, p in zip(built, prefix) if p})
        try:
            at_stop = dict(zip(sizes, _frontier_count(spec, swept, sizes,
                                                      cap)))
        except CapExceeded:
            prefix = [False] * len(built)
    counts = [(w, at_stop[len(w)] if p else count_patterns(spec, w, cap))
              for w, p in zip(built, prefix)]
    if too_big is not None:
        raise too_big
    return counts


def extensible_symbols(rule: Rule, axis: int) -> tuple:
    """(backward-extensible, forward-extensible) symbol sets for a 1-d NN rule."""
    symbols = set(rule.symbols)
    mat = rule.matrix_for_axis(axis)
    if mat is None:
        return frozenset(symbols), frozenset(symbols)

    def extensible(edge):
        """The largest set whose every symbol has an edge into the set."""
        live, keep = None, set(symbols)
        while keep != live:
            live, keep = keep, {s for s in keep if any(edge(s, t)
                                                       for t in keep)}
        return frozenset(live)

    return (extensible(lambda t, s: mat[s][t]),
            extensible(lambda s, t: mat[s][t]))


def projection_count_interval(spec: SubshiftSpec, window: GroupWindow) -> int:
    """Exact count of globally extendable patterns on a 1-d interval window.

    Valid for rank-1 nearest-neighbor rules.  The backward-extensible
    symbols are closed under successors and the forward-extensible ones
    under predecessors, so a legal word extends to a bi-infinite
    configuration iff every symbol in it is both: the count is
    `count_patterns` with the rule's symbols trimmed to that set.
    """
    if spec.rank != 1 or spec.rule.forbidden:
        raise ValueError("projection counts implemented for 1-d NN rules")
    xs = sorted(c[0] for c in window.elements)
    if not xs or xs != list(range(xs[0], xs[0] + len(xs))):
        raise ValueError("window is not an interval")
    bwd, fwd = extensible_symbols(spec.rule, 0)
    trimmed = Rule(size=spec.rule.size, allowed_symbols=bwd & fwd,
                   axis_allowed=spec.rule.axis_allowed)
    return count_patterns(SubshiftSpec(1, spec.alphabet, trimmed), window)


# ---------------------------------------------------------------------------
# fibers

def fiber_table(spec: SubshiftSpec, window: GroupWindow,
                cap: int = DEFAULT_PATTERN_CAP) -> FiberTable:
    """Fiber counts without storing the full pattern list."""
    alpha = spec.alphabet
    if not alpha.is_paired:
        raise ValueError("fiber counts need a paired alphabet")
    b = alpha.b
    entries: dict = {}
    for p in _iter_patterns(spec, window, cap):
        v = bytes(s % b for s in p)
        entries[v] = entries.get(v, 0) + 1
    return FiberTable(spec=spec, window=window, entries=entries)


# ---------------------------------------------------------------------------
# JSON interface

def spec_from_json(doc) -> SubshiftSpec:
    """Parse {"rank", "alphabet": {"k"}|{"a","b"}, "rule": {"type", ...}}."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    rank = json_int(doc.get("rank", 1), "rank")
    alpha_doc = json_object(doc["alphabet"], "alphabet")
    if "k" in alpha_doc:
        alpha = Alphabet(json_int(alpha_doc["k"], "k"))
    else:
        a, b = json_int(alpha_doc["a"], "a"), json_int(alpha_doc["b"], "b")
        alpha = Alphabet(a * b, pair=(a, b))

    def ints(items, what="rule symbol"):
        return [json_int(v, what) for v in items]

    rdoc = json_object(doc["rule"], "rule")
    rtype = rdoc["type"]
    if rtype == "full":
        rule = Rule.full(alpha.size)
    elif rtype == "cellwise":
        if alpha.is_paired:
            pairs = [ints(p) for p in rdoc["allowed"]]
            if any(len(p) != 2 for p in pairs):
                raise ValueError("allowed entries of a paired alphabet must "
                                 "be [a, b] pairs")
            allowed = [alpha.pair_index(*p) for p in pairs]
        else:
            allowed = ints(rdoc["allowed"])
        rule = Rule.cellwise(alpha.size, allowed)
    elif rtype == "nearest_neighbor":
        forb = {int(ax): [ints(p) for p in pairs]
                for ax, pairs in json_object(rdoc["axis_forbidden"],
                                             "axis_forbidden").items()}
        rule = Rule.nearest_neighbor(alpha.size, forb)
    elif rtype == "forbidden_patterns":
        pats = [([ints(o, "offset") for o in p["offsets"]], ints(p["symbols"]))
                for p in rdoc["patterns"]]
        rule = Rule.forbidden_patterns(alpha.size, pats)
    else:
        raise ValueError(f"unknown rule type {rtype!r}")
    return SubshiftSpec(rank, alpha, rule, doc.get("name", rtype))
