"""Finite-alphabet subshifts over Z^d given by local rules.

Exact pattern enumeration (backtracking over the cells in window order),
exact big integer counting (one frontier, or broken-profile, transfer DP
for every rule on every window), the projected rule of a paired alphabet
and fiber counts.  A series of windows shares one sweep: the DP records
its running total at a list of stops, and each window that is a translate
of a prefix of the largest window's sweep reads its count off its stop
(`count_windows`).

Both engines read the rule as compiled on a window by `_cell_bans`: per
cell, clauses that ban a symbol there given symbols at earlier cells.  The
enumerator matches them as they are, the DP step as `(mask, value)` pairs
over the frontier slots.  The step walks a dict of frontier states while
fewer than `_ARRAY_STATES` (64) are live and runs on arrays from then on:
int64 keys while the frontier fits in 63 bits, object keys past that, and
object counts of Python ints, so every count stays exact.  An array step
is a plan that depends on the keys and the clauses alone (`_step_plan`)
and one gather and one `np.add.reduceat` of the counts; a sweep row
repeats the keys of the row before, so a count keeps the plans of its last
row, keyed on the bytes of the int64 keys, and reuses them.  A rank-1
nearest-neighbour window holds at most one state per symbol, so with fewer
than 64 symbols it never leaves the dict step.

Pattern legality on a window checks the rules that fit entirely inside the
window (free boundary).  For the shipped rule classes this either matches the
projection of globally legal configurations or over-counts by a boundary
factor that vanishes per site; `projection_count_interval` gives the exact
projection count for 1-d nearest-neighbor rules so the gap can be reported.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from operator import add, sub
from typing import Iterable, Mapping, Sequence
import json

import numpy as np

from .groups import CapExceeded, DEFAULT_PATTERN_CAP, GroupSpec, GroupWindow
from .metrics import exact_int_dtype


@dataclass(frozen=True)
class Alphabet:
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


@dataclass(frozen=True)
class Rule:
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


@dataclass(frozen=True)
class SubshiftSpec:
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
        return GroupSpec(self.rank)


@dataclass(frozen=True)
class PatternSet:
    """Enumerated legal assignments window -> alphabet, in deterministic order."""

    spec: SubshiftSpec
    window: GroupWindow
    patterns: tuple  # tuple of bytes, one byte per cell in window order

    @property
    def count(self) -> int:
        return len(self.patterns)


@dataclass(frozen=True)
class FiberTable:
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

def _cell_bans(spec: SubshiftSpec, window: GroupWindow) -> list:
    """Per cell i, the `(s, clause)` pairs that ban symbol s at i: s is
    illegal when every `(p, t)` in `clause` has symbol t at an earlier
    cell p.  An adjacency edge gives one clause per banned pair, at its
    later cell, and a forbidden-pattern instance one, at its last cell; an
    instance that forces a cell to two symbols gives none."""
    rule = spec.rule
    symbols = rule.symbols
    pos = window.position_map
    bans = [[] for _ in range(len(window))]
    for axis, mat in rule.axis_allowed:
        # (s, t) with s on the later cell and t on the earlier one, for an
        # edge c -> c + e_axis that runs forward (c earlier) or backward
        forward = [(s, t) for s in symbols for t in symbols if not mat[t][s]]
        backward = [(s, t) for s in symbols for t in symbols if not mat[s][t]]
        e = tuple(int(a == axis) for a in range(spec.rank))
        for i, c in enumerate(window.elements):
            j = pos.get(tuple(map(add, c, e)))
            if j is None:
                continue
            if j < i:
                bans[i] += [(s, ((j, t),)) for s, t in backward]
            else:
                bans[j] += [(s, ((i, t),)) for s, t in forward]
    allowed = set(symbols)
    for offs, syms in rule.forbidden:
        shifts = [tuple(map(sub, off, offs[0])) for off in offs]
        for c in window.elements:
            inst = [pos.get(tuple(map(add, c, d))) for d in shifts]
            need = {}
            if None in inst or any(need.setdefault(p, t) != t
                                   for p, t in zip(inst, syms)):
                continue  # not inside the window, or it never matches
            s = need.pop(max(inst))
            if s in allowed:
                bans[max(inst)].append((s, tuple(need.items())))
    return bans


def _iter_patterns(spec: SubshiftSpec, window: GroupWindow, cap: int):
    """Depth-first over cells in window order; deterministic symbol order.
    An explicit stack of per-depth symbol indices replaces recursion, so the
    depth is bounded by the cell cap rather than by the interpreter.
    Finding pattern number cap + 1 raises the patterns cap."""
    n = len(window)
    if n == 0:
        if cap < 1:
            raise CapExceeded("patterns", cap, window.name, ">= 1 patterns")
        yield b""
        return
    clauses = []  # per cell: symbol -> the clauses that ban it there
    for cell in _cell_bans(spec, window):
        by_symbol = {}
        for s, clause in cell:
            by_symbol.setdefault(s, []).append(clause)
        clauses.append(by_symbol)
    symbols = spec.rule.symbols
    assign = bytearray(n)

    def ok(i: int, s: int) -> bool:
        for clause in clauses[i].get(s, ()):
            for p, t in clause:
                if assign[p] != t:
                    break
            else:
                return False
        return True

    tried = [0] * n  # per depth: index of the next symbol to try
    i = found = 0
    while i >= 0:
        if tried[i] == len(symbols):
            tried[i] = 0
            i -= 1
            continue
        s = symbols[tried[i]]
        tried[i] += 1
        if ok(i, s):
            assign[i] = s
            if i == n - 1:
                found += 1
                if found > cap:
                    raise CapExceeded("patterns", cap, window.name,
                                      f">= {found} patterns")
                yield bytes(assign)
            else:
                i += 1


def enumerate_patterns(spec: SubshiftSpec, window: GroupWindow,
                       cap: int = DEFAULT_PATTERN_CAP) -> PatternSet:
    return PatternSet(spec=spec, window=window,
                      patterns=tuple(_iter_patterns(spec, window, cap)))


def _sweep_window(window: GroupWindow) -> GroupWindow:
    """The window's cells in lexicographic order, longest extent outermost,
    so that the frontier spans the shortest extents."""
    cells = window.elements
    dims = range(len(cells[0]))
    extent = [max(c[a] for c in cells) - min(c[a] for c in cells) for a in dims]
    axes = sorted(dims, key=lambda a: -extent[a])
    return replace(window, elements=tuple(
        sorted(cells, key=lambda c: [c[a] for a in axes])))


# Live frontier states from which the DP step runs on arrays; below it the
# per-call overhead of numpy outweighs the vector step.  Hard-square boxes
# 1..12, box 16 and balls 0..3 ran equally fast at 32, 64 and 128; balls ran
# slower at 16 and 8.
_ARRAY_STATES = 64


def _frontier_count(spec: SubshiftSpec, window: GroupWindow,
                    stops: Sequence[int] | None = None,
                    cap: int = DEFAULT_PATTERN_CAP) -> list[int]:
    """Broken-profile transfer DP over the window's cells in their order.

    Returns the running total, the sum of the state counts, after each of
    the increasing cell counts in `stops` (default: the whole window).
    Every clause of `_cell_bans` fires at its last cell, so after k steps
    every clause among the first k cells has fired and no other has: the
    total is the exact free-boundary count of those k cells.

    A state packs the symbols of the frontier (assigned cells that a later
    clause still reads) into an int, `width` bits per slot, and maps to an
    exact count; a cell's slot is cleared after the last clause reading it,
    so states that agree on the remaining frontier merge.

    Each cell's clauses become `(mask, value)` pairs over the slots, which
    both forms of the step read.  While fewer than `_ARRAY_STATES` states
    are live the step walks a dict of states.  From then on it runs on
    arrays: keys of dtype `exact_int_dtype(1 << top)` (int64 while the
    frontier fits in 63 bits, promoted to object on the step it stops
    fitting) and counts as an object array of Python ints, so they stay
    exact.  Each move keeps the states whose masks pass, the targets are
    sorted and equal keys merge with `np.add.reduceat`.  All of that but
    the sum is the step's plan (`_step_plan`), a pure function of the keys,
    `keep` and the moves.  In a row-by-row sweep each column keeps its slot
    in every row, so from the second or third row on a step repeats the
    plan of its column in the row before.  A memo local to this call,
    keyed on `keep`, the moves and the bytes of the keys, reuses those
    plans while the keys are int64 (the bytes of object keys are
    pointers); it holds one sweep row, `top // width + 1` plans, and drops
    the oldest past that.  A step that leaves more than `cap` states
    raises the patterns cap, naming the window.
    """
    clauses = _cell_bans(spec, window)
    n = len(window)
    marks = set([n] if stops is None else stops)
    totals = []
    last = list(range(n))  # the step after which each cell leaves
    for i, cell in enumerate(clauses):
        for _, clause in cell:
            for p, _ in clause:
                last[p] = i
    # the seated cells that leave at step i; the empty tuple is shared, so
    # a window of n cells adds n pointers and one tuple per leaving step
    leaving = [()] * n
    for p, i in enumerate(last):
        if i > p:
            leaving[i] += (p,)
    symbols = spec.rule.symbols
    width = max(1, (spec.rule.size - 1).bit_length())
    full = (1 << width) - 1
    slot, free, top, live = {}, [], 0, 0
    states = {0: 1}
    keys = counts = None  # the states once the step runs on arrays
    plans = {}  # (keep, moves, key bytes) -> _step_plan, int64 keys only
    for i in range(n):
        # bans[s]: (mask, value) pairs; s is illegal when key & mask == value
        bans = {s: [] for s in symbols}
        for s, clause in clauses[i]:
            mask = value = 0
            for p, t in clause:
                mask |= full << slot[p]
                value |= t << slot[p]
            bans[s].append((mask, value))
        for j in leaving[i]:
            live &= ~(full << slot[j])
            free.append(slot.pop(j))
        keep = live
        if last[i] > i:  # seat cell i for the constraints still to come
            if not free:
                free.append(top)
                top += width
            slot[i] = free.pop()
            live |= full << slot[i]
        moves = tuple((s << slot[i] if i in slot else 0, tuple(bans[s]))
                      for s in symbols)
        if keys is None and len(states) >= _ARRAY_STATES:
            keys = np.array(list(states), dtype=exact_int_dtype(1 << top))
            counts = np.array(list(states.values()), dtype=object)
        if keys is None:
            states = _dict_step(states, keep, moves)
        else:
            keys = keys.astype(exact_int_dtype(1 << top), copy=False)
            if keys.dtype == object:  # the bytes of object keys are pointers
                plan = _step_plan(keys, keep, moves)
            else:
                memo = (keep, moves, keys.tobytes())
                plan = plans.get(memo)
                if plan is None:
                    plan = plans[memo] = _step_plan(keys, keep, moves)
                    if len(plans) > top // width + 1:
                        del plans[next(iter(plans))]
            keys, src, starts = plan
            counts = np.add.reduceat(counts[src], starts)
        size = len(states) if keys is None else len(keys)
        if size > cap:
            raise CapExceeded("patterns", cap, window.name,
                              f"{size} live frontier states")
        if i + 1 in marks:
            totals.append(sum(states.values()) if keys is None
                          else sum(counts))
    return totals


def _dict_step(states: dict, keep: int, moves) -> dict:
    nxt: dict = {}
    for key, cnt in states.items():
        base = key & keep
        for add, ban in moves:
            for mask, value in ban:
                if (key & mask) == value:
                    break
            else:
                k = base | add
                nxt[k] = nxt.get(k, 0) + cnt
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
            ok = np.logical_and.reduce([(keys & mask) != value
                                        for mask, value in ban])
            kept, src = base[ok], index[ok]
        targets.append(kept | add)
        sources.append(src)
    keys = np.concatenate(targets)
    # the stable sort loads less of numpy than the default kind: about
    # 0.25 MB less peak RSS in a fresh process
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(first)
    return keys[starts], np.concatenate(sources)[order], starts


def count_patterns(spec: SubshiftSpec, window: GroupWindow,
                   cap: int = DEFAULT_PATTERN_CAP) -> int:
    """Exact number of free-boundary legal patterns on the window.

    Rules with no adjacency and no forbidden patterns have the closed form
    |symbols|^n.  Every other rule, on every window of any rank, is counted
    by the frontier DP `_frontier_count` in exact integers over the
    window's sweep order, with a single stop at the last cell.  Its frontier
    holds only the cells that a clause of `_cell_bans` still reads, so a
    matrix that bans nothing adds no state.  More than `cap` live frontier
    states raises the patterns cap.  A series of windows is counted by
    `count_windows`, which reads every window that is a translated prefix
    of the largest one's sweep off a stop of that one sweep.
    """
    rule = spec.rule
    if rule.factors_over_cells:
        return len(rule.symbols) ** len(window)
    if len(window) == 0:
        return 1
    return _frontier_count(spec, _sweep_window(window), cap=cap)[0]


def _is_translated_prefix(window: GroupWindow, swept: GroupWindow) -> bool:
    """Whether the window's cells are a translate of the first len(window)
    cells of `swept`.  The translate is fixed by the per-axis minima of the
    two cell sets; each cell then takes one lookup in the position map,
    and the first miss ends the test."""
    k = len(window)
    if k == 0:
        return False  # no stop records the empty prefix
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
    stop, since a count depends on the cell set only.  Every other window
    (rank-2 boxes and balls, say) is counted alone by `count_patterns`.
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
        swept = _sweep_window(big)
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
