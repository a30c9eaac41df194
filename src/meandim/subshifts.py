"""Finite-alphabet subshifts over Z^d given by local rules.

Exact pattern enumeration (backtracking with forward checking), exact big
integer counting (one frontier, or broken-profile, transfer DP for every rule
on every window), the projected rule of a paired alphabet and fiber counts.

Pattern legality on a window checks the rules that fit entirely inside the
window (free boundary).  For the shipped rule classes this either matches the
projection of globally legal configurations or over-counts by a boundary
factor that vanishes per site; `projection_count_interval` gives the exact
projection count for 1-d nearest-neighbor rules so the gap can be reported.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence
import json

from .groups import GroupSpec, GroupWindow

DEFAULT_PATTERN_CAP = 10**6


class PatternCapExceeded(RuntimeError):
    def __init__(self, cap):
        super().__init__(f"pattern enumeration exceeds cap {cap}")
        self.cap = cap


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
            if a * b != self.size:
                raise ValueError("paired alphabet needs size = a*b")

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
        for ax, mat in self.axis_allowed:
            if ax == axis:
                return mat
        return None

    def symbol_ok(self, s: int) -> bool:
        return self.allowed_symbols is None or s in self.allowed_symbols

    @property
    def symbols(self) -> list[int]:
        if self.allowed_symbols is None:
            return list(range(self.size))
        return sorted(self.allowed_symbols)


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

    @property
    def total(self) -> int:
        return sum(self.entries.values())

    def counts(self) -> list[int]:
        return [self.entries[v] for v in sorted(self.entries)]


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
    mats = []
    for axis, bmat in b_spec.rule.axis_allowed:
        mat = tuple(tuple(bmat[s % b][t % b] for t in range(alpha.size))
                    for s in range(alpha.size))
        mats.append((axis, mat))
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
    if not rule.forbidden and not rule.axis_allowed:
        bset = sorted({s % b for s in rule.symbols})
        if len(bset) == b:
            return SubshiftSpec(spec.rank, Alphabet(b), Rule.full(b),
                                spec.name + "-proj")
        return SubshiftSpec(spec.rank, Alphabet(b),
                            Rule.cellwise(b, bset), spec.name + "-proj")
    if not rule.forbidden and rule.axis_allowed:
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
    return None


# ---------------------------------------------------------------------------
# constraints, backtracking enumeration, frontier counting

def _neighbor_constraints(spec: SubshiftSpec, window: GroupWindow):
    """Per cell: adjacency checks against earlier cells, and forbidden-pattern
    instances triggered when the cell is the last of the instance assigned."""
    rule = spec.rule
    pos = window.position_map
    n = len(window)
    adj = [[] for _ in range(n)]   # (earlier_pos, matrix, earlier_is_source)
    for axis, mat in rule.axis_allowed:
        e = [0] * spec.rank
        e[axis] = 1
        e = tuple(e)
        for i, c in enumerate(window.elements):
            nb = tuple(x + y for x, y in zip(c, e))
            j = pos.get(nb)
            if j is None:
                continue
            # edge c -> c+e_axis with matrix[s_c][s_nb]
            if j < i:
                adj[i].append((j, mat, False))   # check mat[s_i][s_j]
            else:
                adj[j].append((i, mat, True))    # check mat[s_i_earlier][s_j]
    trig = [[] for _ in range(n)]  # (positions tuple, symbols tuple)
    if rule.forbidden:
        cells = window.elements
        for offs, syms in rule.forbidden:
            base = offs[0]
            for c in cells:
                try:
                    inst = [pos[tuple(x - b0 + o for x, b0, o in zip(c, base, off))]
                            for off in offs]
                except KeyError:
                    continue
                trig[max(inst)].append((tuple(inst), tuple(syms)))
    return adj, trig


def _iter_patterns(spec: SubshiftSpec, window: GroupWindow):
    """Depth-first over cells in window order; deterministic symbol order.

    An explicit stack of per-depth symbol indices replaces recursion, so the
    depth is bounded by the cell cap rather than by the interpreter.
    """
    rule = spec.rule
    n = len(window)
    if n == 0:
        yield b""
        return
    adj, trig = _neighbor_constraints(spec, window)
    symbols = rule.symbols
    assign = bytearray(n)

    def ok(i: int, s: int) -> bool:
        for j, mat, earlier_is_source in adj[i]:
            if earlier_is_source:
                if not mat[assign[j]][s]:
                    return False
            elif not mat[s][assign[j]]:
                return False
        for positions, syms in trig[i]:
            hit = True
            for p, forced in zip(positions, syms):
                got = s if p == i else assign[p]
                if got != forced:
                    hit = False
                    break
            if hit:
                return False
        return True

    tried = [0] * n  # per depth: index of the next symbol to try
    i = 0
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
                yield bytes(assign)
            else:
                i += 1


def enumerate_patterns(spec: SubshiftSpec, window: GroupWindow,
                       cap: int = DEFAULT_PATTERN_CAP) -> PatternSet:
    out = []
    for p in _iter_patterns(spec, window):
        out.append(p)
        if len(out) > cap:
            raise PatternCapExceeded(cap)
    return PatternSet(spec=spec, window=window, patterns=tuple(out))


def _sweep_window(window: GroupWindow) -> GroupWindow:
    """The window's cells in lexicographic order, longest extent outermost,
    so that the frontier spans the shortest extents."""
    cells = window.elements
    dims = range(len(cells[0]))
    extent = [max(c[a] for c in cells) - min(c[a] for c in cells) for a in dims]
    axes = sorted(dims, key=lambda a: -extent[a])
    return GroupWindow(spec=window.spec, elements=tuple(
        sorted(cells, key=lambda c: [c[a] for a in axes])))


def _frontier_count(spec: SubshiftSpec, window: GroupWindow,
                    cap: int = DEFAULT_PATTERN_CAP) -> int:
    """Broken-profile transfer DP over the sweep order of the window.

    Every constraint fires at its last cell.  A state packs the symbols of
    the frontier (assigned cells that a later constraint still reads) into
    an int, `width` bits per slot, and maps to an exact count; a cell's slot
    is cleared after the last constraint reading it, so states that agree
    on the remaining frontier merge.
    """
    swept = _sweep_window(window)
    adj, trig = _neighbor_constraints(spec, swept)
    n = len(swept)
    last = list(range(n))  # the step after which each cell leaves
    for i in range(n):
        for j in [j for j, _, _ in adj[i]] + [p for ps, _ in trig[i] for p in ps]:
            last[j] = i
    symbols = spec.rule.symbols
    width = max(1, (spec.rule.size - 1).bit_length())
    full = (1 << width) - 1
    slot, free, top, live = {}, [], 0, 0
    states = {0: 1}
    for i in range(n):
        # bans[s]: (mask, values); s is illegal when key & mask is in values
        bans = {s: [] for s in symbols}
        for j, mat, src in adj[i]:
            at = slot[j]
            for s in symbols:
                bad = {t << at for t in symbols
                       if not (mat[t][s] if src else mat[s][t])}
                if bad:
                    bans[s].append((full << at, bad))
        for positions, syms in trig[i]:
            need = dict(zip(positions, syms))
            if len(need) < len(set(zip(positions, syms))):
                continue  # a cell forced to two symbols: never matches
            s = need.pop(i)
            if s in bans:
                bans[s].append((sum(full << slot[p] for p in need),
                                {sum(t << slot[p] for p, t in need.items())}))
        for j in [j for j in slot if last[j] == i]:
            live &= ~(full << slot[j])
            free.append(slot.pop(j))
        keep = live
        if last[i] > i:  # seat cell i for the constraints still to come
            if not free:
                free.append(top)
                top += width
            slot[i] = free.pop()
            live |= full << slot[i]
        moves = [(s << slot[i] if i in slot else 0, bans[s]) for s in symbols]
        nxt: dict = {}
        for key, cnt in states.items():
            base = key & keep
            for add, ban in moves:
                for mask, bad in ban:
                    if (key & mask) in bad:
                        break
                else:
                    k = base | add
                    nxt[k] = nxt.get(k, 0) + cnt
            if len(nxt) > cap:
                raise PatternCapExceeded(cap)
        states = nxt
    return sum(states.values())


def count_patterns(spec: SubshiftSpec, window: GroupWindow) -> int:
    """Exact number of free-boundary legal patterns on the window.

    Rules with no adjacency and no forbidden patterns have the closed form
    |symbols|^n.  Every other rule, on every window of any rank, is counted
    by one frontier (broken-profile) transfer DP in exact integers; more
    than DEFAULT_PATTERN_CAP live frontier states raises PatternCapExceeded.
    """
    rule = spec.rule
    if not rule.axis_allowed and not rule.forbidden:
        return len(rule.symbols) ** len(window)
    if len(window) == 0:
        return 1
    return _frontier_count(spec, window)


def extensible_symbols(rule: Rule, axis: int) -> tuple:
    """(backward-extensible, forward-extensible) symbol sets for a 1-d NN rule."""
    symbols = set(rule.symbols)
    mat = rule.matrix_for_axis(axis)
    if mat is None:
        return frozenset(symbols), frozenset(symbols)
    fwd = set(symbols)
    while True:
        keep = {s for s in fwd if any(mat[s][t] for t in fwd)}
        if keep == fwd:
            break
        fwd = keep
    bwd = set(symbols)
    while True:
        keep = {t for t in bwd if any(mat[s][t] for s in bwd)}
        if keep == bwd:
            break
        bwd = keep
    return frozenset(bwd), frozenset(fwd)


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
    total = 0
    for p in _iter_patterns(spec, window):
        v = bytes(s % b for s in p)
        entries[v] = entries.get(v, 0) + 1
        total += 1
        if total > cap:
            raise PatternCapExceeded(cap)
    return FiberTable(spec=spec, window=window, entries=entries)


# ---------------------------------------------------------------------------
# JSON interface

def spec_from_json(doc) -> SubshiftSpec:
    """Parse {"rank", "alphabet": {"k"}|{"a","b"}, "rule": {"type", ...}}."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    rank = int(doc.get("rank", 1))
    alpha_doc = doc["alphabet"]
    if "k" in alpha_doc:
        alpha = Alphabet(int(alpha_doc["k"]))
    else:
        a, b = int(alpha_doc["a"]), int(alpha_doc["b"])
        alpha = Alphabet(a * b, pair=(a, b))
    rdoc = doc["rule"]
    rtype = rdoc["type"]
    if rtype == "full":
        rule = Rule.full(alpha.size)
    elif rtype == "cellwise":
        if alpha.is_paired:
            allowed = [alpha.pair_index(u, v) for u, v in rdoc["allowed"]]
        else:
            allowed = [int(s) for s in rdoc["allowed"]]
        rule = Rule.cellwise(alpha.size, allowed)
    elif rtype == "nearest_neighbor":
        forb = {int(ax): [tuple(p) for p in pairs]
                for ax, pairs in rdoc["axis_forbidden"].items()}
        rule = Rule.nearest_neighbor(alpha.size, forb)
    elif rtype == "forbidden_patterns":
        pats = [(tuple(tuple(o) for o in p["offsets"]), tuple(p["symbols"]))
                for p in rdoc["patterns"]]
        rule = Rule.forbidden_patterns(alpha.size, pats)
    else:
        raise ValueError(f"unknown rule type {rtype!r}")
    return SubshiftSpec(rank, alpha, rule, doc.get("name", rtype))


def counts_to_csv(rows: Sequence[tuple]) -> str:
    """CSV export (window_index, count) with exact integers."""
    lines = ["window_index,count"]
    for idx, cnt in rows:
        lines.append(f"{idx},{cnt}")
    return "\n".join(lines) + "\n"
