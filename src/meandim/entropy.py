"""Entropy series over Folner windows.

Per-site log pattern counts (topological entropy), fiber-weighted sums
(weighted topological entropy) and digit-window counts for the product
G x N action.  Counts stay exact big integers; logarithms are taken at
reporting time only, natural base throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .groups import Caps, FolnerDescriptor, GroupSpec, product_window
from .subshifts import FiberTable, SubshiftSpec, count_windows, fiber_table
# still reachable as entropy.count_patterns, the import site that the
# per-layer tracer of perfbench rebinds and checks
from .subshifts import count_patterns  # noqa: F401

NEG_INF = float("-inf")


def log_big(n: int) -> float:
    """Natural log of a nonnegative big integer; 0 maps to -inf."""
    if n < 0:
        raise ValueError("counts are nonnegative")
    if n == 0:
        return NEG_INF
    return math.log(n)


@dataclass(frozen=True)
class EntropyRow:
    """One window: Folner index (n of a G x N row, which sets `depth`), size
    in cells, log count (log Z if weighted) and that log per cell."""

    index: int
    size: int
    log_count: float
    per_site: float
    depth: int | None = None


def _row(index: int, size: int, log_count: float,
         depth: int | None = None) -> EntropyRow:
    return EntropyRow(index=index, size=size, log_count=log_count,
                      per_site=log_count / size, depth=depth)


@dataclass(frozen=True)
class EntropySeries:
    family: str
    rows: tuple

    @property
    def empty_system(self) -> bool:
        return any(r.log_count == NEG_INF for r in self.rows)

    @property
    def value(self) -> float:
        return self.rows[-1].per_site

    def table(self) -> list:
        """(index, size, log_count, per_site) per row, with the depth after
        the index on G x N rows."""
        return [(r.index, r.size, r.log_count, r.per_site) if r.depth is None
                else (r.index, r.depth, r.size, r.log_count, r.per_site)
                for r in self.rows]

    def to_csv(self, column: str = "log_count") -> str:
        lines = [f"m,window_size,{column},per_site"]
        for r in self.rows:
            lines.append(f"{r.index},{r.size},{r.log_count:.12f},{r.per_site:.12f}")
        return "\n".join(lines) + "\n"


def entropy_series(spec: SubshiftSpec, folner: FolnerDescriptor,
                   caps: Caps = Caps()) -> EntropySeries:
    """Per-site log pattern counts over the requested Folner windows.

    The windows are counted by `count_windows`: the largest is swept once
    with a stop per window whose cells are a translate of a prefix of that
    sweep (every rank-1 ball or box), and any other window (rank-2 boxes
    and balls) is counted alone.  Cell caps are checked in index order, and
    a pattern-cap error of an earlier window wins over a cell-cap error of
    a later one, as in a loop over the windows."""
    group = spec.group
    rows = []
    windows = (folner.window(m, group, caps.cells) for m in folner.indices)
    for m, (window, count) in zip(folner.indices,
                                  count_windows(spec, windows, caps.patterns)):
        rows.append(_row(m, len(window), log_big(count)))
    return EntropySeries(family=folner.family, rows=tuple(rows))


@dataclass(frozen=True)
class EntropyEstimate:
    value: float
    certified_upper: float | None
    empty_system: bool = False

    @property
    def best(self) -> float:
        return self.certified_upper if self.certified_upper is not None else self.value

    @property
    def provenance(self) -> str:
        """The tag of `best`."""
        return ("certified-bound" if self.certified_upper is not None
                else "estimate")


def entropy_estimate(series: EntropySeries) -> EntropyEstimate:
    """Last per-site value; over boxes also the min per-site row, which the
    tiling subadditivity of free-boundary counts certifies as an upper bound
    on the limit (and Ornstein-Weiss makes the limit family independent)."""
    if not series.rows:
        raise ValueError("series is empty")
    if series.empty_system:
        return EntropyEstimate(value=NEG_INF, certified_upper=None,
                               empty_system=True)
    certified = (min(r.per_site for r in series.rows)
                 if series.family == "boxes" else None)
    return EntropyEstimate(value=series.value, certified_upper=certified)


def log_z_from_fibers(table: FiberTable, w: float) -> float:
    """log Z = log sum_v t(v)^w by log-sum-exp; exact big-int path at w in {0,1}.

    t(v) can exceed 1e300, so the terms enter as w * log t(v), never as raw
    powers.
    """
    counts = list(table.entries.values())
    if not counts:
        return NEG_INF
    if w == 1:
        return log_big(sum(counts))
    if w == 0:
        return log_big(len(counts))
    terms = [w * log_big(t) for t in counts]
    m = max(terms)
    return m + math.log(math.fsum(math.exp(t - m) for t in terms))


def weighted_entropy_series(spec: SubshiftSpec, folner: FolnerDescriptor,
                            w: float, caps: Caps = Caps()) -> EntropySeries:
    """Per-site log Z_m where Z_m sums fiber counts t(v)^w over a window."""
    if not 0 <= w <= 1:
        raise ValueError("exponent w must lie in [0, 1]")
    if not spec.alphabet.is_paired:
        raise ValueError("weighted entropy needs a paired alphabet")
    group = spec.group
    rows = []
    for m in folner.indices:
        window = folner.window(m, group, caps.cells)
        table = fiber_table(spec, window, caps.patterns)
        rows.append(_row(m, len(window), log_z_from_fibers(table, w)))
    return EntropySeries(family=folner.family, rows=tuple(rows))


def gxn_entropy_series(digit_spec: SubshiftSpec, folner: FolnerDescriptor,
                       depths: Sequence[int],
                       caps: Caps = Caps()) -> EntropySeries:
    """Counts on product windows F_n x {0..N-1} normalized by their size
    N * |F_n|, one row per (n, N).

    The digit subshift lives on Z^d x N, encoded as a rank d+1 spec whose last
    axis is the depth direction.
    """
    if digit_spec.rank < 2:
        raise ValueError("digit specs live on Z^d x N, rank >= 2")
    base_group = GroupSpec(digit_spec.rank - 1)
    rows = []
    for n in folner.indices:
        fwin = folner.window(n, base_group, caps.cells)
        windows = (product_window(fwin, depth, caps.cells) for depth in depths)
        for depth, (window, count) in zip(
                depths, count_windows(digit_spec, windows, caps.patterns)):
            rows.append(_row(n, len(window), log_big(count), depth))
    return EntropySeries(family=folner.family, rows=tuple(rows))


def projection_gap_report(spec: SubshiftSpec, folner: FolnerDescriptor,
                          caps: Caps = Caps()) -> list[dict]:
    """Free-boundary versus exact projection counts for 1-d NN rules."""
    from .subshifts import projection_count_interval
    group = spec.group
    out = []
    windows = (folner.window(m, group, caps.cells) for m in folner.indices)
    for m, (window, free) in zip(folner.indices,
                                 count_windows(spec, windows, caps.patterns)):
        try:
            proj = projection_count_interval(spec, window)
        except ValueError:
            proj = None
        out.append({"m": m, "free_boundary": free, "projection": proj,
                    "gap": None if proj is None else free - proj})
    return out
