"""Carpet systems: dimension formulas, the covering sandwich, cylinder cells,
the fiber-weighted measure and the exact moments of its concentration probe.

A carpet couples base-a and base-b digit arrays through a paired subshift.
Geometry here is exact: every coordinate of a depth-L point is a multiple of
1/D, D = lcm(a^L (a-1), b^L (b-1)), so the sandwich builds each cloud once as
integer codes over D and checks every inequality with zero tolerance on
integer numerators of the windowed sup-distance (numpy int64 when 2 D < 2^63,
Python ints otherwise).  A code is a sum over depths, so one builder makes
every cloud as an outer sum of per-depth digit codes; a cell's pairwise
distances depend only on its free projected digits, so the within-cell check
runs once per distinct set of them.  The Fraction references of the points,
the cells and the distances are in `tests/oracles.py`.  Floats appear only
in logarithmic reports, and nothing here draws a random number: the probe's
mean and spread are finite sums over the fiber table.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice, product

import numpy as np

from ._record import Record
from .groups import CapExceeded, Caps, FolnerDescriptor, GroupWindow, ball
from .metrics import WeightScheme, exact_int_dtype, least_radius
from .entropy import (entropy_estimate, entropy_series, log_big,
                      log_z_from_fibers, weighted_entropy_series)
from .subshifts import (FiberTable, SubshiftSpec, count_patterns,
                        enumerate_patterns, fiber_table, projected_spec)

DEFAULT_CELL_SAMPLES = 48
_CELL_LIMIT = 512  # cells of the sandwich's within-cell check
_PAIR_BLOCK = 1 << 16  # differences of one coordinate per pair-check block


class SandwichViolation(AssertionError):
    """An exact sandwich inequality failed; carries the witnessing pair."""


class CarpetSpec(Record):
    """Bases a >= b >= 2, the driving paired subshift, the ambient weights.

    The weights are checked against the subshift's rank and kept with the
    spec, but the carpet report does not read them: its dimensions and
    sandwich rows depend on a, b and the subshift alone."""

    a: int
    b: int
    omega: SubshiftSpec
    weights: WeightScheme | None = None

    def __post_init__(self):
        if not (self.a >= self.b >= 2):
            raise ValueError("carpet bases need a >= b >= 2")
        alpha = self.omega.alphabet
        if not alpha.is_paired or alpha.pair != (self.a, self.b):
            raise ValueError("driving subshift must be paired as (a, b)")
        if self.weights is None:
            object.__setattr__(self, "weights",
                               WeightScheme(self.omega.rank, Fraction(1, 4)))
        elif self.weights.rank != self.omega.rank:
            raise ValueError("weights rank must match the group rank")

    @property
    def w(self) -> float:
        return math.log(self.b) / math.log(self.a)


def floor_wl(a: int, b: int, l: int) -> int:
    """floor(l * log_a b): the least k with a^(k+1) > b^l, by exact
    integer power comparison."""
    return least_radius(lambda k: a ** (k + 1) > b ** l,
                        f"floor({l} log_{a} {b})")


def mdim_m_carpet(h: float, h_prime: float, a: int, b: int) -> float:
    """h/log a + (1/log b - 1/log a) h' from the two entropies."""
    if h < 0 or h_prime < 0:
        raise ValueError("entropies must be nonnegative")
    la, lb = math.log(a), math.log(b)
    return h / la + (1.0 / lb - 1.0 / la) * h_prime


def mdim_h_carpet(hw: float, b: int) -> float:
    """Weighted entropy over log b."""
    if hw < 0:
        raise ValueError("weighted entropy must be nonnegative")
    return hw / math.log(b)


# ---------------------------------------------------------------------------
# cylinder cells

class PsiCell(Record):
    """Depth-l cylinder: x prefixes to depth floor(w l), y prefixes to depth l.

    x_prefix entries are A-valued patterns, y_prefix entries B-valued, all on
    the same window (bytes in window order).
    """

    m: int
    l: int
    x_prefix: tuple  # bytes per depth 1..floor(wl)
    y_prefix: tuple  # bytes per depth 1..l

    def __post_init__(self):
        if len(self.y_prefix) != self.l:
            raise ValueError("y prefix must have depth l")
        if len(self.x_prefix) > self.l:
            raise ValueError("x prefix cannot be deeper than l")

    @property
    def key(self) -> tuple:
        return (self.x_prefix, self.y_prefix)


def _split(p: bytes, b: int) -> tuple:
    """(u, v): the base-a and base-b digit patterns of a pair pattern."""
    return bytes(s // b for s in p), bytes(s % b for s in p)


def _pattern_set_tools(spec: CarpetSpec, window: GroupWindow, cap: int):
    """Enumerated pair patterns plus the fibers: each projected pattern v
    mapped to its u patterns.

    Enumeration is lexicographic, so the patterns come sorted, and so do the
    u patterns over each v: the first pattern is the least, and fibers[v][0]
    is the least section over v.
    """
    patterns = enumerate_patterns(spec.omega, window, cap).patterns
    fibers: dict = {}
    for p in patterns:
        u, v = _split(p, spec.b)
        fibers.setdefault(v, []).append(u)
    return patterns, fibers


def _cell_choices(spec: CarpetSpec, patterns, fibers, l: int) -> list:
    """Digit pairs per depth 1..l of the depth-l cells: pair patterns to
    depth floor(wl), then the least section under each projected pattern."""
    k = floor_wl(spec.a, spec.b, l)
    pairs = [_split(p, spec.b) for p in patterns]
    sections = [(fibers[v][0], v) for v in sorted(fibers)]
    return [pairs] * k + [sections] * (l - k)


def _cell_digits(spec: CarpetSpec, patterns, fibers, l: int, limit: int):
    """First `limit` depth-l cells as digit tuples, one (u, v) pair per
    depth 1..l, in prefix order, the first depth outermost."""
    return islice(product(*_cell_choices(spec, patterns, fibers, l)), limit)


def _psi_cell(m: int, l: int, k: int, digits: tuple) -> PsiCell:
    """The cell of a digit tuple: its u digits to depth k, all its v digits."""
    return PsiCell(m=m, l=l, x_prefix=tuple(u for u, _ in digits[:k]),
                   y_prefix=tuple(v for _, v in digits))


# ---------------------------------------------------------------------------
# representatives and the covering sandwich

def _carpet_denominator(a: int, b: int, depth: int) -> int:
    """D = lcm(a^L (a-1), b^L (b-1)): every coordinate of a depth-L point is
    a multiple of 1/D, and D for depth L divides D for depth L + 1."""
    return math.lcm(a ** depth * (a - 1), b ** depth * (b - 1))


def _digit_codes(spec: CarpetSpec, levels, tail: bytes, denom: int, dtype,
                 limit: int | None = None) -> np.ndarray:
    """Integer codes over `denom` of the points whose digit pair (u, v) at
    depth n ranges over `pairs`, one (n, pairs) level per depth 1..L, with
    the pair pattern `tail` at every depth past L.  Rows come in product
    order, first level outermost, cut to `limit` after each level; columns
    are X_0, Y_0, X_1, Y_1, ... in window order.

    X_g = sum_n u_n[g] / a^n + (t // b) / (a^L (a-1)), and Y_g likewise in
    base b: each level adds its codes to every row so far, one outer sum.
    """
    a, b = spec.a, spec.b
    depth = len(levels)

    def rows(pairs, x_den, y_den):
        sx, sy = denom // x_den, denom // y_den
        return np.array([[c for ug, vg in zip(u, v) for c in (ug * sx, vg * sy)]
                         for u, v in pairs], dtype=dtype)

    codes = rows([_split(tail, b)], a ** depth * (a - 1), b ** depth * (b - 1))
    for n, pairs in levels:
        level = rows(pairs, a ** n, b ** n)
        codes = (codes[:, None, :] + level[None, :, :]).reshape(
            -1, codes.shape[1])[:limit]
    return codes


def _representative_levels(spec: CarpetSpec, patterns, fibers, l: int,
                           cap: int) -> list:
    """Levels of the cloud with one point per depth-l cell, in `_cell_digits`
    order; the least pattern serves as tail."""
    choices = _cell_choices(spec, patterns, fibers, l)
    total = math.prod(len(c) for c in choices)
    if total > cap:
        raise CapExceeded("cloud", cap, f"representative cloud of depth {l}",
                          f"{total} points")
    return list(enumerate(choices, 1))


class SandwichReport(Record):
    m: int
    l: int
    floor_wl: int
    lower_product: int
    upper_product: int
    separated_count: int
    cover_count: int
    separation_scale: Fraction
    cover_scale: Fraction
    mode: str
    pairs_checked: int

    @property
    def ok(self) -> bool:
        return (self.separated_count >= self.lower_product
                and self.cover_count <= self.upper_product)


def _cell_offsets(spec: CarpetSpec, patterns, fibers, cell: PsiCell,
                  per_cell: int, denom: int, dtype) -> np.ndarray:
    """Codes of the samples of `cell` less its pair digits to depth k =
    len(x_prefix): every section over the free projected digits y_prefix[k:],
    under one extra depth of pair patterns (outermost), cut to `per_cell`
    points, then the least tail.  They depend on y_prefix[k:] alone."""
    k = len(cell.x_prefix)
    zero = bytes(len(patterns[0]))
    free = [(n, [(u, v) for u in fibers[v]])
            for n, v in enumerate(cell.y_prefix[k:], k + 1)]
    combos = min(per_cell, math.prod(len(us) for _, us in free))
    extra = [_split(p, spec.b) for p in patterns[:max(1, per_cell // combos)]]
    levels = ([(cell.l + 1, extra)]
              + [(n, [(zero, zero)]) for n in range(1, k + 1)] + free)
    return _digit_codes(spec, levels, patterns[0], denom, dtype, per_cell)


def _pair_blocks(codes):
    """(i0, dist, later) per block of rows of the pairwise windowed sup
    distances of an integer code array, as integer numerators: dist[r, c] is
    the distance from point i0 + r to point i0 + c, and later[r, c] marks the
    pairs c > r.  A block's rows span about _PAIR_BLOCK code differences of
    one column; the sup runs column by column, one `np.maximum` each."""
    n = len(codes)
    if n < 2:
        return
    first, *rest = codes.T.copy()  # one contiguous row per coordinate
    rows = max(1, _PAIR_BLOCK // n)
    for i0 in range(0, n - 1, rows):
        i1 = min(i0 + rows, n - 1)
        dist = np.abs(first[i0:i1, None] - first[None, i0:])
        step = np.empty_like(dist)
        for col in rest:
            np.subtract(col[i0:i1, None], col[None, i0:], out=step)
            np.maximum(dist, np.abs(step, out=step), out=dist)
        later = np.arange(n - i0) > np.arange(i1 - i0)[:, None]
        yield i0, dist, later


def _first_pair(codes, is_bad):
    """The first pair i < j in row-major order whose distance numerator d
    has is_bad(d), as (i, j, d), or None."""
    for i0, dist, later in _pair_blocks(codes):
        bad = is_bad(dist) & later
        if bad.any():
            r, c = (int(v) for v in np.argwhere(bad)[0])
            return i0 + r, i0 + c, dist[r, c]
    return None


def _window_check(spec: CarpetSpec, m: int, l: int, caps: Caps,
                  mode: str) -> SandwichReport:
    """The sandwich checked on ball(m) itself, reported under `mode`, with
    the product count |patterns|^k |projected patterns|^(l-k) of ball(m)."""
    a, b = spec.a, spec.b
    k = floor_wl(a, b, l)
    patterns, fibers = _pattern_set_tools(
        spec, ball(m, spec.omega.group, caps.cells), caps.patterns)
    product_count = len(patterns) ** k * len(fibers) ** (l - k)
    sep_scale = Fraction(1, b ** l)
    cov_scale = Fraction(a, b ** l)
    if product_count == 0:
        return SandwichReport(m=m, l=l, floor_wl=k, lower_product=0,
                              upper_product=0, separated_count=0, cover_count=0,
                              separation_scale=sep_scale, cover_scale=cov_scale,
                              mode="empty", pairs_checked=0)

    # representatives reach depth l and cell samples depth l + 1; the depth-l
    # denominator divides the depth-(l + 1) one, so one D serves both
    denom = _carpet_denominator(a, b, l + 1)
    sep_bound = denom // b ** l  # sep_scale and cov_scale as numerators
    cov_bound = a * denom // b ** l
    dtype = exact_int_dtype(max(2 * denom, cov_bound))
    levels = _representative_levels(spec, patterns, fibers, l, caps.cloud)
    reps = _digit_codes(spec, levels, patterns[0], denom, dtype)
    pairs_checked = len(reps) * (len(reps) - 1) // 2
    bad = _first_pair(reps, lambda dist: dist < sep_bound)
    if bad is not None:
        i, j, d = bad
        raise SandwichViolation(
            f"representatives {i},{j} at distance "
            f"{Fraction(int(d), denom)} < {sep_scale}")
    checked = {}  # free digit pairs -> (pairs per cell, first far pair)
    for digits in _cell_digits(spec, patterns, fibers, l, _CELL_LIMIT):
        free = digits[k:]  # one least section per free projected digit
        if free not in checked:
            offsets = _cell_offsets(spec, patterns, fibers,
                                    _psi_cell(m, l, k, digits),
                                    DEFAULT_CELL_SAMPLES, denom, dtype)
            checked[free] = (len(offsets) * (len(offsets) - 1) // 2,
                             _first_pair(offsets,
                                         lambda dist: dist >= cov_bound))
        pairs, bad = checked[free]
        pairs_checked += pairs
        if bad is not None:
            raise SandwichViolation(
                f"within-cell distance {Fraction(int(bad[2]), denom)} >= "
                f"{cov_scale} in cell {_psi_cell(m, l, k, digits).key}")

    return SandwichReport(m=m, l=l, floor_wl=k, lower_product=product_count,
                          upper_product=product_count,
                          separated_count=product_count,
                          cover_count=product_count, separation_scale=sep_scale,
                          cover_scale=cov_scale, mode=mode,
                          pairs_checked=pairs_checked)


def _product_row(spec: CarpetSpec, checked: SandwichReport, m: int,
                 caps: Caps) -> SandwichReport:
    """The product-mode row at m from the check of ball(0): the same check,
    its count raised to |ball(m)|."""
    count = checked.lower_product ** len(ball(m, spec.omega.group, caps.cells))
    return checked.replace(m=m, lower_product=count, upper_product=count,
                           separated_count=count, cover_count=count)


def sandwich_check(spec: CarpetSpec, m: int, l: int,
                   caps: Caps = Caps()) -> SandwichReport:
    """Exact two-sided covering sandwich at scales b^-l and a b^-l.

    (i) representative points are pairwise >= b^-l apart in the windowed sup
    distance, so the covering number at b^-l is at least the product count;
    (ii) sampled within-cell distances are < a b^-l strictly, and the cells
    cover, so the covering number at a b^-l is at most the same product.

    One path checks both on a window it picks from the rule.  Cellwise rules
    factor over window cells, so the single cell ball(0) decides both exactly
    (mode "product"): a differing pair must differ in some cell, and the sup
    distance is the max of per-cell distances.  Other rules are checked on
    ball(m) itself (mode "explicit").  The checked window is enumerated once
    and the product count comes from it: |patterns|^k |projected
    patterns|^(l-k), raised to |ball(m)| in product mode, where the check
    does not depend on m (`_product_row`).  Zero tolerance: both scales and
    all distances are integer numerators over one denominator.
    Every pair i < j of a cloud is checked a block of rows at a time
    (`_pair_blocks`): a block holds about _PAIR_BLOCK differences of one
    coordinate, and the sup over coordinates is an elementwise maximum taken
    column by column.  A violation names the first failing pair in
    row-major order with its exact distance.

    Both clouds are outer sums of per-depth digit codes (`_digit_codes`).
    A cell's samples take the sections over its free projected digits
    y_prefix[k:] under one extra depth of pair patterns, cut to
    DEFAULT_CELL_SAMPLES; differences cancel their shared prefix, so the
    offsets of each distinct y_prefix[k:] are built and checked once, while
    each of the first _CELL_LIMIT cells, walked as digit tuples
    (`_cell_digits`), adds its pairs and the first failing cell is named.
    """
    if spec.omega.rule.factors_over_cells:
        checked = _window_check(spec, 0, l, caps, "product")
        return _product_row(spec, checked, m, caps)
    return _window_check(spec, m, l, caps, "explicit")


# ---------------------------------------------------------------------------
# the fiber measure

class CarpetMeasure(Record):
    """Per-cylinder measure: f(u,v) = t(v)^{w-1}/Z on pairs, marginal
    f'(v) = t(v)^w / Z, products over independent depths."""

    spec: CarpetSpec
    window: GroupWindow
    table: FiberTable
    w: float
    log_z: float

    @staticmethod
    def build(spec: CarpetSpec, m: int,
              caps: Caps = Caps()) -> "CarpetMeasure":
        """The measure on ball(m)."""
        window = ball(m, spec.omega.group, caps.cells)
        table = fiber_table(spec.omega, window, caps.patterns)
        w = spec.w
        return CarpetMeasure(spec=spec, window=window, table=table, w=w,
                             log_z=log_z_from_fibers(table, w))

    def log_f_pair(self, v: bytes) -> float:
        t = self.table.entries[v]
        return (self.w - 1.0) * log_big(t) - self.log_z

    def log_f_marginal(self, v: bytes) -> float:
        t = self.table.entries[v]
        return self.w * log_big(t) - self.log_z

    def normalization_error(self) -> tuple:
        """(|sum f - 1|, |sum f' - 1|) evaluated independently in floats."""
        entries = self.table.entries
        sum_f = math.fsum(t * math.exp(self.log_f_pair(v))
                          for v, t in entries.items())
        sum_fp = math.fsum(math.exp(self.log_f_marginal(v)) for v in entries)
        return abs(sum_f - 1.0), abs(sum_fp - 1.0)


class ProbeReport(Record):
    l: int
    mean: float
    std: float
    log_z_per_site: float


def shannon_mcmillan_probe(measure: CarpetMeasure, l: int) -> ProbeReport:
    """The exact mean and standard deviation of the deviation
    (1/(l |B|)) log mu(Psi) + log Z / |B| of a depth-l cylinder Psi whose
    depth factors are i.i.d. under the fiber measure: how it concentrates
    at -log Z / |B|.

    Factor logs depend only on the projected pattern, drawn at each depth
    from p(v) = t(v)^w / Z.  With L = log t(v) and k = floor(w l), pair
    depths 1..k contribute (w-1) L - log Z and marginal depths w L - log Z,
    so the deviation is ((w-1) sum_{i<=k} L_i + w sum_{i>k} L_i) / (l |B|):
    of mean (w - k/l) E[L] / |B| and variance
    (k (w-1)^2 + (l-k) w^2) Var[L] / (l |B|)^2.  E[L] and Var[L] are two
    `fsum` passes over the fiber table.
    """
    if l < 1:
        raise ValueError("depth must be >= 1")
    w, site = measure.w, len(measure.window)
    k = floor_wl(measure.spec.a, measure.spec.b, l)
    entries = measure.table.entries
    logs = [log_big(t) for t in entries.values()]
    probs = [math.exp(measure.log_f_marginal(v)) for v in entries]
    mean_log = math.fsum(p * log_t for p, log_t in zip(probs, logs))
    var_log = math.fsum(p * (log_t - mean_log) ** 2
                        for p, log_t in zip(probs, logs))
    spread = (k * (w - 1.0) ** 2 + (l - k) * w ** 2) * var_log
    return ProbeReport(l=l, mean=(w - k / l) * mean_log / site,
                       std=math.sqrt(spread) / (l * site),
                       log_z_per_site=measure.log_z / site)


# ---------------------------------------------------------------------------
# assembled report

def carpet_dimension_report(spec: CarpetSpec, m_max: int, l_max: int,
                            folner_family: str = "balls",
                            w_override: float | None = None,
                            caps: Caps = Caps()) -> dict:
    """Entropy series, weighted series, both dimension formulas and the
    sandwich checks, with provenance notes on every headline number.  In
    product mode the rows of every m share one check per depth l.  An
    explicit check whose representatives would exceed the 1e5 pairwise
    budget is listed under `sandwich_skipped` instead of run."""
    folner = FolnerDescriptor(folner_family,
                              tuple(range(0 if folner_family == "balls" else 1,
                                          m_max + 1)))
    h_series = entropy_series(spec.omega, folner, caps)
    pspec = projected_spec(spec.omega)
    if pspec is None:
        raise ValueError("carpet reports need a derivable projected subshift")
    hp_series = entropy_series(pspec, folner, caps)
    w = spec.w if w_override is None else w_override
    hw_series = weighted_entropy_series(spec.omega, folner, w, caps)

    h_est = entropy_estimate(h_series)
    hp_est = entropy_estimate(hp_series)
    h = h_est.best
    h_prime = hp_est.best
    hw = hw_series.value

    if h_series.empty_system:
        return {"empty_system": True, "mdim_M": 0.0, "mdim_H": 0.0}

    sandwich = []
    skipped = []
    pair_budget = 10**5
    checks = {}  # l -> the product-mode row at m = 0, shared by every m
    for m in range(0, min(m_max, 1) + 1):
        if spec.omega.rule.factors_over_cells:
            for l in range(1, l_max + 1):
                if m == 0:
                    checks[l] = sandwich_check(spec, 0, l, caps)
                sandwich.append(_product_row(spec, checks[l], m, caps))
            continue
        window = ball(m, spec.omega.group, caps.cells)
        bases = (count_patterns(spec.omega, window, caps.patterns),
                 count_patterns(pspec, window, caps.patterns))
        for l in range(1, l_max + 1):
            k = floor_wl(spec.a, spec.b, l)
            reps = bases[0] ** k * bases[1] ** (l - k)
            if reps * reps > pair_budget:
                skipped.append({"m": m, "l": l, "reps": str(reps),
                                "reason": "pairwise budget"})
                continue
            sandwich.append(sandwich_check(spec, m, l, caps))

    measure = CarpetMeasure.build(spec, 0, caps)
    probe = shannon_mcmillan_probe(measure, max(16, l_max * 4))

    mdim_m = mdim_m_carpet(h, h_prime, spec.a, spec.b)
    mdim_h = mdim_h_carpet(hw, spec.b)
    return {
        "a": spec.a, "b": spec.b, "w": w,
        "h": h, "h_prime": h_prime, "hw": hw,
        "h_provenance": h_est.provenance,
        "h_series": h_series.table(),
        "hw_series": hw_series.table(),
        "mdim_M": mdim_m,
        "mdim_H": mdim_h,
        "ordering_ok": mdim_h <= mdim_m + 0.02,
        "sandwich": [{"m": s.m, "l": s.l, "floor_wl": s.floor_wl,
                      "lower_product": str(s.lower_product),
                      "upper_product": str(s.upper_product),
                      "separated_count": str(s.separated_count),
                      "cover_count": str(s.cover_count),
                      "mode": s.mode, "ok": s.ok} for s in sandwich],
        "sandwich_skipped": skipped,
        "normalization_error": measure.normalization_error(),
        "probe_mean_deviation": probe.mean,
    }
