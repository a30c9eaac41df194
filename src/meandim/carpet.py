"""Carpet systems: dimension formulas, the covering sandwich, cylinder cells,
the fiber-weighted measure and its finite-scale concentration checks.

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
in logarithmic reports.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice, product

import numpy as np

from .groups import CapExceeded, Caps, FolnerDescriptor, GroupWindow, ball
from .metrics import (WeightScheme, exact_int_dtype, least_radius,
                      seeded_random)
from .entropy import (entropy_estimate, entropy_series, log_big,
                      log_z_from_fibers, weighted_entropy_series)
from .subshifts import (FiberTable, SubshiftSpec, count_patterns,
                        enumerate_patterns, fiber_table, projected_spec)

DEFAULT_CELL_SAMPLES = 48
_CELL_LIMIT = 512  # cells of the sandwich's within-cell check
_PAIR_BLOCK = 1 << 16  # code differences per broadcast of the pair check
PROBE_SAMPLES = 2000  # Shannon-McMillan samples of the dimension report
PROBE_DELTA = 0.05  # the band |deviation| <= delta of `within_delta`
PROBE_QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


class SandwichViolation(AssertionError):
    """An exact sandwich inequality failed; carries the witnessing pair."""


@dataclass(frozen=True)
class CarpetSpec:
    """Bases a >= b >= 2, the driving paired subshift, the ambient weights."""

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

@dataclass(frozen=True)
class PsiCell:
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


@dataclass(frozen=True)
class SandwichReport:
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
    pairs c > r.  Each block is one broadcast of about _PAIR_BLOCK elements."""
    n = len(codes)
    if n < 2:
        return
    rows = max(1, _PAIR_BLOCK // (n * codes.shape[1]))
    for i0 in range(0, n - 1, rows):
        i1 = min(i0 + rows, n - 1)
        dist = np.abs(codes[i0:i1, None, :] - codes[None, i0:, :]).max(axis=2)
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
    return replace(checked, m=m, lower_product=count, upper_product=count,
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
    Every pair i < j of a cloud is checked, a block of rows per numpy
    broadcast (`_pair_blocks`), and a violation names the first failing pair
    in row-major order with its exact distance.

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

@dataclass(frozen=True)
class CarpetMeasure:
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
        sum_f = math.fsum(t * math.exp((self.w - 1.0) * log_big(t) - self.log_z)
                          for t in self.table.entries.values())
        sum_fp = math.fsum(math.exp(self.w * log_big(t) - self.log_z)
                           for t in self.table.entries.values())
        return abs(sum_f - 1.0), abs(sum_fp - 1.0)


@dataclass(frozen=True)
class ProbeReport:
    samples: int
    l: int
    mean: float
    quantiles: tuple
    within_delta: float
    delta: float
    log_z_per_site: float


def _uniforms(rng, n: int) -> np.ndarray:
    """n uniform floats j 2^-53 in [0, 1), j the top 53 bits of 8 bytes
    from one `randbytes` call."""
    bits = np.frombuffer(rng.randbytes(8 * n), dtype="<u8")
    return (bits >> 11) * 2.0 ** -53


def _linear_quantiles(values: np.ndarray, qs) -> np.ndarray:
    """`np.quantile(values, qs)` (its default "linear" method) from one sort:
    the value at (n - 1) q, interpolated between its neighbours as numpy
    does, from the upper neighbour when the fraction is >= 1/2."""
    ordered = np.sort(values)
    at = (len(ordered) - 1) * np.asarray(qs, dtype=float)
    lo = np.floor(at).astype(np.intp)
    hi = np.minimum(lo + 1, len(ordered) - 1)
    t = at - lo
    a, b = ordered[lo], ordered[hi]
    diff = b - a
    return np.where(t >= 0.5, b - diff * (1 - t), a + diff * t)


def shannon_mcmillan_probe(measure: CarpetMeasure, l: int, sample_count: int,
                           seed: int) -> ProbeReport:
    """Sample depth factors i.i.d. from the fiber measure and report how
    (1/(l |B|)) log mu(Psi) concentrates at -log Z / |B|, within
    PROBE_DELTA.

    Factor logs depend only on the projected pattern, so each depth draws a
    v from the marginal; pair depths contribute (w-1) log t(v) - log Z and
    marginal depths w log t(v) - log Z.  A draw is the inverse CDF of the
    marginal at a uniform from `random.Random(seed)`; the quantiles come
    from one sort.
    """
    if sample_count == 0:
        return ProbeReport(samples=0, l=l, mean=float("nan"), quantiles=(),
                           within_delta=float("nan"), delta=PROBE_DELTA,
                           log_z_per_site=measure.log_z / len(measure.window))
    if l < 1:
        raise ValueError("depth must be >= 1")
    spec = measure.spec
    k = floor_wl(spec.a, spec.b, l)
    vs = sorted(measure.table.entries)
    pair_logs = np.array([measure.log_f_pair(v) for v in vs])
    marg_logs = np.array([measure.log_f_marginal(v) for v in vs])
    cdf = np.cumsum(np.exp(marg_logs))
    cdf /= cdf[-1]
    draws = cdf.searchsorted(_uniforms(seeded_random(seed), sample_count * l),
                             side="right").reshape(sample_count, l)
    log_mu = pair_logs[draws[:, :k]].sum(axis=1)
    if l > k:
        log_mu = log_mu + marg_logs[draws[:, k:]].sum(axis=1)
    site = len(measure.window)
    dev = log_mu / (l * site) + measure.log_z / site
    qs = tuple(float(q) for q in _linear_quantiles(dev, PROBE_QUANTILES))
    return ProbeReport(samples=sample_count, l=l, mean=float(dev.mean()),
                       quantiles=qs,
                       within_delta=float(np.mean(np.abs(dev) <= PROBE_DELTA)),
                       delta=PROBE_DELTA,
                       log_z_per_site=measure.log_z / site)


# ---------------------------------------------------------------------------
# assembled report

def carpet_dimension_report(spec: CarpetSpec, m_max: int, l_max: int,
                            folner_family: str = "balls",
                            w_override: float | None = None, seed: int = 1,
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
    probe = shannon_mcmillan_probe(measure, max(16, l_max * 4), PROBE_SAMPLES, seed)

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
