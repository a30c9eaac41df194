"""Exact references that the tests check the library's engines against.

Each reference evaluates its definition directly, in Fractions or by brute
force over every pair, and shares no arithmetic with the engine it checks:
the carpet and homogeneous probes compare integer numerators, the K-space
and circle covers walk integer codes, and window order is checked against
breadth-first word search.  The acceptance-only checks (pigeonhole
separation, the weighted degenerations, the scale Hausdorff bound) live
here too, and so do the brute-force moments of the carpet's
concentration probe.  The carpet references reach the cloud builder
through the module attribute `meandim.carpet._digit_codes`, so a test that
patches it sees the same points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence

import meandim.carpet as carpet
import meandim.homogeneous as homogeneous
from meandim.entropy import log_big, weighted_entropy_series
from meandim.groups import (DEFAULT_CELL_CAP, DEFAULT_CLOUD_CAP,
                            DEFAULT_PATTERN_CAP, CapExceeded, Caps,
                            FolnerDescriptor, GroupSpec, GroupWindow, ball)
from meandim.kspace import _k_size, _unit_steps
from meandim.metrics import PointCloud, ProductMetric, WeightScheme
from meandim.subshifts import SubshiftSpec, count_windows, fiber_table

HAUSDORFF_S_CAP = 64.0


# ---------------------------------------------------------------------------
# groups: words over the generators

def add(g, h):
    return tuple(a + b for a, b in zip(g, h))


def identity(spec: GroupSpec) -> tuple:
    return (0,) * spec.rank


def generators(spec: GroupSpec) -> list:
    """Generators in canonical order: +e_1, -e_1, +e_2, -e_2, ..."""
    gens = []
    for axis in range(spec.rank):
        e = [0] * spec.rank
        e[axis] = 1
        gens.append(tuple(e))
        gens.append(tuple(-v for v in e))
    return gens


def windows(folner: FolnerDescriptor, spec: GroupSpec,
            cap: int = DEFAULT_CELL_CAP) -> list[GroupWindow]:
    return [folner.window(m, spec, cap) for m in folner.indices]


# ---------------------------------------------------------------------------
# subshifts: the sweep by sorting and the neighbours by the position map

def sorted_sweep(window: GroupWindow) -> GroupWindow:
    """The window's cells sorted lexicographically, longest extent
    outermost (equal extents keep axis 0 outermost):
    `GroupWindow.sweep`."""
    cells = window.elements
    dims = range(len(cells[0]))
    extent = [max(c[a] for c in cells) - min(c[a] for c in cells) for a in dims]
    axes = sorted(dims, key=lambda a: -extent[a])
    return window.replace(elements=tuple(
        sorted(cells, key=lambda c: [c[a] for a in axes])))


def position_map_cell_bans(spec: SubshiftSpec, window: GroupWindow) -> list:
    """The clauses of `subshifts._cell_bans`, every neighbour c + e_axis and
    every pattern cell looked up in the window's position map."""
    rule = spec.rule
    symbols = rule.symbols
    pos = window.position_map
    bans = [[] for _ in range(len(window))]
    for axis, mat in rule.axis_allowed:
        forward = [(s, t) for s in symbols for t in symbols if not mat[t][s]]
        backward = [(s, t) for s in symbols for t in symbols if not mat[s][t]]
        e = tuple(int(a == axis) for a in range(spec.rank))
        for i, c in enumerate(window.elements):
            j = pos.get(add(c, e))
            if j is None:
                continue
            if j < i:
                bans[i] += [(s, ((j, t),)) for s, t in backward]
            else:
                bans[j] += [(s, ((i, t),)) for s, t in forward]
    for offs, syms in rule.forbidden:
        shifts = [tuple(a - b for a, b in zip(off, offs[0])) for off in offs]
        for c in window.elements:
            inst = [pos.get(add(c, d)) for d in shifts]
            need = {}
            if None in inst or any(need.setdefault(p, t) != t
                                   for p, t in zip(inst, syms)):
                continue
            s = need.pop(max(inst))
            if s in set(symbols):
                bans[max(inst)].append((s, tuple(need.items())))
    return bans


# ---------------------------------------------------------------------------
# metrics: greedy separation, 1-d sweeps in Fractions, Hausdorff sums

def separated_set(cloud: PointCloud, metric, eps, indices=None) -> list[int]:
    """Greedy maximal subset with certified pairwise distance >= eps.

    Seeded at the first point in cloud order; certified via the distance lo.
    """
    pts = cloud.points
    order = range(len(pts)) if indices is None else indices
    chosen: list[int] = []
    for i in order:
        if all(metric.interval(pts[i], pts[j])[0] >= eps for j in chosen):
            chosen.append(i)
    return chosen


def line_cover_count(values: Sequence, eps) -> int:
    """Exact minimum number of diameter < eps sets covering points on a line."""
    if eps <= 0:
        raise ValueError("cover budget eps must be positive")
    vals = sorted(set(values))
    if not vals:
        return 0
    count = 0
    i = 0
    while i < len(vals):
        count += 1
        start = vals[i]
        while i < len(vals) and vals[i] - start < eps:
            i += 1
    return count


def line_separated_count(values: Sequence, eps) -> int:
    """Exact maximum eps-separated subset of points on a line."""
    vals = sorted(set(values))
    if not vals:
        return 0
    count = 0
    last = None
    for v in vals:
        if last is None or v - last >= eps:
            count += 1
            last = v
    return count


def circle_cover_count(values: Sequence, eps) -> int:
    """Exact minimum cover of points on the unit circle by arcs of diam < eps.

    Tries every point as the sweep start; exact for finite sets, O(n^2) in
    Fractions.  The reference for `homogeneous._circle_cover_codes`.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("cover budget eps must be positive")
    vals = sorted(set(Fraction(v) % 1 for v in values))
    n = len(vals)
    if n == 0:
        return 0
    if n == 1:
        return 1
    best = n
    for start in range(n):
        count = 0
        i = 0
        while i < n:
            count += 1
            first = vals[(start + i) % n]
            j = i
            while j < n:
                cur = vals[(start + j) % n]
                span = (cur - first) % 1
                if span < eps:
                    j += 1
                else:
                    break
            i = j
        best = min(best, count)
    return best


def hausdorff_sum(diameters: Sequence, s: float, eps=None) -> float:
    """Sum of diam^s over a cover; rejects any set with diameter >= eps."""
    total = 0.0
    for d in diameters:
        d = float(d)
        if d < 0:
            raise ValueError("diameters must be nonnegative")
        if eps is not None and d >= float(eps):
            raise ValueError(f"cover set diameter {d} is not < eps={eps}")
        if d == 0.0:
            total += 1.0 if s == 0 else 0.0
        else:
            total += d ** s
    return total


def hausdorff_dim_upper(covers: Sequence[Sequence], eps,
                        s_cap: float = HAUSDORFF_S_CAP,
                        tol: float = 1e-6) -> float:
    """sup{s : min over candidate covers of sum diam^s >= 1}, by bisection.

    Only candidate covers are inspected, so the result is an upper bound on
    the scale-eps Hausdorff dimension.  When even s = s_cap keeps the minimal
    sum >= 1 (possible only with diameters >= 1) the cap itself is reported.
    """
    if not covers:
        raise ValueError("need at least one candidate cover")

    def h(s: float) -> float:
        return min(hausdorff_sum(c, s, eps=eps) for c in covers)

    if h(s_cap) >= 1.0:
        return s_cap
    lo, hi = 0.0, s_cap
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if h(mid) >= 1.0:
            lo = mid
        else:
            hi = mid
    return lo


def sphere_size(rank: int, n: int) -> int:
    """Number of elements of Z^rank at l1 word length exactly n."""
    if n == 0:
        return 1
    total = 0
    for k in range(1, min(rank, n) + 1):
        total += 2 ** k * math.comb(rank, k) * math.comb(n - 1, k - 1)
    return total


def partial_sum_tail(scheme: WeightScheme, r: int) -> Fraction:
    """The weight tail beyond the ball of radius r - 1 as the lattice total
    ((1 + rho) / (1 - rho))^rank less r exact sphere terms."""
    rho = scheme.rho
    return (((1 + rho) / (1 - rho)) ** scheme.rank
            - sum(sphere_size(scheme.rank, n) * rho ** n for n in range(r)))


# ---------------------------------------------------------------------------
# radii: one step at a time

def stepped_tail_radius(scheme: WeightScheme, eps) -> int:
    """The least r with tail_upper(r + 1) < eps/2, trying r = 0, 1, 2, ...:
    the radius of `tail_support`."""
    r = 0
    while scheme.tail_upper(r + 1) >= Fraction(eps) / 2:
        r += 1
    return r


def stepped_net_radius(spec, eps) -> int:
    """The least r with value_range * tail_upper(r + 1) < (1 - c) eps / 6,
    trying r = 0, 1, 2, ...: `selfsimilar.net_radius`."""
    target = (1 - spec.c) * Fraction(eps) / 6
    r = 0
    while spec.value_range * spec.weights.tail_upper(r + 1) >= target:
        r += 1
    return r


# ---------------------------------------------------------------------------
# depths: one step at a time

def stepped_floor_wl(a: int, b: int, l: int) -> int:
    """floor(l log_a b), trying k = 0, 1, 2, ...: `carpet.floor_wl`."""
    k = 0
    while a ** (k + 1) <= b ** l:
        k += 1
    return k


def stepped_digit_depth(base: int, eps) -> int:
    """The least N >= 1 with base^-N <= eps, trying N = 1, 2, ...:
    `homogeneous._digit_depth`."""
    depth_n = 1
    while Fraction(1, base ** depth_n) > eps:
        depth_n += 1
    return depth_n


def stepped_composition_depth(spec, eps) -> int:
    """The least m with D c^m < eps/6, one factor c per step:
    `selfsimilar.composition_depth`."""
    d_up = spec.diameter_upper()
    m = 0
    power = Fraction(1)
    while d_up * power >= Fraction(eps) / 6:
        m += 1
        power *= spec.c
    return m


def stepped_embedding_depth(spec, eps) -> int:
    """The least k >= 1 with c^k D <= eps, one factor c per step:
    `selfsimilar.embedding_depth`."""
    d_up = spec.diameter_upper()
    eps = Fraction(eps)
    k = 1
    power = spec.c
    while power * d_up > eps:
        k += 1
        power *= spec.c
    return k


# ---------------------------------------------------------------------------
# kspace: the point families the integer sweeps walk

def k_truncation(delta: Fraction) -> list[Fraction]:
    """K down to points below delta/2, so a sweep group can absorb the rest."""
    n_tr = _k_size(delta)
    return [Fraction(0)] + [Fraction(1, n) for n in range(n_tr, 0, -1)]


def unit_grid(delta: Fraction) -> list[Fraction]:
    """Grid on [0,1] slightly coarser than delta/3 for exact sweep covers."""
    steps = _unit_steps(delta)
    return [Fraction(j, steps) for j in range(steps + 1)]


# ---------------------------------------------------------------------------
# entropy: the weighted series at w = 0 and w = 1

def weighted_degeneration_check(spec: SubshiftSpec, folner: FolnerDescriptor,
                                cap: int = DEFAULT_CELL_CAP,
                                digits: int = 12) -> dict:
    """w=1 rows must equal log|Omega| and w=0 rows log|Omega'|, bit for bit
    after rounding to the given digits; `cap` bounds the cells of each
    window and the patterns of its fiber tables."""
    group = spec.group
    s1 = weighted_entropy_series(spec, folner, 1.0, Caps(cap, cap))
    s0 = weighted_entropy_series(spec, folner, 0.0, Caps(cap, cap))
    ok = True
    detail = []
    windows = (folner.window(m, group, cap) for m in folner.indices)
    for m, r1, r0, (window, total) in zip(folner.indices, s1.rows, s0.rows,
                                          count_windows(spec, windows)):
        table = fiber_table(spec, window, cap)
        want1 = round(log_big(total), digits)
        want0 = round(log_big(len(table.entries)), digits)
        got1 = round(r1.log_count, digits)
        got0 = round(r0.log_count, digits)
        detail.append({"m": m, "w1": (got1, want1), "w0": (got0, want0)})
        ok = ok and got1 == want1 and got0 == want0
    return {"ok": ok, "rows": detail}


# ---------------------------------------------------------------------------
# carpet: Fraction points, cells and the pigeonhole separation

def linf_pair_distance(p, q) -> Fraction:
    """Windowed sup distance on (R^2)^window points, exact."""
    best = Fraction(0)
    for (x1, y1), (x2, y2) in zip(p, q):
        d = max(abs(x1 - x2), abs(y1 - y2))
        if d > best:
            best = d
    return best


def _carpet_patterns(spec: carpet.CarpetSpec, m: int):
    """(window, patterns, fibers) of ball(m), enumerated under the pattern
    cap: the patterns are the input, the cloud cap bounds what is built."""
    window = ball(m, spec.omega.group)
    return (window,) + carpet._pattern_set_tools(spec, window,
                                                 DEFAULT_PATTERN_CAP)


def carpet_representatives(spec: carpet.CarpetSpec, m: int, l: int,
                           cap: int = DEFAULT_CLOUD_CAP):
    """One exact point per prefix tuple: pair patterns to depth floor(wl),
    projected patterns to depth l, section digits between, fixed least tail.

    Returns (points, window) with points as tuples of (X_g, Y_g) Fractions;
    a cloud of more than `cap` points raises the cloud cap.
    """
    window, patterns, fibers = _carpet_patterns(spec, m)
    if not patterns:
        return [], window
    denom = carpet._carpet_denominator(spec.a, spec.b, l)
    levels = carpet._representative_levels(spec, patterns, fibers, l, cap)
    codes = carpet._digit_codes(spec, levels, patterns[0], denom, object)
    return [tuple((Fraction(p[i], denom), Fraction(p[i + 1], denom))
                  for i in range(0, len(p), 2)) for p in codes], window


def psi_cells(spec: carpet.CarpetSpec, patterns, fibers, m: int, l: int,
              limit: int) -> list:
    """First `limit` cells in prefix order, the first depth outermost."""
    k = carpet.floor_wl(spec.a, spec.b, l)
    return [carpet._psi_cell(m, l, k, digits)
            for digits in carpet._cell_digits(spec, patterns, fibers, l,
                                              limit)]


def enumerate_psi_cells(spec: carpet.CarpetSpec, m: int, l: int, limit: int,
                        cap: int = DEFAULT_CLOUD_CAP) -> list:
    """First `limit` cells in deterministic prefix order; listing more than
    `cap` cells raises the cloud cap."""
    _, patterns, fibers = _carpet_patterns(spec, m)
    choices = carpet._cell_choices(spec, patterns, fibers, l)
    count = min(limit, math.prod(len(c) for c in choices))
    if count > cap:
        raise CapExceeded("cloud", cap, f"list of depth-{l} cells",
                          f"{count} cells")
    return psi_cells(spec, patterns, fibers, m, l, limit)


def cell_boxes(spec: carpet.CarpetSpec, cell, window_size: int):
    """Exact bounding boxes: corner plus widths a^-floor(wl), b^-l per axis."""
    a, b = spec.a, spec.b
    k = len(cell.x_prefix)
    x_corner = [Fraction(0)] * window_size
    y_corner = [Fraction(0)] * window_size
    for n in range(k):
        for g in range(window_size):
            x_corner[g] += Fraction(cell.x_prefix[n][g], a ** (n + 1))
    for n in range(cell.l):
        for g in range(window_size):
            y_corner[g] += Fraction(cell.y_prefix[n][g], b ** (n + 1))
    return x_corner, y_corner, Fraction(1, a ** k), Fraction(1, b ** cell.l)


def box_gap(c1, c2, width) -> Fraction:
    lo = max(c1, c2)
    hi = min(c1 + width, c2 + width)
    return max(Fraction(0), lo - hi)


def separation_pigeonhole_check(spec: carpet.CarpetSpec, m: int, l: int,
                                cells: Sequence) -> tuple:
    """Find cells i, j whose bounding boxes sit >= b^-l apart in sup distance.

    With at least 4^{|B_S(m)|} + 1 distinct cells a witness must exist; not
    finding one falsifies the pigeonhole separation guarantee, so the failure
    dumps every pair distance.
    """
    window = ball(m, spec.omega.group)
    size = len(window)
    need = 4 ** size + 1
    keys = {c.key for c in cells}
    if len(keys) != len(cells):
        raise ValueError("cells must be pairwise distinct as prefix tuples")
    if len(cells) < need:
        raise ValueError(f"need at least {need} cells for |window| = {size}")
    threshold = Fraction(1, spec.b ** l)
    boxes = [cell_boxes(spec, c, size) for c in cells]
    for i in range(len(cells)):
        xi_c, yi_c, wxi, wyi = boxes[i]
        for j in range(i + 1, len(cells)):
            xj_c, yj_c, wxj, wyj = boxes[j]
            gap = Fraction(0)
            for g in range(size):
                gap = max(gap, box_gap(xi_c[g], xj_c[g], wxi),
                          box_gap(yi_c[g], yj_c[g], wyi))
            if gap >= threshold:
                return i, j, gap
    dump = [(i, j, float(max(
        max(box_gap(boxes[i][0][g], boxes[j][0][g], boxes[i][2]) for g in range(size)),
        max(box_gap(boxes[i][1][g], boxes[j][1][g], boxes[i][3]) for g in range(size)))))
        for i in range(len(cells)) for j in range(i + 1, len(cells))]
    raise AssertionError(
        f"no pair of {len(cells)} cells is {threshold} separated; "
        f"this would falsify the pigeonhole separation guarantee. "
        f"distances: {dump}")


def probe_moments(measure: carpet.CarpetMeasure, l: int) -> tuple:
    """(mean, std) of the deviation (1/(l |B|)) log mu(Psi) + log Z / |B|
    over every depth sequence in V^l: each sequence weighted by the product
    of its marginals t(v)^w / Z, normalised as the sampler's inverse CDF
    did, with pair logs at depths 1..floor(wl) and marginal logs after.
    `carpet.shannon_mcmillan_probe` gives the same two moments in closed
    form."""
    weights = {v: math.exp(measure.log_f_marginal(v))
               for v in measure.table.entries}
    total = math.fsum(weights.values())
    k = stepped_floor_wl(measure.spec.a, measure.spec.b, l)
    site = len(measure.window)
    probs, devs = [], []
    for seq in product(sorted(weights), repeat=l):
        probs.append(math.prod(weights[v] / total for v in seq))
        log_mu = math.fsum([measure.log_f_pair(v) for v in seq[:k]]
                           + [measure.log_f_marginal(v) for v in seq[k:]])
        devs.append(log_mu / (l * site) + measure.log_z / site)
    mean = math.fsum(p * d for p, d in zip(probs, devs))
    var = math.fsum(p * (d - mean) ** 2 for p, d in zip(probs, devs))
    return mean, math.sqrt(var)


# ---------------------------------------------------------------------------
# homogeneous: Fraction digit clouds and the scaled-orbit metric

@dataclass(frozen=True)
class DigitCloud:
    """Torus configurations from digit patterns, depth-truncated, tails pinned.

    Coordinates are exact rationals digits / b^depth; within the cloud every
    unstored coordinate agrees across points, so pairwise metric evaluations
    over the stored window are exact full-sum distances.
    """

    window: GroupWindow  # rank d window carrying the varying coordinates
    depth: int
    base: int
    points: tuple  # tuple of per-cell Fraction tuples


def digit_cloud(spec: homogeneous.HomogeneousSpec, window: GroupWindow, depth: int,
                cap: int = 100_000) -> DigitCloud:
    denom = spec.base ** depth
    return DigitCloud(window=window, depth=depth, base=spec.base,
                      points=tuple(tuple(Fraction(c, denom) for c in p)
                                   for p in homogeneous._digit_codes(
                                       spec, window, depth, cap,
                                       Caps())))


@dataclass(frozen=True)
class ScaledOrbit:
    """d^{sigma,T} over orbit x {0..N-1} in Fractions: the orbit metric
    maximized over the scaled copies x b^j mod 1, j < N, of each point.

    The reference for the probe's right distance, which the probe itself
    evaluates on integer codes (`homogeneous._pair_rows`).
    """

    metric: ProductMetric
    points: tuple

    @staticmethod
    def build(metric: ProductMetric, cloud: DigitCloud,
              depth_n: int) -> "ScaledOrbit":
        mults = [cloud.base ** j for j in range(depth_n)]
        return ScaledOrbit(metric, tuple(
            tuple(tuple((v * mult) % 1 for v in p) for mult in mults)
            for p in cloud.points))

    def interval(self, xs, ys) -> tuple:
        lo = hi = Fraction(0)
        for x, y in zip(xs, ys):
            x_lo, x_hi = self.metric.interval(x, y)
            lo, hi = max(lo, x_lo), max(hi, x_hi)
        return lo, hi
