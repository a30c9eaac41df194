"""Weighted product metrics, dynamical sup-metrics and covering engines.

Distances on configuration spaces are reported as certified intervals
[lo, hi]: lo sums the weighted coordinate distances that the stored window
actually determines, hi adds the worst-case tail of the summable weight
family.  Covering, separation and Hausdorff-sum estimators consume those
intervals so every reported count is a certified bound.

Strict "diam < eps" is handled with tolerance 1e-12 on float inputs; exact
Fraction inputs may pass tol=0 for zero-tolerance verification.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .groups import GroupSpec, GroupWindow, WindowCapExceeded, ball, word_length

STRICT_TOL = 1e-12
EXACT_COVER_LIMIT = 24
HAUSDORFF_S_CAP = 64.0

# int64 holds an exact integer numerator below this magnitude
_INT64_LIMIT = 2 ** 63

COORD_DIAMETERS = {"unit": Fraction(1), "torus": Fraction(1, 2),
                   "kset": Fraction(1), "pair": Fraction(1)}


class CoverCapExceeded(RuntimeError):
    pass


class HypothesisUnsatisfiable(RuntimeError):
    """The mass-distribution family cannot witness the principle hypothesis."""


class ProbeViolation(AssertionError):
    """A probe's exact check failed or a covering estimate exceeded its
    certified bound."""


def exact_int_dtype(bound: int):
    """numpy dtype for exact integer numerators whose values and
    intermediates stay below `bound` in magnitude: int64 when it fits,
    object (Python ints) otherwise.  Both run the same array code."""
    return np.int64 if bound < _INT64_LIMIT else object


# ---------------------------------------------------------------------------
# weights

def sphere_size(rank: int, n: int) -> int:
    """Number of elements of Z^rank at l1 word length exactly n."""
    if n == 0:
        return 1
    total = 0
    for k in range(1, min(rank, n) + 1):
        total += 2 ** k * math.comb(rank, k) * math.comb(n - 1, k - 1)
    return total


@dataclass(frozen=True)
class WeightScheme:
    """Geometric weights alpha_g = rho^{l1(g)} with alpha_identity = 1.

    Tail sums are exact closed forms for rank <= 2 and certified upper bounds
    (dominated geometric remainder) above that; summability needs
    rho * (sphere growth) < 1, which geometric decay gives for every rank.
    """

    rank: int
    rho: Fraction

    def __post_init__(self):
        rho = Fraction(self.rho)
        object.__setattr__(self, "rho", rho)
        if not (0 < rho < 1):
            raise ValueError("decay ratio must be in (0, 1)")

    def weight(self, g) -> Fraction:
        return self.rho ** word_length(g)

    def weight_at(self, n: int) -> Fraction:
        return self.rho ** n

    def tail_upper(self, r: int) -> Fraction:
        """Certified upper bound for sum of alpha_g over word length >= r."""
        rho = self.rho
        if r == 0:
            return self.tail_upper(1) + 1
        if self.rank == 1:
            return 2 * rho ** r / (1 - rho)
        if self.rank == 2:
            # 4 * sum_{n>=r} n rho^n, arithmetico-geometric closed form
            return 4 * rho ** r * (r - (r - 1) * rho) / (1 - rho) ** 2
        # partial sum plus dominated geometric remainder:
        # c(n+j) <= c(n) ((n+j)/n)^{rank-1} and ((N+j)/N)^{rank-1} <= q0^j
        # for q0 = ((N+1)/N)^{rank-1} once j steps one at a time.
        n0 = max(r, 4 * self.rank)
        partial = sum(sphere_size(self.rank, n) * rho ** n for n in range(r, n0 + 1))
        q = rho * Fraction(n0 + 1, n0) ** (self.rank - 1)
        while q >= 1:
            n0 *= 2
            partial = sum(sphere_size(self.rank, n) * rho ** n for n in range(r, n0 + 1))
            q = rho * Fraction(n0 + 1, n0) ** (self.rank - 1)
        remainder = sphere_size(self.rank, n0) * rho ** n0 * q / (1 - q)
        return partial + remainder

    def total_upper(self) -> Fraction:
        return 1 + self.tail_upper(1)

    def window_weight_sum(self, window: GroupWindow, shift=None) -> Fraction:
        shift = shift or (0,) * self.rank
        return sum(self.weight(tuple(c - s for c, s in zip(g, shift)))
                   for g in window.elements)


def tail_support(scheme: WeightScheme, eps, spec: GroupSpec | None = None,
                 cap_radius: int = 10**6) -> GroupWindow:
    """Smallest ball S with certified tail sum over the complement < eps/2."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    spec = spec or GroupSpec(scheme.rank)
    eps = Fraction(eps) if not isinstance(eps, Fraction) else eps
    r = 0
    while scheme.tail_upper(r + 1) >= eps / 2:
        r += 1
        if r > cap_radius:
            raise WindowCapExceeded(r, cap_radius)
    return ball(r, spec)


# ---------------------------------------------------------------------------
# point clouds and coordinate kinds

def kset_value(n: int) -> Fraction:
    """K = {0} u {1/n}: the integer code n stands for 1/n, 0 for the point 0."""
    return Fraction(0) if n == 0 else Fraction(1, n)


def coordinate_distance(kind: str, x, y):
    if kind == "torus":
        d = abs(Fraction(x) - Fraction(y)) % 1
        return min(d, 1 - d)
    if kind == "kset":
        return abs(kset_value(x) - kset_value(y))
    if kind == "pair":
        return max(abs(x[0] - y[0]), abs(x[1] - y[1]))
    return abs(x - y)


@dataclass(frozen=True)
class PointCloud:
    """Finite configurations sharing one window and one coordinate kind."""

    window: GroupWindow
    kind: str
    points: tuple  # tuple of per-cell value tuples, window order

    def __post_init__(self):
        if self.kind not in COORD_DIAMETERS:
            raise ValueError(f"unknown coordinate kind {self.kind!r}")
        n = len(self.window)
        for p in self.points:
            if len(p) != n:
                raise ValueError("point length must match the window")

    def __len__(self):
        return len(self.points)


@dataclass(frozen=True)
class ProductMetric:
    """d(x,y) = max over shifts g of sum_c alpha_{c-g} delta(x_c, y_c) plus tail.

    With shifts = (identity,) this is the plain weighted product metric; with
    shifts = F it is the dynamical sup-metric over the window F.  Coordinates
    the stored window does not determine enter through the interval tail.
    """

    scheme: WeightScheme
    window: GroupWindow
    kind: str
    shifts: tuple = None

    def __post_init__(self):
        if self.shifts is None:
            object.__setattr__(self, "shifts", ((0,) * self.scheme.rank,))
        weights = []
        total_up = self.scheme.total_upper()
        diam = COORD_DIAMETERS[self.kind]
        for g in self.shifts:
            w = tuple(self.scheme.weight(tuple(c - s for c, s in zip(cell, g)))
                      for cell in self.window.elements)
            slack = (total_up - sum(w)) * diam
            weights.append((w, max(slack, Fraction(0))))
        object.__setattr__(self, "_shift_weights", tuple(weights))

    def interval(self, x, y) -> tuple:
        if len(x) != len(self.window) or len(y) != len(self.window):
            raise ValueError("configurations must match the metric's window")
        lo = Fraction(0)
        hi = Fraction(0)
        kind = self.kind
        for w, slack in self._shift_weights:
            s = Fraction(0)
            for wi, xi, yi in zip(w, x, y):
                if xi != yi:
                    s += wi * coordinate_distance(kind, xi, yi)
            lo = max(lo, s)
            hi = max(hi, s + slack)
        return lo, hi


def product_distance(x, y, scheme: WeightScheme, window: GroupWindow,
                     kind: str = "unit") -> tuple:
    """Certified interval for the infinite weighted sum distance."""
    return ProductMetric(scheme, window, kind).interval(x, y)


def dynamical_metric(scheme: WeightScheme, window: GroupWindow, kind: str,
                     orbit: GroupWindow) -> ProductMetric:
    """Sup over the orbit window of shifted base distances."""
    return ProductMetric(scheme, window, kind, shifts=tuple(orbit.elements))


# ---------------------------------------------------------------------------
# covering machinery

@dataclass(frozen=True)
class CoverReport:
    eps: object
    lower: int
    upper: int
    exact: bool
    window_size: int = 0
    seconds: float = 0.0

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("certified lower bound exceeds upper bound")

    def to_json_line(self) -> str:
        import json
        return json.dumps({"eps": float(self.eps), "lower": str(self.lower),
                           "upper": str(self.upper), "exact": self.exact,
                           "window_size": self.window_size,
                           "seconds": round(self.seconds, 6)},
                          sort_keys=True)


def _pair_cache(metric, points):
    cache = {}

    def dist(i, j):
        if i > j:
            i, j = j, i
        key = (i, j)
        if key not in cache:
            cache[key] = metric.interval(points[i], points[j])
        return cache[key]

    return dist


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


def _candidate_balls(points, metric, eps, tol):
    """One tolerance-shrunk ball of radius eps/2 per point; diameters < eps
    by the triangle inequality on the hi values."""
    radius = eps / 2 - tol / 2 if tol else eps / 2
    n = len(points)
    balls = []
    for i in range(n):
        members = frozenset(j for j in range(n)
                            if metric.interval(points[i], points[j])[1] <= radius)
        balls.append(members)
    return balls


def _greedy_cover(balls, n) -> list[int]:
    uncovered = set(range(n))
    picked = []
    while uncovered:
        best, best_gain = None, -1
        for idx, b in enumerate(balls):
            gain = len(b & uncovered)
            if gain > best_gain:
                best, best_gain = idx, gain
        if best_gain <= 0:
            raise CoverCapExceeded("cover family cannot cover the cloud")
        picked.append(best)
        uncovered -= balls[best]
    return picked


def _exact_min_cover(balls, n) -> int:
    """Branch and bound minimum set cover over the candidate family."""
    best = [len(_greedy_cover(balls, n))]

    def rec(uncovered: frozenset, used: int):
        if not uncovered:
            best[0] = min(best[0], used)
            return
        if used + 1 >= best[0]:
            return
        pivot = min(uncovered)
        for b in balls:
            if pivot in b:
                rec(uncovered - b, used + 1)

    rec(frozenset(range(n)), 0)
    return best[0]


def covering_number(cloud: PointCloud, metric, eps, mode: str = "bounds",
                    tol=STRICT_TOL, exact_limit: int = EXACT_COVER_LIMIT,
                    window_size: int | None = None) -> CoverReport:
    """Certified covering bounds at scale eps for sets of diameter < eps.

    Bounds mode: greedy maximal eps-separated size (lower) and greedy cover
    by tolerance-shrunk eps/2 balls (upper).  Exact mode additionally runs
    branch-and-bound minimum cover over the same ball family, so "exact" is
    exact relative to ball covers; it refuses clouds above exact_limit.
    """
    import time
    t0 = time.monotonic()
    pts = cloud.points
    if not pts:
        raise ValueError("cloud must be nonempty")
    n = len(pts)
    lower = len(separated_set(cloud, metric, eps))
    balls = _candidate_balls(pts, metric, eps, tol)
    upper = len(_greedy_cover(balls, n))
    exact = False
    if mode == "exact":
        if n > exact_limit:
            raise CoverCapExceeded(
                f"exact mode limited to {exact_limit} candidates, got {n}")
        upper = _exact_min_cover(balls, n)
        exact = upper == lower
    if lower > upper:
        # greedy separation used lo, cover used hi; bounds must still nest
        raise AssertionError("certified bounds crossed; interval logic broken")
    return CoverReport(eps=eps, lower=lower, upper=upper, exact=exact,
                       window_size=window_size or len(cloud.window),
                       seconds=time.monotonic() - t0)


# ---------------------------------------------------------------------------
# 1-d exact covering and separation (line and circle)

def line_cover_count(values: Sequence, eps, tol=0) -> int:
    """Exact minimum number of diameter < eps sets covering points on a line."""
    limit = eps - tol
    if limit <= 0:
        raise ValueError("cover budget eps - tol must be positive")
    vals = sorted(set(values))
    if not vals:
        return 0
    count = 0
    i = 0
    while i < len(vals):
        count += 1
        start = vals[i]
        while i < len(vals) and vals[i] - start < limit:
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


def circle_cover_count(values: Sequence, eps, tol=0) -> int:
    """Exact minimum cover of points on the unit circle by arcs of diam < eps.

    Tries every point as the sweep start; exact for finite sets.
    """
    limit = Fraction(eps) - Fraction(tol)
    if limit <= 0:
        raise ValueError("cover budget eps - tol must be positive")
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
                if span < limit:
                    j += 1
                else:
                    break
            i = j
        best = min(best, count)
    return best


# ---------------------------------------------------------------------------
# Hausdorff machinery

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


@dataclass(frozen=True)
class MassDistributionInput:
    """Finitely supported measure plus candidate sets with known diameters.

    measure maps point ids to masses summing to 1; each family entry is a
    (member ids, diameter) pair.
    """

    measure: Mapping
    family: tuple  # tuple of (frozenset of ids, diameter)

    def __post_init__(self):
        total = sum(self.measure.values())
        if abs(float(total) - 1.0) > 1e-9:
            raise ValueError("measure must sum to 1")


def mass_distribution_bound(inp: MassDistributionInput, eps,
                            s_cap: float = HAUSDORFF_S_CAP) -> float:
    """Upper bound 2s on dim_H at scale eps by the mass distribution principle.

    Hypothesis: eps < 1/6 and every support point sits in a family set A with
    0 < diam A < eps/6 and mu(A) >= (diam A)^s.  Per point the least feasible
    s is log mu(A) / log diam(A) minimized over its sets; the returned s is
    the exact least value satisfying the hypothesis everywhere.
    """
    eps = float(eps)
    if not eps < 1 / 6:
        raise ValueError("the principle needs eps < 1/6")
    mass = {}
    for members, diam in inp.family:
        d = float(diam)
        if not (0 < d < eps / 6):
            continue
        mu = float(sum(inp.measure.get(p, 0) for p in members))
        if mu <= 0:
            continue
        need = 0.0 if mu >= 1 else math.log(mu) / math.log(d)
        for p in members:
            if p in inp.measure and inp.measure[p] > 0:
                cur = mass.get(p)
                if cur is None or need < cur:
                    mass[p] = need
    missing = [p for p, m in inp.measure.items() if m > 0 and p not in mass]
    if missing:
        raise HypothesisUnsatisfiable(
            f"no admissible set contains point(s) {missing[:3]}")
    s_star = max(mass.values())
    if s_star > s_cap:
        return 2.0 * s_cap
    return 2.0 * s_star
