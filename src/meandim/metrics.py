"""Weighted product metrics, dynamical sup-metrics, exact 1-d cover and
separation sweeps and Hausdorff sums.

Distances on configuration spaces are reported as certified intervals
[lo, hi]: lo sums the weighted coordinate distances that the stored window
actually determines, hi adds the worst-case tail of the summable weight
family.  Separation counts consume lo, so every reported count is a
certified bound.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .groups import GroupSpec, GroupWindow, WindowCapExceeded, ball, word_length

HAUSDORFF_S_CAP = 64.0

# int64 holds an exact integer numerator below this magnitude
_INT64_LIMIT = 2 ** 63

COORD_DIAMETERS = {"unit": Fraction(1), "torus": Fraction(1, 2),
                   "kset": Fraction(1), "pair": Fraction(1)}


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


# ---------------------------------------------------------------------------
# separation

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


# ---------------------------------------------------------------------------
# 1-d exact covering and separation (line and circle)

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
    Fractions.  The reference for `homogeneous._circle_cover_codes`, which
    the slope series runs on integer codes.
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
