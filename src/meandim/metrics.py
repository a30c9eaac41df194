"""Weighted product metrics and dynamical sup-metrics.

Distances on configuration spaces are reported as certified intervals
[lo, hi]: lo sums the weighted coordinate distances that the stored window
actually determines, hi adds the worst-case tail of the summable weight
family.  Separation counts consume lo, so every reported count is a
certified bound.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .groups import (DEFAULT_CELL_CAP, CapExceeded, GroupSpec, GroupWindow,
                     ball, word_length)

# int64 holds an exact integer numerator below this magnitude
_INT64_LIMIT = 2 ** 63
# the radius guard of every least-index search (see `least_radius`)
RADIUS_CAP = 10**6

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


def seeded_random(seed: int) -> random.Random:
    """The generator of a seeded sampler: the stdlib Mersenne Twister, which
    `import meandim` already loads, where numpy.random would be one more
    import inside the run.  Seeds must be non-negative, as numpy's are;
    `random.Random` would read -s as s."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    return random.Random(seed)


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

    Tail sums are exact for every rank: the sum over all of Z^rank is
    ((1 + rho) / (1 - rho))^rank, one geometric series per coordinate.
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
        """The exact sum of alpha_g over word length >= r."""
        rho = self.rho
        if r >= 1 and self.rank == 1:
            return 2 * rho ** r / (1 - rho)
        if r >= 1 and self.rank == 2:
            # 4 * sum_{n>=r} n rho^n, arithmetico-geometric closed form
            return 4 * rho ** r * (r - (r - 1) * rho) / (1 - rho) ** 2
        return (((1 + rho) / (1 - rho)) ** self.rank
                - sum(sphere_size(self.rank, n) * rho ** n for n in range(r)))

    def total_upper(self) -> Fraction:
        return self.tail_upper(0)


def least_radius(reaches, subject: str, cap: int = RADIUS_CAP) -> int:
    """The least r >= 0 with reaches(r), for a test that stays true once
    true (a tail below a bound), by doubling r = 0, 1, 3, 7, ... and then
    bisection; a least radius past `cap` raises the radius cap.

    It is the one least-index search of the library: the tail supports and
    the self-similar net radii, the digit depth of homogeneous sets, the
    composition and embedding depths of self-similar sets and the carpets'
    floor(l log_a b) are each one call with an exact test."""
    lo, hi = -1, 0  # reaches(lo) is false; -1 stands below radius 0
    while not reaches(hi):
        if hi >= cap:
            raise CapExceeded("radius", cap, subject, f"radius >= {cap + 1}")
        lo, hi = hi, min(2 * hi + 1, cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if reaches(mid) else (mid, hi)
    return hi


def tail_support(scheme: WeightScheme, eps, spec: GroupSpec | None = None,
                 cap: int = DEFAULT_CELL_CAP) -> GroupWindow:
    """Smallest ball S with certified tail sum over the complement < eps/2;
    `RADIUS_CAP`, read at call time, bounds its radius and `cap` its
    cells."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    half = Fraction(eps) / 2
    r = least_radius(lambda r: scheme.tail_upper(r + 1) < half,
                     f"tail support of rho {scheme.rho}", RADIUS_CAP)
    return ball(r, spec or GroupSpec(scheme.rank), cap)


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


# no CLI path uses it; kept while perfbench/layers.py traces its interval
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
