"""Homogeneous torus systems: shift plus coordinatewise multiplication by b.

Systems are specified by digit subshifts on Z^d x N (rank d+1 specs whose
last axis is the digit depth), which makes invariance under both actions
automatic.  The probe checks the covering comparison between the plain
dynamical metric at scale eps and the product-action metric at scale
1/(2 c b), exactly, on truncated digit clouds.  Both distances come from
`metrics.ProductMetric` on torus coordinates: the plain one with the shifts
F_n, the product-action one with the shifts SF_n applied to each point's
scaled copies x b^j mod 1, j < N.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .groups import (FolnerDescriptor, GroupSpec, GroupWindow, minkowski_sum,
                     product_window)
from .metrics import (ProbeViolation, ProductMetric, WeightScheme,
                      circle_cover_count, separated_set, tail_support)
from .entropy import gxn_entropy_series
from .subshifts import SubshiftSpec, enumerate_patterns


@dataclass(frozen=True)
class HomogeneousSpec:
    """Base b >= 2, the digit subshift on Z^d x N, ambient weights on Z^d."""

    base: int
    digit_spec: SubshiftSpec
    weights: WeightScheme | None = None

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be >= 2")
        if self.digit_spec.rank < 2:
            raise ValueError("digit subshift lives on Z^d x N")
        if self.digit_spec.alphabet.size != self.base:
            raise ValueError("digit alphabet must be {0..b-1}")
        if self.weights is None:
            object.__setattr__(self, "weights",
                               WeightScheme(self.digit_spec.rank - 1,
                                            Fraction(1, 2**20)))

    @property
    def group_rank(self) -> int:
        return self.digit_spec.rank - 1


def homogeneous_gxn_entropy(spec: HomogeneousSpec, folner: FolnerDescriptor,
                            depths: Sequence[int]) -> dict:
    """Digit-window entropy series; the dimension prediction divides by log b."""
    series = gxn_entropy_series(spec.digit_spec, folner, depths)
    value = series.value
    return {"series": series, "entropy": value,
            "prediction": value / math.log(spec.base)}


# ---------------------------------------------------------------------------
# truncated digit clouds

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


def digit_cloud(spec: HomogeneousSpec, window: GroupWindow, depth: int,
                cap: int = 100_000) -> DigitCloud:
    pw = product_window(window, depth)
    ps = enumerate_patterns(spec.digit_spec, pw, cap)
    b = spec.base
    ncells = len(window)
    pts = []
    for p in ps.patterns:
        vals = []
        for g in range(ncells):
            acc = Fraction(0)
            for k in range(depth):
                acc += Fraction(p[g * depth + k], b ** (k + 1))
            vals.append(acc)
        pts.append(tuple(vals))
    return DigitCloud(window=window, depth=depth, base=spec.base,
                      points=tuple(pts))


def _digit_depth(base: int, eps: Fraction) -> int:
    """N >= 1 minimal with b^-N <= eps."""
    depth_n = 1
    while Fraction(1, base ** depth_n) > eps:
        depth_n += 1
    return depth_n


@dataclass(frozen=True)
class _ScaledOrbit:
    """d^{sigma,T} over orbit x {0..N-1}: the orbit metric maximized over
    the scaled copies x b^j mod 1, j < N, of each point.

    Its points are the per-point stacks of N scaled copies, built once, so it
    serves as its own cloud for `separated_set`.
    """

    metric: ProductMetric
    points: tuple

    @staticmethod
    def build(metric: ProductMetric, cloud: DigitCloud,
              depth_n: int) -> "_ScaledOrbit":
        mults = [cloud.base ** j for j in range(depth_n)]
        return _ScaledOrbit(metric, tuple(
            tuple(tuple((v * mult) % 1 for v in p) for mult in mults)
            for p in cloud.points))

    def interval(self, xs, ys) -> tuple:
        lo = hi = Fraction(0)
        for x, y in zip(xs, ys):
            x_lo, x_hi = self.metric.interval(x, y)
            lo, hi = max(lo, x_lo), max(hi, x_hi)
        return lo, hi


# Min-index greedy on the exact distance: metrics._greedy_cover is max-gain
# over hi-radius balls, a different count, and the report prints this one.
def _greedy_cover_count(points, metric, scale) -> int:
    remaining = set(range(len(points)))
    count = 0
    half = scale / 2
    while remaining:
        count += 1
        center = points[min(remaining)]
        remaining -= {j for j in remaining
                      if metric.interval(center, points[j])[0] <= half}
    return count


@dataclass(frozen=True)
class HomogeneousProbeRow:
    n_index: int
    eps: float
    depth_n: int
    cloud_size: int
    implication_ok: bool
    pairs_checked: int
    left_lower: int
    left_upper: int
    right_lower: int
    right_upper: int


def homogeneous_covering_probe(spec: HomogeneousSpec,
                               folner: FolnerDescriptor,
                               eps_list: Sequence,
                               extra_depth: int = 1,
                               cap: int = 4000) -> list[HomogeneousProbeRow]:
    """Exact pairwise verification of the covering comparison.

    With N chosen by b^-N <= eps < b^-N+1 and S the eps/2 tail support, every
    pair at product-metric distance below 1/(2 c b) over SF_n x {0..N-1} must
    sit within eps in the plain dynamical metric over F_n.  Any violating pair
    aborts with a witness; greedy covering counts on both sides are reported
    and their certified bounds must nest.
    """
    group = GroupSpec(spec.group_rank)
    weights = spec.weights
    c_total = weights.total_upper()
    rows = []
    for n in folner.indices:
        fwin = folner.window(n, group)
        for eps in eps_list:
            eps = Fraction(eps)
            depth_n = _digit_depth(spec.base, eps)
            support = tail_support(weights, eps, group)
            orbit_right = minkowski_sum(support, fwin)
            threshold = Fraction(1, 2 * c_total * spec.base)
            cloud = digit_cloud(spec, orbit_right, depth_n + extra_depth, cap)
            pts = cloud.points
            # pinned coordinates agree across the cloud and contribute zero
            left = ProductMetric(weights, cloud.window, "torus",
                                 shifts=fwin.elements)
            right = _ScaledOrbit.build(
                ProductMetric(weights, cloud.window, "torus",
                              shifts=orbit_right.elements), cloud, depth_n)
            stacks = right.points
            pairs = 0
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    pairs += 1
                    d_right = right.interval(stacks[i], stacks[j])[0]
                    if d_right < threshold:
                        d_left = left.interval(pts[i], pts[j])[0]
                        if not d_left < eps:
                            raise ProbeViolation(
                                f"pair {i},{j}: right distance {float(d_right):.6g} "
                                f"< {float(threshold):.6g} but left distance "
                                f"{float(d_left):.6g} >= eps {float(eps):.6g}")
            left_low = len(separated_set(cloud, left, eps))
            left_up = _greedy_cover_count(pts, left, eps)
            right_low = len(separated_set(right, right, threshold))
            right_up = _greedy_cover_count(stacks, right, threshold)
            if left_low > right_up:
                raise ProbeViolation(
                    f"certified counts crossed: left lower {left_low} > "
                    f"right upper {right_up}")
            rows.append(HomogeneousProbeRow(
                n_index=n, eps=float(eps), depth_n=depth_n,
                cloud_size=len(pts), implication_ok=True, pairs_checked=pairs,
                left_lower=left_low, left_upper=left_up,
                right_lower=right_low, right_upper=right_up))
    return rows


def homogeneous_slope_series(spec: HomogeneousSpec, eps_list: Sequence,
                             n_index: int = 1,
                             folner_family: str = "boxes") -> list[dict]:
    """Per-site slope of exact per-coordinate circle covers of the digit grid.

    For each coordinate of F_n the achievable values at depth N form a finite
    subset of the circle; the product of exact arc-cover counts bounds the
    covering number, and its slope tracks the G x N entropy prediction.
    """
    group = GroupSpec(spec.group_rank)
    folner = FolnerDescriptor(folner_family, (n_index,))
    fwin = folner.window(n_index, group)
    tail_slack = spec.weights.tail_upper(1)  # pinned coords beyond the window
    rows = []
    for eps in eps_list:
        eps = Fraction(eps)
        budget = eps / spec.weights.total_upper() - tail_slack
        if budget <= 0:
            raise ValueError("weights decay too slowly for this eps")
        depth_n = _digit_depth(spec.base, eps)
        cloud = digit_cloud(spec, fwin, depth_n + 1, 200_000)
        count = 1
        for g in range(len(fwin)):
            count *= circle_cover_count(sorted({p[g] for p in cloud.points}),
                                        budget)
        slope = math.log(count) / (len(fwin) * math.log(1 / float(eps)))
        rows.append({"eps": float(eps), "depth": depth_n, "count": count,
                     "slope": slope})
    return rows
