"""Self-similar systems driven by a symbolic Z-system.

Points are attractor values x = sum_k c^{k-1} H(omega^{(k)}), with H reading
a real value off each symbol.  The module builds exact spanning clouds by
iterating the affine contractions, certifies covering upper bounds through
net counts (the delta-net of the driving shift is the set of legal patterns
on an enlarged window, counted by the frontier DP of `count_patterns`), and
checks the contraction embedding exactly in rational arithmetic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iterproduct
from typing import Sequence

import numpy as np

from .groups import FolnerDescriptor, GroupWindow, ball, minkowski_sum
from .metrics import (PointCloud, ProbeViolation, ProductMetric,
                      WeightScheme, separated_set)
from .entropy import entropy_estimate, entropy_series
from .subshifts import SubshiftSpec, count_patterns, enumerate_patterns


class NetTooCoarse(RuntimeError):
    """No address word over the net reaches the requested ball."""


@dataclass(frozen=True)
class SelfSimilarSpec:
    """Driving subshift over Z, symbol values, contraction ratio, weights."""

    omega: SubshiftSpec
    values: tuple  # one Fraction per symbol
    c: Fraction
    weights: WeightScheme | None = None

    def __post_init__(self):
        object.__setattr__(self, "c", Fraction(self.c))
        object.__setattr__(self, "values",
                          tuple(Fraction(v) for v in self.values))
        if self.omega.rank != 1:
            raise ValueError("driving subshift lives over Z")
        if len(self.values) != self.omega.alphabet.size:
            raise ValueError("one value per symbol")
        if not (0 < self.c < 1):
            raise ValueError("contraction ratio must be in (0, 1)")
        if self.weights is None:
            object.__setattr__(self, "weights",
                               WeightScheme(1, Fraction(1, 4)))

    @property
    def value_range(self) -> Fraction:
        return max(self.values) - min(self.values)

    def diameter_upper(self) -> Fraction:
        """Certified diameter bound: coordinate span (max-min)/(1-c) times
        the summable weight total."""
        return self.value_range * self.weights.total_upper() / (1 - self.c)


def selfsimilar_upper_bound(spec: SelfSimilarSpec,
                            folner: FolnerDescriptor | None = None) -> dict:
    """h_top(driving shift) / log(1/c) with the entropy provenance attached."""
    folner = folner or FolnerDescriptor("boxes", (4, 8, 16))
    series = entropy_series(spec.omega, folner)
    est = entropy_estimate(series)
    h = est.best
    if est.empty_system or h == float("-inf"):
        h = 0.0
        provenance = "exact"
    else:
        provenance = ("certified-bound" if est.certified_upper is not None
                      else "estimate")
    return {"bound": h / math.log(1 / float(spec.c)), "entropy": h,
            "entropy_provenance": provenance}


# ---------------------------------------------------------------------------
# nets and spanning clouds

def net_radius(spec: SelfSimilarSpec, eps: Fraction) -> int:
    """Smallest r so patterns agreeing on F + ball(r) keep the address images
    within (1-c) eps / 6 of each other in every shifted distance."""
    target = (1 - spec.c) * Fraction(eps) / 6
    r = 0
    while spec.value_range * spec.weights.tail_upper(r + 1) >= target:
        r += 1
        if r > 10**6:
            raise RuntimeError("net radius diverged; weights decay too slowly")
    return r


def composition_depth(spec: SelfSimilarSpec, eps: Fraction) -> int:
    """Smallest m with D c^m < eps/6, by exact rational comparison."""
    d_up = spec.diameter_upper()
    m = 0
    power = Fraction(1)
    while d_up * power >= Fraction(eps) / 6:
        m += 1
        power *= spec.c
    return m


@dataclass(frozen=True)
class AddressedCloud:
    """Spanning cloud with the address word of every point retained."""

    cloud: PointCloud
    addresses: tuple  # tuple of pattern tuples, outermost map first
    base_point: tuple


def selfsimilar_spanning_cloud(spec: SelfSimilarSpec, m: int,
                               net_patterns: Sequence[bytes],
                               window: GroupWindow,
                               base_point: tuple | None = None,
                               cap: int = 200_000) -> AddressedCloud:
    """All compositions S_{w_1} o ... o S_{w_m}(p) over the net, evaluated
    exactly: the point is c^m p + sum_i c^{i-1} H(w_i) coordinatewise."""
    if base_point is None:
        base_point = tuple(Fraction(0) for _ in window.elements)
    total = len(net_patterns) ** m
    if total > cap:
        raise RuntimeError(f"spanning cloud of {total} points exceeds cap {cap}")
    vals = spec.values
    h_vectors = [tuple(vals[p[i]] for i in range(len(window)))
                 for p in net_patterns]
    points = []
    addresses = []
    for combo in iterproduct(range(len(net_patterns)), repeat=m):
        x = list(base_point)
        for idx in reversed(combo):
            h = h_vectors[idx]
            for g in range(len(x)):
                x[g] = spec.c * x[g] + h[g]
        points.append(tuple(x))
        addresses.append(tuple(net_patterns[i] for i in combo))
    cloud = PointCloud(window=window, kind="unit", points=tuple(points))
    return AddressedCloud(cloud=cloud, addresses=tuple(addresses),
                          base_point=base_point)


# ---------------------------------------------------------------------------
# covering probe

_GEOMETRIC_NET_CAP = 512  # largest net the geometric lower bound composes


def _net(spec: SelfSimilarSpec, orbit: GroupWindow, r: int) -> tuple:
    """(window, count): the radius-r net window F + ball(r) of an orbit and
    the number of legal patterns on it."""
    window = minkowski_sum(orbit, ball(r, orbit.spec))
    return window, count_patterns(spec.omega, window)


def selfsimilar_cover_probe(spec: SelfSimilarSpec, eps_grid: Sequence,
                            orbit_windows: Sequence[GroupWindow],
                            slack: float = 0.05,
                            geometric_cap: int = 4000,
                            enforce_slope: bool = True) -> dict:
    """Covering estimates against the entropy bound.

    Per (window, eps) the certified upper bound is the net count to the power
    of the composition depth: the net spans the driving system at the scale
    that makes the composed images an eps/3 spanning set, so the covering
    number at eps is at most |net|^m.  The per-site slope regresses the upper
    log-counts on log(1/eps) and must stay below the entropy bound plus slack.
    Small instances also get geometric separated-set lower bounds from an
    explicit spanning cloud, which must stay below the upper counts; rows
    without one carry `geometric_lower_skipped` with the reason.  Each net
    is built and counted once per orbit, whatever the grid length.
    """
    bound = selfsimilar_upper_bound(spec)["bound"]
    eps_grid = [Fraction(e) for e in eps_grid]
    if len(eps_grid) < 2 or any(e <= f for e, f in zip(eps_grid, eps_grid[1:])):
        raise ValueError("eps grid needs at least two strictly decreasing "
                         "values to fit a slope")
    report_rows = []
    slopes = {}
    # one net for the whole grid, built at the finest scale: a finer net
    # spans at every coarser scale, and a fixed net keeps the slope free of
    # boundary growth
    r = net_radius(spec, min(eps_grid))
    for orbit in orbit_windows:
        xs, ys = [], []
        net_win, net_count = _net(spec, orbit, r)
        geometric = _geometric_net(spec, orbit,
                                   (net_win, net_count) if r == 1 else None)
        for eps in eps_grid:
            m = composition_depth(spec, eps)
            log_upper = m * math.log(net_count) if net_count else float("-inf")
            per_site = log_upper / len(orbit)
            row = {"window": len(orbit), "eps": float(eps), "net_radius": r,
                   "depth": m, "net_count": net_count, "log_upper": log_upper,
                   "per_site_upper": per_site,
                   "normalized": per_site / math.log(1 / float(eps))}
            if isinstance(geometric, str):
                row["geometric_lower_skipped"] = geometric
            else:
                lower = _geometric_lower(spec, geometric, eps, geometric_cap)
                row["geometric_lower"] = lower
                if net_count and math.log(max(lower, 1)) > log_upper + 1e-9:
                    raise ProbeViolation(
                        f"geometric lower {lower} exceeds net upper at eps={eps}")
            report_rows.append(row)
            xs.append(math.log(1 / float(eps)))
            ys.append(log_upper)
        slope = float(np.polyfit(xs, ys, 1)[0]) / len(orbit)
        slopes[len(orbit)] = slope
        # tiny diagnostic windows carry a boundary term 2r/|F| that swamps
        # the per-site normalization; enforcement is for production windows
        if enforce_slope and slope > bound + slack:
            raise ProbeViolation(
                f"slope {slope:.4f} exceeds bound {bound:.4f} + {slack} "
                f"on window of size {len(orbit)}")
    return {"bound": bound, "slack": slack, "rows": report_rows,
            "slopes": slopes}


def _constant_zero_legal(spec: SelfSimilarSpec) -> bool:
    rule = spec.omega.rule
    if rule.forbidden:
        return False
    if not rule.symbol_ok(0):
        return False
    mat = rule.matrix_for_axis(0)
    return mat is None or mat[0][0]


def _geometric_net(spec: SelfSimilarSpec, orbit: GroupWindow,
                   net1: tuple | None) -> tuple | str:
    """(patterns, window, metric): the orbit's radius-1 net, enumerated, with
    its dynamical metric, which is all of `_geometric_lower` that does not
    depend on eps; or the reason the geometric lower bound is skipped.
    `net1` is the (window, count) of that net when the caller has it."""
    if not _constant_zero_legal(spec):
        return "constant zero not legal"
    window, count = net1 or _net(spec, orbit, 1)
    if count > _GEOMETRIC_NET_CAP:
        return f"net above {_GEOMETRIC_NET_CAP} patterns"
    patterns = enumerate_patterns(spec.omega, window,
                                  cap=_GEOMETRIC_NET_CAP).patterns
    return patterns, window, ProductMetric(spec.weights, window, "unit",
                                           shifts=tuple(orbit.elements))


def _geometric_lower(spec: SelfSimilarSpec, net: tuple, eps: Fraction,
                     cap: int) -> int:
    """Separated-set size of a small exact point subset of the attractor.

    The cloud anchors at the all-zero fixed point and composes legal net
    patterns (the all-zero pattern among them, so the net is never empty),
    so its points lie in the attractor (shipped rule classes have every
    window pattern globally extendable); any eps-separated subset then
    lower-bounds the true covering number.  Depth adapts to the cap.
    """
    patterns, window, metric = net
    depth = composition_depth(spec, eps)
    while len(patterns) ** depth > cap and depth > 1:
        depth -= 1
    addressed = selfsimilar_spanning_cloud(spec, depth, patterns, window,
                                           cap=cap)
    return len(separated_set(addressed.cloud, metric, eps))


# ---------------------------------------------------------------------------
# contraction embedding

def embedding_depth(spec: SelfSimilarSpec, eps: Fraction) -> int:
    """k >= 1 minimal with c^k D <= eps; eps >= D degenerates to k = 1."""
    d_up = spec.diameter_upper()
    eps = Fraction(eps)
    k = 1
    power = spec.c
    while power * d_up > eps:
        k += 1
        power *= spec.c
    return k


def contraction_embedding_check(spec: SelfSimilarSpec, cloud: AddressedCloud,
                                target_index: int, eps,
                                sample_pairs: Sequence[tuple]) -> dict:
    """Build phi = S_{w_1} o ... o S_{w_k} landing in the eps-ball around the
    target point and verify the exact similarity d(phi x, phi y) = c^k d(x, y).

    The address word comes from the target's stored digits; a cloud that is
    too shallow to supply k digits is reported as a net-too-coarse failure.
    The similarity check is exact on the windowed weighted distance, and
    c^k > c eps / D is checked in rationals.
    """
    eps = Fraction(eps)
    k = embedding_depth(spec, eps)
    address = cloud.addresses[target_index]
    if len(address) < k:
        raise NetTooCoarse(
            f"need an address word of length {k}, cloud depth is {len(address)}")
    word = address[:k]
    window = cloud.cloud.window
    vals = spec.values
    c = spec.c

    def phi(x: tuple) -> tuple:
        out = list(x)
        for pat in reversed(word):
            for g in range(len(out)):
                out[g] = c * out[g] + vals[pat[g]]
        return tuple(out)

    def windowed_distance(x, y) -> Fraction:
        return sum(spec.weights.weight(g) * abs(a - b)
                   for g, a, b in zip(window.elements, x, y))

    ck = c ** k
    checks = []
    for x, y in sample_pairs:
        lhs = windowed_distance(phi(x), phi(y))
        rhs = ck * windowed_distance(x, y)
        if lhs != rhs:
            raise AssertionError(
                f"similarity broke: d(phi x, phi y) = {lhs} != c^k d(x,y) = {rhs}")
        checks.append((float(lhs), float(rhs)))
    ratio_ok = ck > c * eps / spec.diameter_upper()
    if not ratio_ok:
        raise AssertionError("contraction ratio bound c^k > c eps / D failed")
    target = cloud.cloud.points[target_index]
    image = phi(cloud.base_point)
    dist_to_target = windowed_distance(image, target)
    ball_slack = ck * spec.diameter_upper()
    return {"k": k, "ratio": float(ck), "pairs_checked": len(checks),
            "distance_to_target": float(dist_to_target),
            "inside_ball": dist_to_target <= min(eps, ball_slack),
            "ratio_bound_ok": ratio_ok}
