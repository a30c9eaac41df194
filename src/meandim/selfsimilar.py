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
from fractions import Fraction
from itertools import product as iterproduct
from typing import Sequence

import numpy as np

from . import metrics
from ._record import Record
from .groups import (CapExceeded, Caps, FolnerDescriptor, GroupWindow,
                     NetTooCoarse, ball, minkowski_sum)
from .metrics import PointCloud, ProbeViolation, WeightScheme, least_radius
from .entropy import entropy_estimate, entropy_series
from .subshifts import SubshiftSpec, count_patterns


# the windows of the entropy bound and the probe's allowance over it
BOUND_FOLNER = FolnerDescriptor("boxes", (4, 8, 16))
PROBE_SLACK = 0.05


class SelfSimilarSpec(Record):
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
            raise ValueError("contraction ratio needs 0 < c < 1")
        if not _log_inverse(self.c):
            raise ValueError(f"contraction ratio {self.c} is so near 1 that "
                             "log(1/c) rounds to 0")
        if self.weights is None:
            object.__setattr__(self, "weights",
                               WeightScheme(1, Fraction(1, 4)))
        elif self.weights.rank != 1:
            raise ValueError("weights rank must match the group rank")

    @property
    def value_range(self) -> Fraction:
        return max(self.values) - min(self.values)

    def diameter_upper(self) -> Fraction:
        """Certified diameter bound: coordinate span (max-min)/(1-c) times
        the summable weight total."""
        return self.value_range * self.weights.total_upper() / (1 - self.c)


def selfsimilar_upper_bound(spec: SelfSimilarSpec,
                            caps: Caps = Caps()) -> dict:
    """h_top(driving shift) / log(1/c) with the entropy provenance attached;
    the entropy is counted on the BOUND_FOLNER boxes."""
    est = entropy_estimate(entropy_series(spec.omega, BOUND_FOLNER, caps))
    if est.empty_system:
        return {"bound": 0.0, "entropy": 0.0, "entropy_provenance": "exact"}
    return {"bound": est.best / _log_inverse(spec.c),
            "entropy": est.best, "entropy_provenance": est.provenance}


# ---------------------------------------------------------------------------
# nets and spanning clouds

def net_radius(spec: SelfSimilarSpec, eps: Fraction) -> int:
    """Smallest r so patterns agreeing on F + ball(r) keep the address images
    within (1-c) eps / 6 of each other in every shifted distance."""
    target = (1 - spec.c) * Fraction(eps) / 6
    span = spec.value_range
    return least_radius(lambda r: span * spec.weights.tail_upper(r + 1)
                        < target, f"net of rho {spec.weights.rho}")


def _log(q: Fraction) -> float:
    """log q for a rational q > 0, also where its float would under- or
    overflow."""
    return math.log(q.numerator) - math.log(q.denominator)


def _log_inverse(c: Fraction) -> float:
    """log(1/c) for 0 < c < 1, as the log of 1 / float(c) where float(c)
    is neither 0 nor 1.  Where it is 0, -log c from c's numerator and
    denominator; where it is 1, log1p((1 - c)/c), since there the logs of
    the numerator and the denominator agree in floating point too.  That
    rounds to 0 only within about 5e-324 of 1."""
    x = float(c)
    if x == 0:
        return -_log(c)
    return math.log1p(float((1 - c) / c)) if x == 1 else math.log(1 / x)


def _least_power(c: Fraction, offset: int, holds, guess: int | None,
                 subject: str) -> int:
    """The least r >= 0 with holds(c ** (r + offset)), for a test that stays
    true once true, started from a float guess at r.  A guess that the
    exact test confirms at r and r - 1 is the answer after one power, where
    `least_radius` takes about 2 log2 r of them, each of up to a million
    digits for c near 1.  Any other guess falls back to that search, so a
    float error costs time, never the answer.  No guess (None), as for a c
    so near 1 that its float log rounds to 0, or a guess past the radius
    cap lets the search decide, and raise the cap.  But where Bernoulli's
    1 - k (1 - c) <= c^k, at k = RADIUS_CAP + offset, already fails the
    test, so does every power up to the cap, and the cap is raised at once:
    for c within about 1e-6 of 1 the search would take powers of millions
    of digits to find that out."""
    cap = metrics.RADIUS_CAP
    low = 1 - (cap + offset) * (1 - c)
    if low > 0 and not holds(low):
        raise CapExceeded("radius", cap, subject, f"radius >= {cap + 1}")
    if guess is not None and guess <= cap:
        below = c ** (guess + offset - 1)
        if holds(below * c) and (guess == 0 or not holds(below)):
            return guess
    return least_radius(lambda r: holds(c ** (r + offset)), subject)


def composition_depth(spec: SelfSimilarSpec, eps: Fraction) -> int:
    """Smallest m with D c^m < eps/6, by exact rational comparison."""
    d_up, target = spec.diameter_upper(), Fraction(eps) / 6
    # the least m > log(target / D) / log c, where log c rounds below 0
    guess, log_c = None, _log(spec.c)
    if d_up > 0 and target > 0 and log_c < 0:
        guess = max(0, math.floor((_log(target) - _log(d_up)) / log_c) + 1)
    return _least_power(spec.c, 0, lambda p: d_up * p < target, guess,
                        f"composition depth of c {spec.c}")


class AddressedCloud(Record):
    """Spanning cloud with the address word of every point retained."""

    cloud: PointCloud
    addresses: tuple  # tuple of pattern tuples, outermost map first
    base_point: tuple


def _compose(spec: SelfSimilarSpec, word: Sequence[bytes], x: tuple) -> tuple:
    """S_{w_1} o ... o S_{w_k}(x) for the word w_1 ... w_k of patterns,
    outermost map first: S_w(x) = c x + H(w) cellwise, in exact Fractions."""
    c, vals = spec.c, spec.values
    out = list(x)
    for pat in reversed(word):
        for g in range(len(out)):
            out[g] = c * out[g] + vals[pat[g]]
    return tuple(out)


def selfsimilar_spanning_cloud(spec: SelfSimilarSpec, m: int,
                               net_patterns: Sequence[bytes],
                               window: GroupWindow,
                               caps: Caps = Caps()) -> AddressedCloud:
    """All compositions S_{w_1} o ... o S_{w_m}(0) over the net, evaluated
    exactly: the point is sum_i c^{i-1} H(w_i) coordinatewise."""
    base_point = tuple(Fraction(0) for _ in window.elements)
    total = len(net_patterns) ** m
    if total > caps.cloud:
        raise CapExceeded("cloud", caps.cloud, f"spanning cloud of depth {m}",
                          f"{total} points")
    addresses = tuple(iterproduct(net_patterns, repeat=m))
    points = tuple(_compose(spec, word, base_point) for word in addresses)
    return AddressedCloud(cloud=PointCloud(window, "unit", points),
                          addresses=addresses, base_point=base_point)


# ---------------------------------------------------------------------------
# covering probe

def selfsimilar_cover_probe(spec: SelfSimilarSpec, eps_grid: Sequence,
                            orbit_windows: Sequence[GroupWindow],
                            caps: Caps = Caps()) -> dict:
    """Covering estimates against the entropy bound.

    Per (window, eps) the certified upper bound is the net count to the power
    of the composition depth: the net spans the driving system at the scale
    that makes the composed images an eps/3 spanning set, so the covering
    number at eps is at most |net|^m.  The per-site slope regresses the upper
    log-counts on log(1/eps); a window whose slope exceeds the entropy bound
    plus PROBE_SLACK raises ProbeViolation.  Each net is built and counted
    once per orbit, whatever the grid length.
    """
    bound = selfsimilar_upper_bound(spec, caps)["bound"]
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
    xs = [_log_inverse(eps) for eps in eps_grid]
    for orbit in orbit_windows:
        net = minkowski_sum(orbit, ball(r, orbit.spec, caps.cells), caps.cells)
        net_count = count_patterns(spec.omega, net, caps.patterns)
        if not net_count:
            # an empty driving system is covered by no set at all: every
            # slope is 0.0, as its bound, and no row has a finite log
            return {"empty_system": True, "bound": 0.0, "slack": PROBE_SLACK,
                    "rows": [], "slopes": {len(o): 0.0 for o in orbit_windows}}
        rows = []
        for eps, x in zip(eps_grid, xs):
            m = composition_depth(spec, eps)
            log_upper = m * math.log(net_count)
            per_site = log_upper / len(orbit)
            rows.append({"window": len(orbit), "eps": float(eps),
                         "net_radius": r, "depth": m, "net_count": net_count,
                         "log_upper": log_upper, "per_site_upper": per_site,
                         "normalized": per_site / x})
        ys = [row["log_upper"] for row in rows]
        slope = float(np.polyfit(xs, ys, 1)[0]) / len(orbit)
        slopes[len(orbit)] = slope
        # small windows carry a boundary term of about 2r/|F| that swamps
        # the per-site normalization, so they fail here
        if slope > bound + PROBE_SLACK:
            raise ProbeViolation(
                f"slope {slope:.4f} exceeds bound {bound:.4f} + {PROBE_SLACK} "
                f"on window of size {len(orbit)}")
        report_rows += rows
    return {"bound": bound, "slack": PROBE_SLACK, "rows": report_rows,
            "slopes": slopes}


# ---------------------------------------------------------------------------
# contraction embedding

def embedding_depth(spec: SelfSimilarSpec, eps: Fraction) -> int:
    """k >= 1 minimal with c^k D <= eps; eps >= D degenerates to k = 1."""
    d_up, eps = spec.diameter_upper(), Fraction(eps)
    # the least r with r + 1 >= log(eps / D) / log c, where log c rounds
    # below 0
    guess, log_c = None, _log(spec.c)
    if d_up > 0 and eps > 0 and log_c < 0:
        guess = max(0, math.ceil((_log(eps) - _log(d_up)) / log_c) - 1)
    return 1 + _least_power(spec.c, 1, lambda p: p * d_up <= eps, guess,
                            f"embedding depth of c {spec.c}")


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
    c = spec.c

    def windowed_distance(x, y) -> Fraction:
        return sum(spec.weights.weight(g) * abs(a - b)
                   for g, a, b in zip(window.elements, x, y))

    ck = c ** k
    checks = []
    for x, y in sample_pairs:
        lhs = windowed_distance(_compose(spec, word, x),
                                _compose(spec, word, y))
        rhs = ck * windowed_distance(x, y)
        if lhs != rhs:
            raise AssertionError(
                f"similarity broke: d(phi x, phi y) = {lhs} != c^k d(x,y) = {rhs}")
        checks.append((float(lhs), float(rhs)))
    ratio_ok = ck > c * eps / spec.diameter_upper()
    if not ratio_ok:
        raise AssertionError("contraction ratio bound c^k > c eps / D failed")
    target = cloud.cloud.points[target_index]
    image = _compose(spec, word, cloud.base_point)
    dist_to_target = windowed_distance(image, target)
    ball_slack = ck * spec.diameter_upper()
    return {"k": k, "ratio": float(ck), "pairs_checked": len(checks),
            "distance_to_target": float(dist_to_target),
            "inside_ball": dist_to_target <= min(eps, ball_slack),
            "ratio_bound_ok": ratio_ok}
