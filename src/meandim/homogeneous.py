"""Homogeneous torus systems: shift plus coordinatewise multiplication by b.

Systems are specified by digit subshifts on Z^d x N (rank d+1 specs whose
last axis is the digit depth), which makes invariance under both actions
automatic.  The probe checks the covering comparison between the plain
dynamical metric at scale eps and the product-action metric at scale
1/(2 c b), exactly, on truncated digit clouds.  A cloud point of depth L is a
code over B = b^L and the weights rho^n share a denominator Q, so both
distances are exact integer numerators over B Q: the plain one with the
shifts F_n, the product-action one with the shifts SF_n over each point's
scaled copies x b^j mod 1, j < N (codes c b^j mod B).  Torus distances are
min(d mod B, B - d mod B); eps, the threshold and the cover radii are
integer bounds.  Each block of pair rows is computed once, checks the
implication and advances the greedy walks that count both sides' separated
sets and covers.
The Fraction references of both distances are in `tests/oracles.py`.
"""
from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Sequence

import numpy as np

from ._record import Record
from .groups import (CapExceeded, Caps, FolnerDescriptor, GroupSpec,
                     GroupWindow, box, minkowski_sum, product_window)
from .metrics import (ProbeViolation, WeightScheme, exact_int_dtype,
                      least_radius, tail_support)
from .entropy import gxn_entropy_series
from .subshifts import SubshiftSpec, enumerate_patterns

PAIR_CLOUD_CAP = 4000  # points of a pairwise probe cloud; caps only lower it
EXTRA_DEPTH = 1  # digits the probe cloud carries past the depth N
_PAIR_BLOCK = 1 << 16  # torus differences per broadcast of the pair rows


class HomogeneousSpec(Record):
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
                               WeightScheme(self.group_rank,
                                            Fraction(1, 2**20)))
        elif self.weights.rank != self.group_rank:
            raise ValueError("weights rank must match the group rank")

    @property
    def group_rank(self) -> int:
        return self.digit_spec.rank - 1


def homogeneous_gxn_entropy(spec: HomogeneousSpec, folner: FolnerDescriptor,
                            depths: Sequence[int], caps: Caps = Caps()) -> dict:
    """Digit-window entropy series; the dimension prediction divides by log b.
    An empty digit system has entropy and prediction 0.0, as the
    self-similar bound of an empty driving system does."""
    series = gxn_entropy_series(spec.digit_spec, folner, depths, caps)
    value = 0.0 if series.empty_system else series.value
    return {"series": series, "entropy": value,
            "prediction": value / math.log(spec.base)}


# ---------------------------------------------------------------------------
# truncated digit clouds

def _digit_codes(spec: HomogeneousSpec, window: GroupWindow, depth: int,
                 points: int, caps: Caps) -> list:
    """The cloud's points as integer codes over b^depth: per window cell, the
    cell's digits read as one base-b numeral, first digit most significant.
    One point per digit pattern, so the enumeration stops at the smaller of
    `points` and the pattern cap, and the error names that one."""
    digits = product_window(window, depth, caps.cells)
    try:
        ps = enumerate_patterns(spec.digit_spec, digits,
                                min(points, caps.patterns))
    except CapExceeded:
        if caps.patterns < points:
            raise
        raise CapExceeded("cloud", points, f"digit cloud of depth {depth}",
                          f">= {points + 1} points") from None
    powers = [spec.base ** k for k in reversed(range(depth))]
    return [[sum(map(mul, p[g:g + depth], powers))
             for g in range(0, len(p), depth)] for p in ps.patterns]


def _digit_depth(base: int, eps: Fraction) -> int:
    """N >= 1 minimal with b^-N <= eps."""
    return 1 + least_radius(lambda r: Fraction(1, base ** (r + 1)) <= eps,
                            f"digit depth of base {base}")


def _shift_weights(scheme: WeightScheme, window: GroupWindow,
                   shifts) -> list:
    """alpha_{c - g} per shift g (rows) and window cell c (columns), as
    `ProductMetric` weighs the torus coordinates."""
    return [[scheme.weight(tuple(c - s for c, s in zip(cell, g)))
             for cell in window.elements] for g in shifts]


def _pair_rows(spec: HomogeneousSpec, fwin: GroupWindow, orbit: GroupWindow,
               depth: int, depth_n: int, points: int, caps: Caps) -> tuple:
    """(size, den, blocks): blocks yields (i0, left, right) per block of rows
    of the depth-`depth` digit cloud on `orbit`, where left[r, c] and
    right[r, c] are the distances from point i0 + r to point i0 + c as
    integer numerators over den = B Q, for codes over B = b^depth and
    weights over their common denominator Q.  Left is the plain metric with
    the shifts F_n; right is the product-action metric with the shifts
    `orbit`, maximized over each point's N = depth_n scaled copies
    x b^j mod 1.  A block holds about _PAIR_BLOCK torus differences, one
    broadcast over its rows, copies and window cells; the weighted sums of a
    copy are one matrix product with a row per shift and a column per pair,
    so the maxima over shifts and copies run over a leading axis, one
    elementwise maximum per shift and copy."""
    modulus = spec.base ** depth
    codes = _digit_codes(spec, orbit, depth, points, caps)
    left_w = _shift_weights(spec.weights, orbit, fwin.elements)
    right_w = _shift_weights(spec.weights, orbit, orbit.elements)
    q = math.lcm(*(w.denominator for row in left_w + right_w for w in row))
    dtype = exact_int_dtype(len(orbit) * modulus * q)
    # copy j of a point: its codes times b^j mod B; copy 0 is the point.
    # One contiguous row of the n points per copy and window cell.
    cols = np.array([[[p[g] * spec.base ** j % modulus for p in codes]
                      for g in range(len(orbit))] for j in range(depth_n)],
                    dtype=dtype)
    left_w, right_w = (np.array([[int(w * q) for w in row] for row in ws],
                                dtype=dtype) for ws in (left_w, right_w))
    n = len(codes)
    rows = max(1, _PAIR_BLOCK // max(1, n * depth_n * len(orbit)))

    def blocks():
        for i0 in range(0, n, rows):
            i1 = min(i0 + rows, n)
            d = np.remainder(cols[:, :, i0:i1, None] - cols[:, :, None, i0:],
                             modulus)
            np.minimum(d, modulus - d, out=d)
            d = d.reshape(depth_n, len(orbit), -1)
            shape = (i1 - i0, n - i0)
            yield (i0, (left_w @ d[0]).max(axis=0).reshape(shape),
                   (right_w @ d).reshape(-1, d.shape[2]).max(axis=0)
                   .reshape(shape))

    return n, modulus * q, blocks()


def _greedy_counts(blocks, size: int, walks) -> list:
    """One count per walk (side, bound) over blocks (i0, *sides) of rows
    that arrive in index order, sides[side][r, c] the distance from point
    i0 + r to point i0 + c: pick the least remaining index, drop every point
    within distance <= bound of it on that side.  Walks only drop indices,
    so a walk that still holds i when row i arrives picks it, as a walk on
    the whole table would, and indices below i0 are settled before block
    i0 arrives.  With bound a cover's radius this counts the min-index
    greedy cover; with bound e - 1 the greedy e-separated set in index
    order (d >= e iff d > e - 1)."""
    remaining = np.ones((len(walks), size), dtype=bool)
    counts = [0] * len(walks)
    for i0, *sides in blocks:
        far = [sides[side] > bound for side, bound in walks]
        for r in range(len(sides[0])):
            for w, kept in enumerate(remaining):
                if kept[i0 + r]:
                    counts[w] += 1
                    kept[i0:] &= far[w][r]
    return counts


def _implication_checked(blocks, eps: Fraction, threshold: Fraction, den):
    """The blocks (i0, left, right) passed on, each checked first with one
    masked test: every pair i < j at right distance < threshold must sit at
    left distance < eps.  The first violating pair in row-major order
    aborts with a witness."""
    eps_num = math.ceil(eps * den)  # d < eps iff num < eps_num
    threshold_num = math.ceil(threshold * den)
    for i0, left, right in blocks:
        later = np.arange(left.shape[1]) > np.arange(len(left))[:, None]
        bad = (right < threshold_num) & (left >= eps_num) & later
        if bad.any():
            r, c = (int(v) for v in np.argwhere(bad)[0])
            d_left, d_right = (Fraction(int(side[r, c]), den)
                               for side in (left, right))
            raise ProbeViolation(
                f"pair {i0 + r},{i0 + c}: right distance "
                f"{float(d_right):.6g} < {float(threshold):.6g} but left "
                f"distance {float(d_left):.6g} >= eps {float(eps):.6g}")
        yield i0, left, right


class HomogeneousProbeRow(Record):
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
                               caps: Caps = Caps()) -> list[HomogeneousProbeRow]:
    """Exact pairwise verification of the covering comparison.

    With N chosen by b^-N <= eps < b^-N+1 and S the eps/2 tail support, every
    pair at product-metric distance below 1/(2 c b) over SF_n x {0..N-1} must
    sit within eps in the plain dynamical metric over F_n.  Any violating pair
    aborts with a witness.  Each side reports a greedy separated-set count
    (lower) and a greedy cover count (upper), and the left lower count must
    not exceed the right upper one.  One pass over the pair rows checks the
    implication and advances all four greedy walks, never an n x n table.
    """
    group = GroupSpec(spec.group_rank)
    threshold = Fraction(1, 2 * spec.weights.total_upper() * spec.base)
    points = min(PAIR_CLOUD_CAP, caps.cloud)
    rows = []
    for n in folner.indices:
        fwin = folner.window(n, group, caps.cells)
        for eps in eps_list:
            eps = Fraction(eps)
            depth_n = _digit_depth(spec.base, eps)
            orbit = minkowski_sum(tail_support(spec.weights, eps, caps.cells),
                                  fwin, caps.cells)
            size, den, pair_rows = _pair_rows(
                spec, fwin, orbit, depth_n + EXTRA_DEPTH, depth_n, points,
                caps)
            # per side its separation, then its cover radius, as integer bounds
            walks = [(side, bound)
                     for side, scale in enumerate((eps, threshold))
                     for bound in (math.ceil(scale * den) - 1,
                                   math.floor(scale * den / 2))]
            left_low, left_up, right_low, right_up = _greedy_counts(
                _implication_checked(pair_rows, eps, threshold, den), size,
                walks)
            if left_low > right_up:
                raise ProbeViolation(
                    f"certified counts crossed: left lower {left_low} > "
                    f"right upper {right_up}")
            rows.append(HomogeneousProbeRow(
                n_index=n, eps=float(eps), depth_n=depth_n,
                cloud_size=size, implication_ok=True,
                pairs_checked=size * (size - 1) // 2,
                left_lower=left_low, left_upper=left_up,
                right_lower=right_low, right_upper=right_up))
    return rows


def _circle_cover_codes(codes, modulus: int, budget: Fraction) -> int:
    """Minimum number of arcs of diameter < budget covering the points
    codes / modulus of the unit circle: `circle_cover_count` of
    `tests/oracles.py` on integer codes.

    With budget = p/q an arc from code c reaches every later code c' with
    (c' - c) q < p modulus, that is c' - c < L = ceil(p modulus / q).  On
    the sorted distinct codes, doubled as c + modulus, nxt[i] is the first
    index past the arc that starts at i; the greedy cover from start s
    jumps nxt until it passes s + n, and the jump counts for all n starts
    come from nxt composed with itself (doubling), O(n log n).
    """
    codes = sorted({c % modulus for c in codes})
    n = len(codes)
    if n <= 1:
        return n
    # an arc as long as the circle covers every point; capping keeps the
    # codes below 3 modulus
    reach = min(-(-budget.numerator * modulus // budget.denominator), modulus)
    doubled = np.array(codes + [c + modulus for c in codes],
                       dtype=exact_int_dtype(3 * modulus))
    nxt = np.append(np.searchsorted(doubled, doubled + reach), 2 * n)
    starts = np.arange(n)
    pos, jumps = starts, np.zeros(n, dtype=np.int64)
    tables = [nxt]
    while 1 << len(tables) <= n:
        tables.append(tables[-1][tables[-1]])
    for level in reversed(range(len(tables))):
        ahead = tables[level][pos]
        short = ahead < starts + n
        pos = np.where(short, ahead, pos)
        jumps += short.astype(np.int64) << level
    return int(jumps.min()) + 1


def homogeneous_slope_series(spec: HomogeneousSpec, eps_list: Sequence,
                             caps: Caps = Caps()) -> list[dict]:
    """Per-site slope of exact per-coordinate circle covers of the digit grid.

    For each coordinate of the window box(1) the achievable values at depth
    N form a finite subset of the circle; the product of exact arc-cover
    counts bounds the covering number, and its slope tracks the G x N
    entropy prediction.  The values are the digit codes over b^(N+1),
    covered by `_circle_cover_codes` in integers; `tests/oracles.py` holds
    the Fraction reference.
    """
    fwin = box(1, GroupSpec(spec.group_rank), caps.cells)
    tail_slack = spec.weights.tail_upper(1)  # pinned coords beyond the window
    rows = []
    for eps in eps_list:
        eps = Fraction(eps)
        budget = eps / spec.weights.total_upper() - tail_slack
        if budget <= 0:
            raise ValueError("weights decay too slowly for this eps")
        depth_n = _digit_depth(spec.base, eps)
        codes = _digit_codes(spec, fwin, depth_n + 1, caps.cloud, caps)
        count = 1
        for g in range(len(fwin)):
            count *= _circle_cover_codes([p[g] for p in codes],
                                         spec.base ** (depth_n + 1), budget)
        # an empty digit system covers with no arcs: slope 0.0, as its
        # entropy
        slope = (math.log(count) / (len(fwin) * math.log(1 / float(eps)))
                 if count else 0.0)
        rows.append({"eps": float(eps), "depth": depth_n, "count": count,
                     "slope": slope})
    return rows
