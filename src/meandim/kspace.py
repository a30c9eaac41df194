"""The appendix systems: full shifts on K = {0} u {1/n} and on [0,1].

K-power covering numbers are computed per coordinate with exact 1-d sweeps
on the integer codes of the truncated point families (n for 1/n, j for
j/steps) and combined by product.  Two closed-form brackets accompany every
count: the packing lower bound (gamma+1)^{|F_n|} from the explicit grid of
separated configurations and the covering upper bound (2 zeta)^{|S F_n|}
from interval covers of K, and the computed counts must land between them
exactly.  The mass distribution demo evaluates the square-law measure on
digit boxes and verifies the collapse hypothesis point by point.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Sequence

from .groups import Caps, FolnerDescriptor, GroupSpec, minkowski_sum
from .metrics import WeightScheme, seeded_random, tail_support

NU_ZERO_MASS = 0.5
NU_SQUARE_COEFF = 3.0 / math.pi ** 2  # normalizes a sum 1/n^2 to 1/2
_PARTIAL_LIMIT = 2_000_000
_NU_CHECK_TERMS = 10**6  # terms summed before the integral tail
_MAX_CODE = 4096  # the truncation of K that the mass demo samples from
MASS_DEMO_SAMPLES = 64  # points the mass demo samples after its 3 fixed ones


class DemoHypothesisFailure(AssertionError):
    """A sampled point violates the mass-distribution hypothesis."""


@dataclass(frozen=True)
class KSpaceSpec:
    """Full shift on K^{Z^d} (kind 'kset') or on [0,1]^{Z^d} (kind 'unit')."""

    rank: int
    kind: str = "kset"
    weights: WeightScheme | None = None

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.kind not in ("kset", "unit"):
            raise ValueError("kind must be 'kset' or 'unit'")
        if self.weights is None:
            object.__setattr__(self, "weights",
                               WeightScheme(self.rank, Fraction(1, 10**9)))


def gamma_bracket(eps: Fraction) -> int:
    """Integer gamma with 1/(gamma+1) <= 2 sqrt(eps) < 1/gamma, exactly."""
    eps = Fraction(eps)
    if not (0 < eps < Fraction(1, 4)):
        raise ValueError("gamma bracket needs 0 < eps < 1/4")
    # least gamma with (gamma+1)^2 >= 1/(4 eps), i.e. >= t = ceil(1/(4 eps))
    t = -(-eps.denominator // (4 * eps.numerator))
    return math.isqrt(t - 1)


def zeta_bracket(eps: Fraction, c: Fraction) -> int:
    """Integer zeta with 1/(zeta(zeta+1)) <= eps/(4c) < 1/(zeta(zeta-1))."""
    ratio = 4 * Fraction(c) / Fraction(eps)  # zeta(zeta-1) < ratio <= zeta(zeta+1)
    # least zeta >= 1 with zeta(zeta+1) >= t = ceil(ratio)
    t = max(-(-ratio.numerator // ratio.denominator), 0)
    z = (math.isqrt(4 * t + 1) - 1) // 2
    if z * (z + 1) < t:
        z += 1
    return max(z, 1)


def _k_size(delta) -> int:
    """Largest code n_tr of the K truncation: 1/n_tr lies below delta/2."""
    return int(2 / delta) + 2


def _unit_steps(delta) -> int:
    """Denominator of the unit grid, slightly coarser than delta/3."""
    return int(3 / delta) + 1


# On a sorted line both greedy sweeps take the same walk: the next cover group
# starts, and the next separated point is picked, at the first point at least
# `bound` past the current one.  So the minimum cover at limit `bound` and the
# maximum separated set at `bound` both have the length of that walk, which
# the two functions below take on integer codes in O(walk length); the
# Fraction sweeps they are checked against are in `tests/oracles.py`.

def _k_sweep_count(n_tr: int, bound: Fraction) -> int:
    """Greedy walk length on the K truncation {0} u {1/n : n <= n_tr},
    bound > 0.

    With bound = p/q the walk steps from 0 to code min(n_tr, q // p) and from
    1/n to code nq // (q + pn), because 1/m - 1/n >= p/q iff m(q + pn) <= nq.
    """
    p, q = bound.numerator, bound.denominator
    count = 1
    n = min(n_tr, q // p)
    while n >= 1:
        count += 1
        n = n * q // (q + p * n)
    return count


def _unit_sweep_count(steps: int, bound: Fraction) -> int:
    """Greedy walk length on the grid j/steps, bound > 0: strides of
    ceil(p steps / q) grid points for bound = p/q."""
    stride = -(-bound.numerator * steps // bound.denominator)
    return steps // stride + 1


@dataclass(frozen=True)
class KExperimentRow:
    n_index: int
    eps: float
    window: int
    support_window: int
    gamma: int
    zeta: int
    lower: int
    upper: int
    formula_lower: int
    formula_upper: int
    slope_lower: float
    slope_upper: float

    @property
    def bracket_ok(self) -> bool:
        return self.formula_lower <= self.lower <= self.upper <= self.formula_upper


def kg_covering_experiment(spec: KSpaceSpec, folner: FolnerDescriptor,
                           eps_grid: Sequence,
                           caps: Caps = Caps()) -> list[KExperimentRow]:
    """Certified covering bounds of truncated K-power (or cube) clouds.

    Lower: per-coordinate maximal eps-separated sets multiply across the
    window (a differing coordinate already forces the dynamical distance past
    eps).  Upper: per-coordinate minimal covers at budget (eps - 2 tail)/c,
    with the tail beyond the support at 3 eps/4, multiply into a product
    cover whose sets stay under eps in diameter.  Both per-coordinate counts
    are exact 1-d sweeps on the integer codes of the K truncation or the unit
    grid at the budget, equal to the Fraction sweeps of `tests/oracles.py`
    over those point lists, and both must land inside the closed-form
    bracket.
    """
    group = GroupSpec(spec.rank)
    weights = spec.weights
    c_total = weights.total_upper()
    rows = []
    for n in folner.indices:
        fwin = folner.window(n, group, caps.cells)
        for eps in eps_grid:
            eps = Fraction(eps)
            # the support at 3 eps/4 leaves a tail < 3 eps/8 and so a budget
            # above the eps/(4c) that `zeta_bracket` assumes
            support = tail_support(weights, 3 * eps / 4, group, cap=caps.cells)
            swin = minkowski_sum(support, fwin, caps.cells)
            tail_allow = weights.tail_upper(support.index + 1)
            # product sets of per-coordinate span < budget have dynamical
            # diameter under c * budget + tail < eps
            budget = (eps - 2 * tail_allow) / c_total
            if spec.kind == "kset":
                n_tr = _k_size(budget)
                sep = _k_sweep_count(n_tr, eps)
                cov = _k_sweep_count(n_tr, budget)
                gamma = gamma_bracket(eps)
                zeta = zeta_bracket(eps, c_total)
                formula_lower = (gamma + 1) ** len(fwin)
                formula_upper = (2 * zeta) ** len(swin)
            else:
                steps = _unit_steps(budget)
                sep = _unit_sweep_count(steps, eps)
                cov = _unit_sweep_count(steps, budget)
                gamma = 0
                zeta = 0
                formula_lower = 1
                formula_upper = (1 + int(6 * c_total / eps)) ** len(swin)
            lower = sep ** len(fwin)
            upper = cov ** len(swin)
            slope_lo = math.log(lower) / (len(fwin) * math.log(1 / float(eps)))
            slope_up = math.log(upper) / (len(fwin) * math.log(1 / float(eps)))
            row = KExperimentRow(n_index=n, eps=float(eps), window=len(fwin),
                                 support_window=len(swin), gamma=gamma,
                                 zeta=zeta, lower=lower, upper=upper,
                                 formula_lower=formula_lower,
                                 formula_upper=formula_upper,
                                 slope_lower=slope_lo, slope_upper=slope_up)
            if spec.kind == "kset" and not row.bracket_ok:
                raise AssertionError(f"closed-form bracket violated: {row}")
            if spec.kind == "unit" and upper > formula_upper:
                raise AssertionError(f"cube upper bound violated: {row}")
            rows.append(row)
    return rows


def trend_slopes(rows: Sequence[KExperimentRow]) -> list[float]:
    """Two-point slopes of log counts between consecutive eps values."""
    out = []
    for a, b in zip(rows, rows[1:]):
        num = math.log(b.lower) - math.log(a.lower)
        den = (math.log(1 / b.eps) - math.log(1 / a.eps)) * a.window
        out.append(num / den)
    return out


# ---------------------------------------------------------------------------
# the square-law measure on K

def _inverse_square_tail(n: int) -> float:
    """sum_{j >= n} 1/j^2 by Euler-Maclaurin, accurate past 1e-12 for n >= 8."""
    if n <= 8:
        return sum(1.0 / j ** 2 for j in range(n, 4000)) + _inverse_square_tail(4000)
    return 1.0 / n + 1.0 / (2 * n ** 2) + 1.0 / (6 * n ** 3) - 1.0 / (30 * n ** 5)


def nu_normalization_error() -> float:
    """|nu(K) - 1| evaluated at a finite truncation plus integral tail."""
    terms = _NU_CHECK_TERMS
    partial = NU_ZERO_MASS + NU_SQUARE_COEFF * (
        sum(1.0 / j ** 2 for j in range(1, terms)) + _inverse_square_tail(terms))
    return abs(partial - 1.0)


def nu_interval_mass_log(x_code: int, log_r: float) -> float:
    """log nu([x - r, x] cap K) for x in K coded by n (0 means the point 0).

    r enters in log scale so astronomically small radii stay meaningful; when
    r is below the gap to the next K point the mass is the atom at x.
    """
    if x_code == 0:
        return math.log(NU_ZERO_MASS)
    n = x_code
    gap = 1.0 / (n * (n + 1.0))
    if log_r < math.log(gap):
        return math.log(NU_SQUARE_COEFF) - 2 * math.log(n)
    x = 1.0 / n
    r = math.exp(log_r)
    lo = x - r
    if lo <= 0:
        mass = NU_SQUARE_COEFF * _inverse_square_tail(n) + NU_ZERO_MASS
        return math.log(mass)
    j_max = int(1.0 / lo)
    if j_max - n > _PARTIAL_LIMIT:
        mass = NU_SQUARE_COEFF * (_inverse_square_tail(n)
                                  - _inverse_square_tail(j_max + 1))
        return math.log(mass)
    mass = NU_SQUARE_COEFF * sum(1.0 / j ** 2 for j in range(n, j_max + 1))
    return math.log(mass)


@dataclass(frozen=True)
class MassDemoReport:
    k: int
    eps: float
    delta: float
    window: int
    support_window: int
    bound: float
    points_checked: int
    worst_margin: float


def _sample_k_codes(rng, size: int, cumulative: list[float],
                    total: float) -> list[int]:
    """nu-distributed K codes: 0 with mass 1/2, 1/n with a/n^2 (renormalized
    truncation for sampling only; masses in checks are the true nu).

    `cumulative` holds the running sums of the truncated weights a/n^2 and
    `total` their sum; a draw past the last running sum picks the last code.
    """
    codes = []
    for _ in range(size):
        if rng.random() < NU_ZERO_MASS:
            codes.append(0)
            continue
        t = rng.random() * total
        codes.append(min(bisect_left(cumulative, t) + 1, len(cumulative)))
    return codes


def kg_mass_distribution_demo(spec: KSpaceSpec, k: int,
                              folner: FolnerDescriptor, n_index: int,
                              eps: Fraction, seed: int = 0,
                              caps: Caps = Caps()) -> MassDemoReport:
    """Verify the mass-distribution hypothesis on sampled K-power points.

    For each point the support window splits into magnitude bands by powers
    delta^{k^m}; the thinnest band fixes the box radius r, the box mass under
    the product square-law measure is evaluated exactly per coordinate, and
    mu(box) >= diam^{(6/k) |SF_n|} must hold with diam <= (1+c) r.  The
    returned dimension bound is (12/k) |SF_n|, shrinking to zero in k.
    """
    if k < 1:
        raise ValueError("sharpness parameter k must be >= 1")
    eps = Fraction(eps)
    if not eps < Fraction(1, 6):
        raise ValueError("demo needs eps < 1/6")
    group = GroupSpec(spec.rank)
    fwin = folner.window(n_index, group, caps.cells)
    support = tail_support(spec.weights, eps, group, cap=caps.cells)
    swin = minkowski_sum(support, fwin, caps.cells)
    c_total = float(spec.weights.total_upper())
    a = NU_SQUARE_COEFF
    delta = 0.5 * min(float(eps) / 12.0,
                      a ** k / (1.0 + c_total) ** 3,
                      (0.5 ** (k / 3.0 + 1.0)) / (1.0 + c_total))
    log_delta = math.log(delta)

    rng = seeded_random(seed)
    weights = [NU_SQUARE_COEFF / n ** 2 for n in range(1, _MAX_CODE + 1)]
    cumulative = list(accumulate(weights))
    total = sum(weights)  # not cumulative[-1]: sum() may round differently
    size = len(swin)
    # all coordinates at 0, all at 1, a 1, 2, 3 cycle, then the samples
    pts = [[0] * size, [1] * size, [(i % 3) + 1 for i in range(size)]]
    pts += [_sample_k_codes(rng, size, cumulative, total)
            for _ in range(MASS_DEMO_SAMPLES)]

    exponent = (6.0 / k) * size
    worst = math.inf
    for codes in pts:
        logs = [math.log(1.0 / c) if c else -math.inf for c in codes]
        bands = []
        for lx in logs:
            if -lx > log_delta:          # x > delta
                bands.append(0)
                continue
            m = 1
            while m <= k and not (-lx > (k ** m) * log_delta):
                m += 1
            bands.append(m if m <= k else k + 1)
        sizes = [sum(1 for b in bands if b == m) for m in range(k + 1)]
        k0 = min(range(k + 1), key=lambda m: (sizes[m], m))
        if sizes[k0] * (k + 1) > size:
            raise AssertionError("pigeonhole bound |I_k0| <= |SF|/(k+1) failed")
        log_r = (k ** k0) * log_delta
        log_diam = math.log(1.0 + c_total) + log_r
        if not log_diam < math.log(float(eps) / 6.0):
            raise DemoHypothesisFailure("box diameter is not below eps/6")
        log_mass = sum(nu_interval_mass_log(c, log_r) for c in codes)
        margin = log_mass - exponent * log_diam
        if margin < 0:
            raise DemoHypothesisFailure(
                f"mu(A) < diam^s at point {codes}: log mu = {log_mass:.3f}, "
                f"s log diam = {exponent * log_diam:.3f}")
        worst = min(worst, margin)
    return MassDemoReport(k=k, eps=float(eps), delta=delta, window=len(fwin),
                          support_window=size, bound=(12.0 / k) * size,
                          points_checked=len(pts), worst_margin=worst)
