import itertools
import math
import time

import pytest
from fractions import Fraction

import meandim.metrics as metrics
from meandim.groups import CapExceeded, GroupSpec, GroupWindow, ball, interval
from meandim.metrics import (PointCloud, ProductMetric, WeightScheme,
                             kset_value, sphere_size, tail_support)
from oracles import (circle_cover_count, hausdorff_dim_upper, hausdorff_sum,
                     line_cover_count, line_separated_count, separated_set,
                     stepped_tail_radius)

SPEC1 = GroupSpec(1)


def series_tail_oracle(rho, rank, r, terms=200):
    """Independent exact partial-sum oracle for the weight tail."""
    rho = Fraction(rho)
    return sum(sphere_size(rank, n) * rho ** n for n in range(r, terms))


def test_tail_upper_brackets_true_tail():
    # the partial sum is a lower bound of the true tail, the scheme's bound
    # an upper bound, and the two stay close
    for rank in (1, 2, 3):
        ws = WeightScheme(rank, Fraction(1, 4))
        for r in (1, 2, 5):
            partial = series_tail_oracle(Fraction(1, 4), rank, r)
            up = ws.tail_upper(r)
            assert partial <= up
            assert float(up) <= float(partial) * 1.25 + 1e-12
    # ranks 3 and 4 are exact: the whole-lattice sum ((1 + rho)/(1 - rho))^d
    # less the weights of the ball of radius r - 1, summed point by point
    for rank in (3, 4):
        for rho in (Fraction(1, 4), Fraction(2, 3)):
            ws = WeightScheme(rank, rho)
            for r in (0, 1, 2, 4):
                inner = sum(rho ** sum(map(abs, g))
                            for g in itertools.product(range(1 - r, r),
                                                       repeat=rank)
                            if sum(map(abs, g)) < r)
                assert ws.tail_upper(r) == ((1 + rho) / (1 - rho)) ** rank \
                    - inner


def test_tail_support_examples():
    ws = WeightScheme(1, Fraction(1, 4))
    assert tail_support(ws, 1).index == 1
    # eps at least twice the total mass needs no tail at all
    assert tail_support(ws, 2 * ws.total_upper() + 1).index == 0
    # small eps: first radius whose oracle tail drops under eps/2
    eps = Fraction(1, 1000)
    r = tail_support(ws, eps).index
    assert series_tail_oracle(Fraction(1, 4), 1, r + 1) < eps / 2
    assert series_tail_oracle(Fraction(1, 4), 1, r) >= float(eps) / 2 * 0.999


def test_product_distance_interval():
    w0 = GroupWindow(spec=SPEC1, elements=((0,),))
    ws = WeightScheme(1, Fraction(1, 5))  # tail over g != 0 is exactly 1/2
    assert ws.tail_upper(1) == Fraction(1, 2)
    metric = ProductMetric(ws, w0, "unit")
    lo, hi = metric.interval((Fraction(3, 10),), (Fraction(0),))
    assert lo == Fraction(3, 10)
    assert hi == Fraction(8, 10)
    lo, hi = metric.interval((Fraction(1, 2),), (Fraction(1, 2),))
    assert lo == 0 and hi == Fraction(1, 2)


def test_torus_coordinate_distance():
    w0 = GroupWindow(spec=SPEC1, elements=((0,),))
    ws = WeightScheme(1, Fraction(1, 4))
    lo, _ = ProductMetric(ws, w0, "torus").interval((Fraction(1, 10),),
                                                    (Fraction(9, 10),))
    assert lo == Fraction(1, 5)


def test_dynamical_metric_identity_orbit_is_base():
    ws = WeightScheme(1, Fraction(1, 4))
    win = interval(-1, 1)
    base = ProductMetric(ws, win, "unit")
    dyn = ProductMetric(ws, win, "unit", shifts=tuple(ball(0, SPEC1).elements))
    x = (Fraction(1, 3), Fraction(0), Fraction(1, 2))
    y = (Fraction(0), Fraction(0), Fraction(0))
    assert base.interval(x, y) == dyn.interval(x, y)


def test_dynamical_metric_constant_configurations():
    ws = WeightScheme(1, Fraction(1, 4))
    win = interval(-2, 2)
    dyn = ProductMetric(ws, win, "unit", shifts=tuple(ball(1, SPEC1).elements))
    x = (Fraction(1, 2),) * 5
    assert dyn.interval(x, x)[0] == 0


def test_dynamical_metric_against_shift_oracle():
    # one differing cell; brute-force the three shifted weighted sums
    ws = WeightScheme(1, Fraction(1, 4))
    win = interval(-2, 2)
    x = tuple(Fraction(0) for _ in range(5))
    y = tuple(Fraction(1) if c == (1,) else Fraction(0) for c in win.elements)
    dyn = ProductMetric(ws, win, "unit", shifts=tuple(ball(1, SPEC1).elements))
    lo, hi = dyn.interval(x, y)
    expected = max(ws.weight((1 - s,)) for s in (-1, 0, 1))
    assert lo == expected
    assert hi > lo


def kset_cloud(codes):
    w0 = GroupWindow(spec=SPEC1, elements=((0,),))
    return PointCloud(window=w0, kind="kset",
                      points=tuple((c,) for c in codes))


def tiny_metric(cloud):
    return ProductMetric(WeightScheme(1, Fraction(1, 10**12)), cloud.window,
                         cloud.kind)


def brute_force_min_cover(values, eps):
    """Exact minimum cover by arbitrary subsets of diameter < eps (bitmask)."""
    vals = sorted(values)
    n = len(vals)
    subsets = []
    for mask in range(1, 1 << n):
        members = [vals[i] for i in range(n) if mask >> i & 1]
        if max(members) - min(members) < eps:
            subsets.append(mask)
    best = n
    import functools

    @functools.lru_cache(maxsize=None)
    def solve(remaining):
        if remaining == 0:
            return 0
        pivot = (remaining & -remaining).bit_length() - 1
        res = n
        for mask in subsets:
            if mask >> pivot & 1:
                res = min(res, 1 + solve(remaining & ~mask))
        return res

    return solve((1 << n) - 1)


def test_separated_set_basics():
    cloud = kset_cloud([3, 3, 3])
    assert len(separated_set(cloud, tiny_metric(cloud), Fraction(1, 10))) == 1
    grid = kset_cloud([1, 2, 4, 12])  # values 1, 1/2, 1/4, 1/12
    # pairwise gaps all at least 1/6, so eps = 1/6 keeps everything
    kept = separated_set(grid, tiny_metric(grid), Fraction(1, 6))
    assert len(kept) == 4


def test_separated_vs_cover_double_scale():
    # a 2eps-separated set never exceeds an eps-cover count
    codes = [0] + list(range(1, 12))
    cloud = kset_cloud(codes)
    metric = tiny_metric(cloud)
    values = [kset_value(c) for c in codes]
    for eps in (Fraction(1, 5), Fraction(1, 9), Fraction(1, 17)):
        cover = line_cover_count(values, eps)
        sep2 = len(separated_set(cloud, metric, 2 * eps))
        assert sep2 <= cover


def test_hausdorff_sum():
    assert hausdorff_sum([0.1, 0.2, 0.05], 0.0) == 3.0
    assert hausdorff_sum([0.5], 1.0) == 0.5
    with pytest.raises(ValueError):
        hausdorff_sum([0.4], 1.0, eps=0.3)


def test_hausdorff_dim_upper_closed_forms():
    # n sets of equal diameter q: the sup solves n q^s = 1
    for n, q in [(4, 0.2), (10, 0.05), (2, 0.3)]:
        got = hausdorff_dim_upper([[q] * n], eps=0.5)
        assert abs(got - math.log(n) / math.log(1 / q)) < 1e-5
    # a single set below diameter one: only s = 0 keeps the sum at 1
    assert hausdorff_dim_upper([[0.5]], eps=1.0) < 1e-5
    # diameters at 1 or above pin the bisection cap
    assert hausdorff_dim_upper([[1.0]], eps=2.0, s_cap=8.0) == 8.0


def test_hausdorff_below_minkowski_at_scale():
    eps = Fraction(1, 8)
    codes = [0] + list(range(1, 10))
    upper = line_cover_count([kset_value(c) for c in codes], eps)
    cover = [float(eps) * 0.99] * upper
    got = hausdorff_dim_upper([cover], eps=float(eps))
    assert got <= math.log(upper) / math.log(1 / float(eps)) + 1e-6


def test_line_sweeps_are_exact():
    vals = [Fraction(0), Fraction(1, 10), Fraction(2, 10), Fraction(5, 10)]
    assert line_cover_count(vals, Fraction(3, 10)) == 2
    assert line_separated_count(vals, Fraction(3, 10)) == 2
    assert line_separated_count(vals, Fraction(1, 10)) == 4
    vals2 = [kset_value(c) for c in [0] + list(range(1, 8))]
    assert line_cover_count(vals2, Fraction(3, 10)) == brute_force_min_cover(
        vals2, Fraction(3, 10))


def test_circle_cover_wraps():
    vals = [Fraction(0), Fraction(1, 8), Fraction(7, 8)]
    # an arc through zero takes the two outer points together
    assert circle_cover_count(vals, Fraction(3, 8)) == 1
    assert circle_cover_count(vals, Fraction(1, 8)) == 3


def test_line_cover_rejects_zero_budget():
    vals = [Fraction(0), Fraction(1, 2)]
    with pytest.raises(ValueError):
        line_cover_count(vals, 0)
    with pytest.raises(ValueError):
        line_cover_count(vals, Fraction(-1, 8))


def test_circle_cover_rejects_zero_budget():
    vals = [Fraction(0), Fraction(1, 2)]
    with pytest.raises(ValueError):
        circle_cover_count(vals, 0)
    with pytest.raises(ValueError):
        circle_cover_count(vals, Fraction(-1, 8))


def test_tail_support_radius_cap(monkeypatch):
    ws = WeightScheme(1, Fraction(999, 1000))  # slow decay, huge support
    monkeypatch.setattr(metrics, "RADIUS_CAP", 100)
    with pytest.raises(CapExceeded, match="^radius cap 100 exceeded: tail "
                       "support of rho 999/1000 needs radius >= 101$"):
        tail_support(ws, Fraction(1, 10**9))
    # the least radius itself is allowed, one less is not
    ws, eps = WeightScheme(2, Fraction(1, 3)), Fraction(1, 10**6)
    r = stepped_tail_radius(ws, eps)
    monkeypatch.setattr(metrics, "RADIUS_CAP", r)
    assert tail_support(ws, eps).index == r
    monkeypatch.setattr(metrics, "RADIUS_CAP", r - 1)
    with pytest.raises(CapExceeded, match=f"needs radius >= {r}$"):
        tail_support(ws, eps)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_tail_support_radius_matches_the_stepped_loop(rank):
    for rho in (Fraction(1, 10**9), Fraction(1, 7), Fraction(1, 2)):
        ws = WeightScheme(rank, rho)
        for eps in (Fraction(1, 10), Fraction(1, 1000), Fraction(3, 10**7),
                    2 * ws.total_upper(), 4 * ws.total_upper()):
            assert tail_support(ws, eps).index \
                == stepped_tail_radius(ws, eps), (rho, eps)


def test_tail_support_of_slow_decay_is_fast():
    # a search stepping r = 0, 1, 2, ... took 29 s to reach this radius of
    # 15194 on 2 vCPU x86_64
    ws, eps = WeightScheme(1, Fraction(999, 1000)), Fraction(1, 1000)
    start = time.perf_counter()
    r = tail_support(ws, eps).index
    assert time.perf_counter() - start < 1
    assert ws.tail_upper(r + 1) < eps / 2 <= ws.tail_upper(r)
    assert r == 15194
