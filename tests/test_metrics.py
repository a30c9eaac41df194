import math

import pytest
from fractions import Fraction

from meandim.groups import GroupSpec, GroupWindow, ball, interval
from meandim.metrics import (CoverReport, HypothesisUnsatisfiable,
                             MassDistributionInput, PointCloud, ProductMetric,
                             WeightScheme, circle_cover_count, covering_number,
                             dynamical_metric, hausdorff_dim_upper,
                             hausdorff_sum, kset_value, line_cover_count,
                             line_separated_count, mass_distribution_bound,
                             product_distance, separated_set, sphere_size,
                             tail_support)

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
    lo, hi = product_distance((Fraction(3, 10),), (Fraction(0),), ws, w0)
    assert lo == Fraction(3, 10)
    assert hi == Fraction(8, 10)
    lo, hi = product_distance((Fraction(1, 2),), (Fraction(1, 2),), ws, w0)
    assert lo == 0 and hi == Fraction(1, 2)


def test_torus_coordinate_distance():
    w0 = GroupWindow(spec=SPEC1, elements=((0,),))
    ws = WeightScheme(1, Fraction(1, 4))
    lo, _ = product_distance((Fraction(1, 10),), (Fraction(9, 10),), ws, w0,
                             kind="torus")
    assert lo == Fraction(1, 5)


def test_dynamical_metric_identity_orbit_is_base():
    ws = WeightScheme(1, Fraction(1, 4))
    win = interval(-1, 1)
    base = ProductMetric(ws, win, "unit")
    dyn = dynamical_metric(ws, win, "unit", ball(0, SPEC1))
    x = (Fraction(1, 3), Fraction(0), Fraction(1, 2))
    y = (Fraction(0), Fraction(0), Fraction(0))
    assert base.interval(x, y) == dyn.interval(x, y)


def test_dynamical_metric_constant_configurations():
    ws = WeightScheme(1, Fraction(1, 4))
    win = interval(-2, 2)
    dyn = dynamical_metric(ws, win, "unit", ball(1, SPEC1))
    x = (Fraction(1, 2),) * 5
    assert dyn.interval(x, x)[0] == 0


def test_dynamical_metric_against_shift_oracle():
    # one differing cell; brute-force the three shifted weighted sums
    ws = WeightScheme(1, Fraction(1, 4))
    win = interval(-2, 2)
    x = tuple(Fraction(0) for _ in range(5))
    y = tuple(Fraction(1) if c == (1,) else Fraction(0) for c in win.elements)
    dyn = dynamical_metric(ws, win, "unit", ball(1, SPEC1))
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


def test_covering_singleton_and_separated_pair():
    cloud = kset_cloud([1])
    rep = covering_number(cloud, tiny_metric(cloud), Fraction(1, 4),
                          mode="exact", tol=0)
    assert (rep.lower, rep.upper, rep.exact) == (1, 1, True)
    # two points at triple the scale force two sets
    cloud2 = kset_cloud([1, 0])  # distance 1, eps 1/3
    rep2 = covering_number(cloud2, tiny_metric(cloud2), Fraction(1, 3),
                           mode="exact", tol=0)
    assert (rep2.lower, rep2.upper) == (2, 2)


def test_covering_k_cloud_exact_vs_bruteforce():
    # exact mode against the unrestricted brute-force optimum: the reported
    # pair must bracket it, and ball covers are an upper bound by design
    eps = Fraction(3, 10)
    for codes in ([0] + list(range(1, 8)), [0] + list(range(1, 7))):
        cloud = kset_cloud(codes)
        values = [kset_value(c) for c in codes]
        oracle = brute_force_min_cover(values, eps)
        rep = covering_number(cloud, tiny_metric(cloud), eps, mode="exact",
                              tol=0)
        assert oracle == 3
        assert rep.lower <= oracle <= rep.upper


def test_covering_exact_achieves_optimum_on_grid():
    w0 = GroupWindow(spec=SPEC1, elements=((0,),))
    vals = [Fraction(0), Fraction(1, 10), Fraction(2, 10), Fraction(5, 10),
            Fraction(6, 10)]
    cloud = PointCloud(window=w0, kind="unit",
                       points=tuple((v,) for v in vals))
    eps = Fraction(1, 4)
    oracle = brute_force_min_cover(vals, eps)
    rep = covering_number(cloud, tiny_metric(cloud), eps, mode="exact", tol=0)
    assert rep.upper == oracle == 2
    assert rep.lower == 2
    assert rep.exact


def test_covering_monotone_in_eps():
    codes = [0] + list(range(1, 10))
    cloud = kset_cloud(codes)
    metric = tiny_metric(cloud)
    uppers, lowers = [], []
    for eps in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 16)):
        rep = covering_number(cloud, metric, eps, tol=0)
        uppers.append(rep.upper)
        lowers.append(rep.lower)
        assert rep.lower <= rep.upper
    assert uppers == sorted(uppers)
    assert lowers == sorted(lowers)


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
    for eps in (Fraction(1, 5), Fraction(1, 9), Fraction(1, 17)):
        rep = covering_number(cloud, metric, eps, tol=0)
        sep2 = len(separated_set(cloud, metric, 2 * eps))
        assert sep2 <= rep.upper


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
    cloud = kset_cloud(codes)
    rep = covering_number(cloud, tiny_metric(cloud), eps, tol=0)
    cover = [float(eps) * 0.99] * rep.upper
    got = hausdorff_dim_upper([cover], eps=float(eps))
    assert got <= math.log(rep.upper) / math.log(1 / float(eps)) + 1e-6


def test_mass_distribution_bound_uniform_oracle():
    n, q = 16, 1e-3
    measure = {i: Fraction(1, n) for i in range(n)}
    family = tuple((frozenset([i]), q) for i in range(n))
    inp = MassDistributionInput(measure=measure, family=family)
    got = mass_distribution_bound(inp, eps=0.1)
    assert abs(got - 2 * math.log(n) / math.log(1 / q)) < 1e-9


def test_mass_distribution_bound_monotone_under_removal():
    measure = {i: Fraction(1, 4) for i in range(4)}
    fine = tuple((frozenset([i]), 1e-3) for i in range(4))
    coarse = (frozenset([0, 1]), 5e-3)
    both = MassDistributionInput(measure=measure, family=fine + (coarse,))
    fewer = MassDistributionInput(measure=measure, family=fine)
    assert mass_distribution_bound(both, 0.1) <= mass_distribution_bound(
        fewer, 0.1)


def test_mass_distribution_unsatisfiable():
    measure = {0: Fraction(1, 2), 1: Fraction(1, 2)}
    family = ((frozenset([0]), 1e-3),)
    with pytest.raises(HypothesisUnsatisfiable):
        mass_distribution_bound(MassDistributionInput(measure=measure,
                                                      family=family), 0.1)


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
        line_cover_count(vals, Fraction(1, 10), tol=Fraction(1, 10))
    with pytest.raises(ValueError):
        line_cover_count(vals, 0)


def test_circle_cover_rejects_zero_budget():
    vals = [Fraction(0), Fraction(1, 2)]
    with pytest.raises(ValueError):
        circle_cover_count(vals, Fraction(1, 10), tol=Fraction(1, 10))
    with pytest.raises(ValueError):
        circle_cover_count(vals, Fraction(-1, 8))


def test_cover_report_validation():
    with pytest.raises(ValueError):
        CoverReport(eps=0.1, lower=5, upper=3, exact=False)


def test_cover_report_json_line_stream_shape():
    rep = CoverReport(eps=Fraction(1, 8), lower=3, upper=5, exact=False,
                      window_size=7, seconds=0.25)
    import json as _json
    doc = _json.loads(rep.to_json_line())
    assert set(doc) == {"eps", "lower", "upper", "exact", "window_size",
                        "seconds"}
    assert doc["lower"] == "3" and doc["upper"] == "5"


def test_exact_mode_refused_above_limit():
    from meandim.metrics import CoverCapExceeded
    cloud = kset_cloud([0] + list(range(1, 30)))
    with pytest.raises(CoverCapExceeded):
        covering_number(cloud, tiny_metric(cloud), Fraction(1, 100),
                        mode="exact", tol=0)


def test_tail_support_radius_cap():
    from meandim.groups import WindowCapExceeded
    ws = WeightScheme(1, Fraction(999, 1000))  # slow decay, huge support
    with pytest.raises(WindowCapExceeded):
        tail_support(ws, Fraction(1, 10**9), cap_radius=100)
