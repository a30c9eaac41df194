import math
import sys
import time
from fractions import Fraction

import pytest

from meandim.groups import (CapExceeded, Caps, GroupSpec, ball, box, interval,
                            minkowski_sum)
from meandim.metrics import ProductMetric, WeightScheme
from meandim.subshifts import (Alphabet, Rule, SubshiftSpec, count_patterns,
                               enumerate_patterns, full_shift, golden_mean)
from meandim.selfsimilar import (NetTooCoarse, ProbeViolation,
                                 SelfSimilarSpec, composition_depth,
                                 contraction_embedding_check, embedding_depth,
                                 net_radius, selfsimilar_cover_probe,
                                 selfsimilar_spanning_cloud,
                                 selfsimilar_upper_bound)
from oracles import (separated_set, stepped_composition_depth,
                     stepped_embedding_depth, stepped_net_radius)

LOG_PHI = math.log((1 + math.sqrt(5)) / 2)

FULL = SelfSimilarSpec(omega=full_shift(2), values=(0, 1), c=Fraction(1, 2))
GOLDEN3 = SelfSimilarSpec(omega=golden_mean(), values=(0, 1), c=Fraction(1, 3))


def test_spec_validation():
    with pytest.raises(ValueError):
        SelfSimilarSpec(omega=full_shift(2), values=(0, 1), c=Fraction(1))
    with pytest.raises(ValueError):
        SelfSimilarSpec(omega=full_shift(2), values=(0,), c=Fraction(1, 2))


def test_upper_bound_values():
    assert selfsimilar_upper_bound(FULL)["bound"] == pytest.approx(1.0)
    got = selfsimilar_upper_bound(GOLDEN3)["bound"]
    # the certified entropy bound sits just above log phi
    assert LOG_PHI / math.log(3) <= got <= LOG_PHI / math.log(3) + 0.02
    singleton = SelfSimilarSpec(omega=SubshiftSpec(1, Alphabet(1), Rule.full(1)),
                                values=(0,), c=Fraction(1, 2))
    assert selfsimilar_upper_bound(singleton)["bound"] == 0.0


def test_diameter_upper_dominates_samples():
    d_up = FULL.diameter_upper()
    w = interval(-2, 2)
    net = [bytes([0] * 5), bytes([1] * 5)]
    cloud = selfsimilar_spanning_cloud(FULL, 4, net, w)
    for p in cloud.cloud.points:
        for q in cloud.cloud.points:
            dist = sum(FULL.weights.weight(g) * abs(a - b)
                       for g, a, b in zip(w.elements, p, q))
            assert dist <= d_up


def test_spanning_cloud_dyadic_example():
    # two constant maps, three compositions: the eight dyadic eighths times 2
    w = interval(0, 0)
    net = [bytes([0]), bytes([1])]
    cloud = selfsimilar_spanning_cloud(FULL, 3, net, w)
    values = sorted(p[0] for p in cloud.cloud.points)
    assert values == [Fraction(k, 4) for k in range(8)]
    assert len(cloud.addresses) == 8


def test_spanning_cloud_obeys_the_cloud_cap():
    w = interval(0, 0)
    net = [bytes([0]), bytes([1])]
    assert len(selfsimilar_spanning_cloud(FULL, 3, net, w, Caps(cloud=8))
               .cloud.points) == 8
    with pytest.raises(CapExceeded, match="^cloud cap 7 exceeded: spanning "
                       "cloud of depth 3 needs 8 points$"):
        selfsimilar_spanning_cloud(FULL, 3, net, w, Caps(cloud=7))


def test_spanning_cloud_trivial_cases():
    w = interval(0, 0)
    single = selfsimilar_spanning_cloud(FULL, 1, [bytes([1])], w)
    assert single.cloud.points == ((Fraction(1),),)
    empty = selfsimilar_spanning_cloud(FULL, 1, [], w)
    assert len(empty.cloud.points) == 0


def test_net_radius_and_depth():
    eps = Fraction(1, 64)
    r = net_radius(FULL, eps)
    target = (1 - FULL.c) * eps / 6
    assert FULL.value_range * FULL.weights.tail_upper(r + 1) < target
    assert r == 0 or FULL.value_range * FULL.weights.tail_upper(r) >= target
    m = composition_depth(FULL, eps)
    assert FULL.diameter_upper() * FULL.c ** m < eps / 6
    assert FULL.diameter_upper() * FULL.c ** (m - 1) >= eps / 6


def test_net_radius_matches_the_stepped_loop():
    for rho in (Fraction(1, 4), Fraction(1, 2), Fraction(19, 20)):
        for values in ((0, 1), (0, 0), (0, 5)):
            spec = SelfSimilarSpec(omega=full_shift(2), values=values,
                                   c=Fraction(1, 3),
                                   weights=WeightScheme(1, rho))
            for eps in (Fraction(1, 2), Fraction(1, 64), Fraction(1, 10**6)):
                assert net_radius(spec, eps) == stepped_net_radius(spec, eps)


def test_net_radius_obeys_the_radius_cap():
    # the tail of rho 1/4 at radius 10^6 + 1 still exceeds the target
    with pytest.raises(CapExceeded, match="^radius cap 1000000 exceeded: net "
                       "of rho 1/4 needs radius >= 1000001$"):
        net_radius(FULL, Fraction(1, 10**700000))


def test_cover_probe_all_shipped_configs():
    for omega, values, true_h in ((full_shift(2), (0, 1), math.log(2)),
                                  (golden_mean(), (0, 1), LOG_PHI)):
        for c in (Fraction(1, 2), Fraction(1, 3)):
            spec = SelfSimilarSpec(omega=omega, values=values, c=c)
            grid = [c ** j for j in range(2, 9)]
            report = selfsimilar_cover_probe(spec, grid,
                                             [box(512, GroupSpec(1))])
            slope = report["slopes"][512]
            assert slope <= true_h / math.log(1 / float(c)) + 0.05
            assert slope <= report["bound"] + 0.05


def test_cover_probe_singleton_driving_system():
    frozen = SelfSimilarSpec(omega=SubshiftSpec(1, Alphabet(1), Rule.full(1)),
                             values=(0,), c=Fraction(1, 2))
    grid = [Fraction(1, 2) ** j for j in range(2, 6)]
    report = selfsimilar_cover_probe(frozen, grid, [box(8, GroupSpec(1))])
    # a frozen driving system has zero entropy at any window size
    assert report["slopes"][8] == pytest.approx(0.0)
    assert all(row["net_count"] == 1 for row in report["rows"])


def test_cover_probe_geometric_lower_consistency():
    # an eps-separated subset of an exact attractor cloud never outnumbers
    # the net-count upper bound m log|net| on the same window.  The cloud
    # anchors at the all-zero fixed point and applies one map per pattern of
    # the orbit's radius-1 net: 64 points, all separated at these scales
    orbit = box(4, GroupSpec(1))
    window = minkowski_sum(orbit, ball(1, orbit.spec))
    net = enumerate_patterns(FULL.omega, window).patterns
    assert len(net) == 64
    cloud = selfsimilar_spanning_cloud(FULL, 1, net, window).cloud
    metric = ProductMetric(FULL.weights, window, "unit",
                           shifts=tuple(orbit.elements))
    grid = [Fraction(1, 2) ** j for j in range(2, 7)]
    r = net_radius(FULL, grid[-1])
    net_count = count_patterns(FULL.omega,
                               minkowski_sum(orbit, ball(r, orbit.spec)))
    lowers = []
    for eps in grid:
        lower = len(separated_set(cloud, metric, eps))
        log_upper = composition_depth(FULL, eps) * math.log(net_count)
        assert math.log(lower) <= log_upper + 1e-9
        lowers.append(lower)
    assert lowers == [64] * len(grid)


def test_cover_probe_rejects_increasing_grid():
    with pytest.raises(ValueError):
        selfsimilar_cover_probe(FULL, [Fraction(1, 8), Fraction(1, 4)],
                                [box(4, GroupSpec(1))])


@pytest.mark.parametrize("grid", [[Fraction(1, 4)],
                                  [Fraction(1, 4), Fraction(1, 4)]],
                         ids=["one-value", "repeated-value"])
def test_cover_probe_rejects_grids_without_a_slope(grid):
    # one distinct scale fits no slope; the probe must not report one
    with pytest.raises(ValueError, match="at least two strictly decreasing"):
        selfsimilar_cover_probe(FULL, grid, [box(4, GroupSpec(1))])


def test_embedding_depth_examples():
    # c = 1/2, D from the rational diameter bound, eps = 1/2
    k = embedding_depth(FULL, Fraction(1, 2))
    d_up = FULL.diameter_upper()
    assert FULL.c ** k * d_up <= Fraction(1, 2) < FULL.c ** (k - 1) * d_up
    # eps beyond the diameter degenerates to one application
    assert embedding_depth(FULL, 2 * d_up) == 1


def _contraction(c) -> SelfSimilarSpec:
    return SelfSimilarSpec(omega=full_shift(2), values=(0, 1), c=Fraction(c))


@pytest.mark.parametrize("c", ["1/2", "2/3", "99/100"])
def test_depths_match_the_stepped_loops(c):
    spec = _contraction(c)
    d_up = spec.diameter_upper()
    # 6 D and D are where the two depths reach 0 and 1
    for eps in (6 * d_up, d_up, Fraction(1, 2), Fraction(1, 64),
                Fraction(3, 1000), Fraction(1, 10**6)):
        assert composition_depth(spec, eps) \
            == stepped_composition_depth(spec, eps), eps
        assert embedding_depth(spec, eps) \
            == stepped_embedding_depth(spec, eps), eps


def test_depths_of_a_slow_contraction_are_least_and_fast():
    # at c = 999/1000 the stepped loops take 10 s for eps = 10^-6 (2 vCPU
    # x86_64); the depths are checked against their definitions instead
    spec = _contraction("999/1000")
    d_up, c = spec.diameter_upper(), spec.c
    start = time.perf_counter()
    for eps in (Fraction(1, 2), Fraction(1, 10**6)):
        m = composition_depth(spec, eps)
        assert d_up * c ** m < eps / 6 <= d_up * c ** (m - 1)
        k = embedding_depth(spec, eps)
        assert c ** k * d_up <= eps < c ** (k - 1) * d_up
    assert (m, k) == (23015, 21224)
    assert time.perf_counter() - start < 1


def test_depths_obey_the_radius_cap():
    eps = Fraction(1, 2 ** (10**6 + 10))
    for depth, name in ((composition_depth, "composition"),
                        (embedding_depth, "embedding")):
        with pytest.raises(CapExceeded, match=f"^radius cap 1000000 exceeded: "
                           f"{name} depth of c 1/2 needs radius >= 1000001$"):
            depth(FULL, eps)


def test_contraction_embedding_exact_similarity():
    w = interval(-1, 1)
    net = [bytes([a, b, c]) for a in (0, 1) for b in (0, 1) for c in (0, 1)]
    cloud = selfsimilar_spanning_cloud(FULL, 6, net[:2], w)
    pairs = [(cloud.cloud.points[0], cloud.cloud.points[1]),
             (cloud.cloud.points[1], cloud.cloud.points[1])]
    out = contraction_embedding_check(FULL, cloud, target_index=3,
                                      eps=Fraction(1, 4), sample_pairs=pairs)
    assert out["ratio_bound_ok"]
    assert out["inside_ball"]
    assert out["pairs_checked"] == 2


def test_contraction_embedding_identical_pair():
    w = interval(0, 0)
    cloud = selfsimilar_spanning_cloud(FULL, 4, [bytes([0]), bytes([1])], w)
    p = cloud.cloud.points[5]
    out = contraction_embedding_check(FULL, cloud, target_index=5,
                                      eps=Fraction(1, 2),
                                      sample_pairs=[(p, p)])
    assert out["pairs_checked"] == 1


def test_contraction_embedding_net_too_coarse():
    w = interval(0, 0)
    shallow = selfsimilar_spanning_cloud(FULL, 1, [bytes([0]), bytes([1])], w)
    with pytest.raises(NetTooCoarse):
        contraction_embedding_check(FULL, shallow, target_index=0,
                                    eps=Fraction(1, 64), sample_pairs=[])


def test_cover_probe_enforcement_raises_on_tiny_window():
    grid = [Fraction(1, 2) ** j for j in range(2, 7)]
    with pytest.raises(ProbeViolation):
        selfsimilar_cover_probe(FULL, grid, [box(4, GroupSpec(1))])


def test_cover_probe_enforces_the_slope_before_any_geometric_lower():
    # the golden-mean net on a 4-cell window is small, but no geometric
    # lower bound is computed for it: the slope fails and the probe raises
    spec = SelfSimilarSpec(omega=golden_mean(), values=(0, 1),
                           c=Fraction(1, 2))
    grid = [spec.c ** j for j in range(2, 9)]
    with pytest.raises(ProbeViolation, match="slope .* on window of size 4"):
        selfsimilar_cover_probe(spec, grid, [box(4, GroupSpec(1))])


def test_probe_row_keys_are_pinned():
    # the 512-cell window of the benchmark
    spec = SelfSimilarSpec(omega=golden_mean(), values=(0, 1),
                           c=Fraction(1, 2))
    grid = [spec.c ** j for j in range(2, 9)]
    report = selfsimilar_cover_probe(spec, grid, [box(512, GroupSpec(1))])
    assert set(report) == {"bound", "slack", "rows", "slopes"}
    assert len(report["rows"]) == len(grid)
    for row in report["rows"]:
        assert set(row) == {"window", "eps", "net_radius", "depth",
                            "net_count", "log_upper", "per_site_upper",
                            "normalized"}


FAST = SelfSimilarSpec(omega=full_shift(2), values=(0, 1), c=Fraction(1, 2),
                       weights=WeightScheme(1, Fraction(1, 1000)))


@pytest.mark.parametrize("spec", [FULL, FAST, GOLDEN3],
                         ids=["full", "fast-weights", "golden3"])
@pytest.mark.parametrize("grid_length", [2, 3, 6])
def test_probe_builds_and_counts_each_net_once_per_orbit(
        monkeypatch, spec, grid_length):
    import meandim.selfsimilar as selfsimilar
    calls = {"count_patterns": 0, "minkowski_sum": 0}
    for name in calls:
        original = getattr(selfsimilar, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(selfsimilar, name, counted)
    enumerated = 0

    def profile(frame, event, arg):
        nonlocal enumerated
        if event == "call" and frame.f_code is enumerate_patterns.__code__:
            enumerated += 1

    grid = [Fraction(1, 2) ** j for j in range(8 - grid_length, 8)]
    # windows wide enough for the slope to pass on every spec and grid
    orbits = [box(256, GroupSpec(1)), box(320, GroupSpec(1))]
    sys.setprofile(profile)
    try:
        report = selfsimilar_cover_probe(spec, grid, orbits)
    finally:
        sys.setprofile(None)
    assert len(report["rows"]) == len(orbits) * grid_length
    assert calls["count_patterns"] == len(orbits)
    assert calls["minkowski_sum"] == len(orbits)
    assert enumerated == 0
