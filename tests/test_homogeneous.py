import math
from fractions import Fraction

import pytest

import meandim.homogeneous as homogeneous
from meandim.groups import CapExceeded, FolnerDescriptor
from meandim.subshifts import Alphabet, Rule, SubshiftSpec
from meandim.homogeneous import (HomogeneousSpec, homogeneous_covering_probe,
                                 homogeneous_gxn_entropy,
                                 homogeneous_slope_series)
from meandim.groups import GroupSpec, ball
from meandim.metrics import WeightScheme
from oracles import (ScaledOrbit, circle_cover_count, digit_cloud,
                     separated_set, stepped_digit_depth)

LOG_PHI = math.log((1 + math.sqrt(5)) / 2)

FULL2 = HomogeneousSpec(base=2, digit_spec=SubshiftSpec(
    2, Alphabet(2), Rule.full(2), "digits-full"))
VGOLD = HomogeneousSpec(base=2, digit_spec=SubshiftSpec(
    2, Alphabet(2), Rule.nearest_neighbor(2, {1: [(1, 1)]}),
    "digits-vertical-golden"))
FROZEN = HomogeneousSpec(base=2, digit_spec=SubshiftSpec(
    2, Alphabet(2), Rule.cellwise(2, [0]), "digits-frozen"))


def fib(n):
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def test_spec_validation():
    with pytest.raises(ValueError):
        HomogeneousSpec(base=1, digit_spec=FULL2.digit_spec)
    with pytest.raises(ValueError):
        HomogeneousSpec(base=3, digit_spec=FULL2.digit_spec)


def test_spec_rejects_weights_of_another_rank():
    # the digits live on Z^1 x N, so the weights must be on Z^1
    with pytest.raises(ValueError, match="weights rank must match"):
        HomogeneousSpec(base=2, digit_spec=FULL2.digit_spec,
                        weights=WeightScheme(2, Fraction(1, 4)))


def test_full_digit_prediction_is_one():
    out = homogeneous_gxn_entropy(FULL2, FolnerDescriptor("boxes", (1, 2)),
                                  depths=(2, 4, 8))
    assert abs(out["prediction"] - 1.0) <= 1e-9


def test_frozen_digits_prediction_zero():
    out = homogeneous_gxn_entropy(FROZEN, FolnerDescriptor("boxes", (1,)),
                                  depths=(2, 4))
    assert out["prediction"] == pytest.approx(0.0)


def test_vertical_golden_counts_and_prediction():
    out = homogeneous_gxn_entropy(VGOLD, FolnerDescriptor("boxes", (1,)),
                                  depths=(4, 8, 16))
    series = out["series"]
    for row in series.rows:
        assert row.log_count == pytest.approx(math.log(fib(row.depth + 2)))
    assert abs(out["prediction"] - LOG_PHI / math.log(2)) < 0.02


def test_digit_cloud_exactness():
    cloud = digit_cloud(FULL2, ball(0, GroupSpec(1)), depth=3)
    vals = sorted(p[0] for p in cloud.points)
    assert vals == [Fraction(k, 8) for k in range(8)]


def test_digit_depth_matches_the_stepped_loop():
    for base in range(2, 6):
        # eps from 1/2 to 1/10^6, with every b^-N and its two neighbours
        dens = set(range(2, 41)) | {10**3, 10**6}
        dens |= {base ** k + d for k in range(1, 20) for d in (-1, 0, 1)
                 if 2 <= base ** k + d <= 10**6}
        for eps in (Fraction(1, d) for d in sorted(dens)):
            assert homogeneous._digit_depth(base, eps) \
                == stepped_digit_depth(base, eps), (base, eps)


def test_digit_depth_obeys_the_radius_cap():
    # N - 1 is the searched index, so N = 10^6 + 1 is the deepest N
    eps = Fraction(1, 2 ** (10**6 + 1))
    assert homogeneous._digit_depth(2, eps) == 10**6 + 1
    with pytest.raises(CapExceeded, match="^radius cap 1000000 exceeded: "
                       "digit depth of base 2 needs radius >= 1000001$"):
        homogeneous._digit_depth(2, eps / 2)


def test_probe_inequality_small_windows():
    rows = homogeneous_covering_probe(FULL2, FolnerDescriptor("boxes", (1,)),
                                      [Fraction(1, 8)])
    row = rows[0]
    assert row.implication_ok
    assert row.left_lower <= row.right_upper
    assert row.pairs_checked == row.cloud_size * (row.cloud_size - 1) // 2


def test_probe_inequality_vertical_golden():
    rows = homogeneous_covering_probe(VGOLD, FolnerDescriptor("boxes", (1,)),
                                      [Fraction(1, 4), Fraction(1, 8)])
    for row in rows:
        assert row.implication_ok
        assert row.left_lower <= row.right_upper


def test_probe_rows_are_pinned():
    rows = homogeneous_covering_probe(FULL2, FolnerDescriptor("boxes", (1,)),
                                      [Fraction(1, 8), Fraction(1, 16),
                                       Fraction(1, 32)])
    got = [(r.pairs_checked, r.left_lower, r.left_upper, r.right_lower,
            r.right_upper) for r in rows]
    assert got == [(120, 8, 8, 16, 16), (496, 16, 16, 32, 32),
                   (2016, 32, 32, 64, 64)]


def test_one_probe_violation_class():
    import meandim.homogeneous
    import meandim.selfsimilar
    assert meandim.selfsimilar.ProbeViolation is \
        meandim.homogeneous.ProbeViolation


def test_probe_singleton_cloud():
    rows = homogeneous_covering_probe(FROZEN, FolnerDescriptor("boxes", (1,)),
                                      [Fraction(1, 8)])
    assert rows[0].left_lower == rows[0].right_upper == 1


def test_slope_series_tracks_prediction():
    rows = homogeneous_slope_series(FULL2, [Fraction(1, 2 ** 4),
                                            Fraction(1, 2 ** 8)])
    assert abs(rows[-1]["slope"] - 1.0) <= 0.1
    rows2 = homogeneous_slope_series(VGOLD, [Fraction(1, 2 ** 8)])
    assert abs(rows2[-1]["slope"] - LOG_PHI / math.log(2)) <= 0.1


def test_slope_series_rejects_slowly_decaying_weights():
    slow = HomogeneousSpec(base=2, digit_spec=FULL2.digit_spec,
                           weights=WeightScheme(1, Fraction(1, 2)))
    with pytest.raises(ValueError, match="weights decay too slowly for this eps"):
        homogeneous_slope_series(slow, [Fraction(1, 4)])


# ---------------------------------------------------------------------------
# integer pair rows against the Fraction reference

def _spec(base, rule, rho=None):
    return HomogeneousSpec(
        base=base, digit_spec=SubshiftSpec(2, Alphabet(base), rule, "digits"),
        weights=None if rho is None else WeightScheme(1, Fraction(rho)))


FULL2_RHO3 = _spec(2, Rule.full(2), "1/3")
FULL3_RHO3 = _spec(3, Rule.full(3), "1/3")
VGOLD_RHO3 = _spec(2, Rule.nearest_neighbor(2, {1: [(1, 1)]}), "1/3")

# (spec, boxes, eps grid, extra depth) -> rows as the Fraction
# implementation reported them: (n, eps, N, cloud size, implication,
# pairs, left lower, left upper, right lower, right upper)
PROBE_PINS = [
    (FULL2, (1, 2), ("1/4", "1/8"), 1,
     [(1, 0.25, 2, 8, True, 28, 4, 4, 8, 8),
      (1, 0.125, 3, 16, True, 120, 8, 8, 16, 16),
      (2, 0.25, 2, 64, True, 2016, 16, 32, 64, 64),
      (2, 0.125, 3, 256, True, 32640, 64, 128, 256, 256)]),
    (FULL3_RHO3, (1,), ("1/2", "1/3"), 0,
     [(1, 0.5, 1, 243, True, 29403, 3, 9, 243, 243),
      (1, 1 / 3, 1, 243, True, 29403, 3, 21, 243, 243)]),
    (FULL2_RHO3, (1,), ("1/2",), 0,
     [(1, 0.5, 1, 32, True, 496, 2, 8, 32, 32)]),
    (VGOLD_RHO3, (1,), ("1/2",), 1,
     [(1, 0.5, 1, 243, True, 29403, 3, 11, 243, 243)]),
]
PIN_IDS = ["full2", "full3-rho3", "full2-rho3", "vgold-rho3"]


def _run_pin(monkeypatch, spec, boxes, grid, extra):
    monkeypatch.setattr(homogeneous, "EXTRA_DEPTH", extra)
    rows = homogeneous_covering_probe(spec, FolnerDescriptor("boxes", boxes),
                                      [Fraction(e) for e in grid])
    return [tuple(r.__dict__.values()) for r in rows]


@pytest.mark.parametrize("spec, boxes, grid, extra, expected", PROBE_PINS,
                         ids=PIN_IDS)
def test_probe_rows_match_the_fraction_implementation(monkeypatch, spec, boxes,
                                                      grid, extra, expected):
    assert _run_pin(monkeypatch, spec, boxes, grid, extra) == expected


@pytest.mark.parametrize("spec, boxes, grid, extra, expected", PROBE_PINS,
                         ids=PIN_IDS)
def test_python_int_path_gives_the_same_rows(monkeypatch, spec, boxes, grid,
                                             extra, expected):
    import meandim.metrics as metrics
    monkeypatch.setattr(metrics, "_INT64_LIMIT", 0)
    assert homogeneous.exact_int_dtype(2) is object
    assert _run_pin(monkeypatch, spec, boxes, grid, extra) == expected


# (spec, n, eps, extra depth): clouds checked against the Fraction metrics
PAIR_TABLE_CLOUDS = [
    (FULL2, 2, Fraction(1, 8), 1),
    (FULL2_RHO3, 1, Fraction(1, 2), 1),
    (FULL3_RHO3, 1, Fraction(1, 3), 0),
    (VGOLD_RHO3, 1, Fraction(1, 2), 1)]


@pytest.mark.parametrize("spec, n, eps, extra", PAIR_TABLE_CLOUDS)
def test_pair_tables_match_fraction_metrics(spec, n, eps, extra):
    # numerators / den equal ProductMetric (left) and ScaledOrbit (right);
    # the blocks, pairs i <= j, are stacked into the tables they stand for
    import numpy as np
    from meandim.groups import Caps, box, minkowski_sum
    from meandim.homogeneous import _digit_depth, _pair_rows
    from meandim.metrics import ProductMetric, tail_support
    group = GroupSpec(1)
    fwin = box(n, group)
    depth_n = _digit_depth(spec.base, eps)
    orbit = minkowski_sum(tail_support(spec.weights, eps), fwin)
    streamed, den, blocks = _pair_rows(spec, fwin, orbit, depth_n + extra,
                                       depth_n, 4000, Caps())
    left, right = (np.zeros((streamed, streamed), dtype=object)
                   for _ in range(2))
    for i0, *sides in blocks:
        for table, side in zip((left, right), sides):
            table[i0:i0 + len(side), i0:] = side
    left, right = (np.maximum(t, t.T) for t in (left, right))
    cloud = digit_cloud(spec, orbit, depth_n + extra, 4000)
    left_ref = ProductMetric(spec.weights, orbit, "torus",
                             shifts=fwin.elements)
    right_ref = ScaledOrbit.build(
        ProductMetric(spec.weights, orbit, "torus", shifts=orbit.elements),
        cloud, depth_n)
    pts, stacks = cloud.points, right_ref.points
    size = len(pts)
    assert streamed == size
    assert left.shape == right.shape == (size, size)
    step = max(1, size // 12)
    for i in range(0, size, step):
        for j in list(range(0, size, step)) + [size - 1]:
            assert Fraction(int(left[i, j]), den) == \
                left_ref.interval(pts[i], pts[j])[0]
            assert Fraction(int(right[i, j]), den) == \
                right_ref.interval(stacks[i], stacks[j])[0]


@pytest.mark.parametrize("spec, n, eps, extra", PAIR_TABLE_CLOUDS)
def test_probe_lower_counts_match_fraction_separated_sets(monkeypatch, spec, n,
                                                          eps, extra):
    # the greedy walk with bound e - 1 keeps what separated_set keeps
    from meandim.groups import Caps, box, minkowski_sum
    from meandim.homogeneous import _digit_depth, _greedy_counts, _pair_rows
    from meandim.metrics import ProductMetric, tail_support
    group = GroupSpec(1)
    fwin = box(n, group)
    depth_n = _digit_depth(spec.base, eps)
    orbit = minkowski_sum(tail_support(spec.weights, eps), fwin)
    cloud = digit_cloud(spec, orbit, depth_n + extra, 4000)
    left_ref = ProductMetric(spec.weights, orbit, "torus",
                             shifts=fwin.elements)
    monkeypatch.setattr(homogeneous, "EXTRA_DEPTH", extra)
    [row] = homogeneous_covering_probe(spec, FolnerDescriptor("boxes", (n,)),
                                       [eps])
    assert row.cloud_size == len(cloud.points)
    assert row.left_lower == len(separated_set(cloud, left_ref, eps))
    # the Fraction right metric over a whole cloud takes minutes, so the
    # right walk is compared on the first 64 points, their rows cut to 64
    # columns: a greedy set in index order restricted to a prefix is the
    # greedy set of that prefix
    right_ref = ScaledOrbit.build(
        ProductMetric(spec.weights, orbit, "torus", shifts=orbit.elements),
        cloud, depth_n)
    threshold = Fraction(1, 2 * spec.weights.total_upper() * spec.base)
    _, den, blocks = _pair_rows(spec, fwin, orbit, depth_n + extra, depth_n,
                                4000, Caps())
    k = 64
    prefix = ((i0, right[:k - i0, :k - i0]) for i0, _, right in blocks
              if i0 < k)
    assert _greedy_counts(prefix, k, [(0, math.ceil(threshold * den) - 1)]) \
        == [len(separated_set(right_ref, right_ref, threshold,
                              indices=range(k)))]


def test_probe_builds_no_pair_table():
    # the probe streams its pair rows: on a 1024-point cloud its traced peak
    # stays below a single n x n int64 table (8 MiB)
    import tracemalloc
    tracemalloc.start()
    try:
        [row] = homogeneous_covering_probe(
            FULL2, FolnerDescriptor("boxes", (1,)), [Fraction(1, 512)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert row.cloud_size == 1024
    assert peak < 1024 * 1024 * 8


def _forced_violation(monkeypatch):
    """With N forced to 1 the right metric sees only x itself, so the pair
    (0, 1) of a depth-5 cloud at distance 1/32 breaks the implication at
    eps = 1/32: (eps, the message of the first pair the Fraction loop
    finds)."""
    from meandim.groups import box
    from meandim.metrics import ProductMetric
    monkeypatch.setattr(homogeneous, "_digit_depth", lambda base, eps: 1)
    monkeypatch.setattr(homogeneous, "EXTRA_DEPTH", 4)
    eps = Fraction(1, 32)
    fwin = box(1, GroupSpec(1))
    cloud = digit_cloud(FULL2, fwin, 5)
    threshold = Fraction(1, 2 * FULL2.weights.total_upper() * 2)
    left = ProductMetric(FULL2.weights, fwin, "torus", shifts=fwin.elements)
    right = ScaledOrbit.build(
        ProductMetric(FULL2.weights, fwin, "torus", shifts=fwin.elements),
        cloud, 1)
    pts = cloud.points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d_right = right.interval(right.points[i], right.points[j])[0]
            d_left = left.interval(pts[i], pts[j])[0]
            if d_right < threshold and not d_left < eps:
                return eps, (f"pair {i},{j}: right distance "
                             f"{float(d_right):.6g} < {float(threshold):.6g} "
                             f"but left distance {float(d_left):.6g} >= eps "
                             f"{float(eps):.6g}")
    return eps, None


def test_probe_violation_names_the_reference_pair(monkeypatch):
    # the message matches the first pair the Fraction loop finds
    from meandim.metrics import ProbeViolation
    eps, expected = _forced_violation(monkeypatch)
    assert expected is not None and expected.startswith("pair 0,1:")
    with pytest.raises(ProbeViolation) as info:
        homogeneous_covering_probe(FULL2, FolnerDescriptor("boxes", (1,)),
                                   [eps])
    assert str(info.value) == expected


# element budgets of one row per block, a few rows (13 to 16 on the
# largest pinned clouds) and the whole cloud
@pytest.mark.parametrize("budget", [1, 20000, 1 << 40],
                         ids=["one-row", "few-rows", "whole-cloud"])
def test_pair_blocks_of_any_size_give_the_same_probe(monkeypatch, budget):
    from meandim.metrics import ProbeViolation
    monkeypatch.setattr(homogeneous, "_PAIR_BLOCK", budget)
    for spec, boxes, grid, extra, expected in PROBE_PINS:
        assert _run_pin(monkeypatch, spec, boxes, grid, extra) == expected
    eps, message = _forced_violation(monkeypatch)
    with pytest.raises(ProbeViolation) as info:
        homogeneous_covering_probe(FULL2, FolnerDescriptor("boxes", (1,)),
                                   [eps])
    assert str(info.value) == message


def _split_rows(tables, rows):
    """The upper-right parts (columns from i0 on) of square tables, cut
    into blocks of `rows` rows as `_pair_rows` yields them."""
    size = len(tables[0])
    for i0 in range(0, size, rows):
        yield (i0, *(t[i0:i0 + rows, i0:] for t in tables))


@pytest.mark.parametrize("rows", [1, 3, 7, 40])
def test_block_consumers_match_a_pair_loop(rows):
    # random symmetric tables: the implication check names the first bad
    # pair i < j in row-major order, past the first block of up to 7 rows,
    # and the greedy walks count what a per-pair loop counts
    import numpy as np
    from meandim.metrics import ProbeViolation
    rng = np.random.default_rng(5)
    size, den = 40, 100
    left, right = (np.triu(rng.integers(0, den, (size, size)), 1)
                   for _ in range(2))
    right[:8] = den - 1  # no bad pair in the first 8 rows
    left, right = left + left.T, right + right.T
    eps, threshold = Fraction(3, 4), Fraction(1, 10)
    ok = (right >= threshold * den) | (left < eps * den)
    first = min((i, j) for i in range(size) for j in range(i + 1, size)
                if not ok[i, j])
    assert first[0] >= 8
    message = (f"pair {first[0]},{first[1]}: right distance "
               f"{float(Fraction(int(right[first]), den)):.6g} < 0.1 but "
               f"left distance {float(Fraction(int(left[first]), den)):.6g}"
               f" >= eps 0.75")
    with pytest.raises(ProbeViolation) as info:
        list(homogeneous._implication_checked(
            _split_rows((left, right), rows), eps, threshold, den))
    assert str(info.value) == message
    walks = [(side, bound) for side in (0, 1) for bound in (9, 30, 70)]
    expected = []
    for side, bound in walks:
        table, kept = (left, right)[side], []
        for i in range(size):
            if all(table[i, j] > bound for j in kept):
                kept.append(i)
        expected.append(len(kept))
    assert homogeneous._greedy_counts(_split_rows((left, right), rows), size,
                                      walks) == expected


# ---------------------------------------------------------------------------
# integer circle covers against the Fraction reference

def _reference_cover(codes, modulus, budget):
    return circle_cover_count([Fraction(c, modulus) for c in codes], budget)


@pytest.mark.parametrize("python_ints", [False, True])
def test_integer_circle_cover_matches_fraction_reference(monkeypatch,
                                                         python_ints):
    import random
    import meandim.metrics as metrics
    from meandim.homogeneous import _circle_cover_codes
    if python_ints:
        monkeypatch.setattr(metrics, "_INT64_LIMIT", 0)
    rng = random.Random(20240)
    for _ in range(1500):
        modulus = rng.choice([2, 3, 8, 27, 64, 100, 2 ** 10])
        # repeats are likely: up to 40 draws from as few as 2 codes
        codes = [rng.randrange(modulus) for _ in range(rng.randint(1, 40))]
        budget = Fraction(rng.randint(1, 3 * modulus),
                          rng.randint(1, 2 * modulus))
        assert _circle_cover_codes(codes, modulus, budget) == \
            _reference_cover(codes, modulus, budget), (codes, modulus, budget)


@pytest.mark.parametrize("codes, modulus, budget, count", [
    ([], 8, Fraction(1, 4), 0),
    ([5], 8, Fraction(1, 100), 1),                  # a single point
    ([3, 3, 3], 8, Fraction(1, 100), 1),            # one point, repeated
    ([0, 7], 8, Fraction(1, 4), 1),                 # one arc wraps past 0
    ([0, 1, 6, 7], 8, Fraction(1, 2), 1),           # wraps, reaches 6 to 1
    ([0, 1, 6, 7], 8, Fraction(3, 8), 2),           # span 3/8 is not < 3/8
    ([0, 1, 6, 7], 8, Fraction(1, 4), 2),
    ([0, 1, 2, 3, 4, 5, 6, 7], 8, Fraction(1, 8), 8),  # arcs of one code
    ([0, 2, 4, 6], 8, Fraction(1), 1),              # budget 1 covers all
    ([0, 2, 4, 6], 8, Fraction(7, 2), 1),           # and so does more
    ([0, 2 ** 70 + 1, 2 ** 71], 2 ** 72, Fraction(1, 4), 2)])  # Python ints
def test_integer_circle_cover_edge_cases(codes, modulus, budget, count):
    from meandim.homogeneous import _circle_cover_codes
    assert _circle_cover_codes(codes, modulus, budget) == count
    assert _reference_cover(codes, modulus, budget) == count


@pytest.mark.parametrize("spec, eps_list", [
    (FULL2, [Fraction(1, 2 ** 4), Fraction(1, 2 ** 8)]),
    (VGOLD, [Fraction(1, 8), Fraction(1, 2 ** 8)]),
    (FROZEN, [Fraction(1, 8)])], ids=["full", "vertical-golden", "frozen"])
def test_slope_series_counts_match_the_fraction_reference(spec, eps_list):
    # the product over window cells of circle_cover_count on the Fraction
    # digit cloud, as the series counted before it moved to integer codes
    from meandim.homogeneous import _digit_depth
    fwin = FolnerDescriptor("boxes", (1,)).window(1, GroupSpec(1))
    for eps, row in zip(eps_list, homogeneous_slope_series(spec, eps_list)):
        budget = eps / spec.weights.total_upper() - spec.weights.tail_upper(1)
        cloud = digit_cloud(spec, fwin, _digit_depth(2, eps) + 1)
        count = 1
        for g in range(len(fwin)):
            count *= circle_cover_count(sorted({p[g] for p in cloud.points}),
                                        budget)
        assert row["count"] == count
