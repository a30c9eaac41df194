import math
import random
from fractions import Fraction
from itertools import islice, product

import numpy as np
import pytest

from meandim.groups import CapExceeded, GroupSpec, ball
from meandim.subshifts import (Alphabet, Rule, SubshiftSpec,
                               cellwise_pair_shift, full_shift, golden_mean,
                               mcmullen_shift, pair_shift_with_b_rule)
from meandim.carpet import (PROBE_QUANTILES, CarpetMeasure, CarpetSpec,
                            _linear_quantiles, _uniforms,
                            carpet_dimension_report, floor_wl, mdim_h_carpet,
                            mdim_m_carpet, sandwich_check,
                            shannon_mcmillan_probe)
from oracles import (box_gap, carpet_representatives, cell_boxes,
                     enumerate_psi_cells, linf_pair_distance, psi_cells,
                     separation_pigeonhole_check, stepped_floor_wl)

MCMULLEN = CarpetSpec(a=4, b=2, omega=mcmullen_shift())
FULL22 = CarpetSpec(a=2, b=2, omega=full_shift((2, 2)))
FULL32 = CarpetSpec(a=3, b=2, omega=full_shift((3, 2)))
GOLDEN_B = CarpetSpec(a=2, b=2, omega=pair_shift_with_b_rule(2, golden_mean()))
# no two adjacent cells both carry A digit 1: a rule on A across cells, for
# which `projected_spec` returns None
PAIRED_A = CarpetSpec(a=2, b=2, omega=SubshiftSpec(
    1, Alphabet(4, pair=(2, 2)),
    Rule.nearest_neighbor(4, {0: [(2, 2), (2, 3), (3, 2), (3, 3)]})))


def test_spec_validation():
    with pytest.raises(ValueError):
        CarpetSpec(a=2, b=3, omega=full_shift((2, 3)))
    with pytest.raises(ValueError):
        CarpetSpec(a=3, b=2, omega=full_shift(6))


def test_floor_wl_exact():
    assert floor_wl(4, 2, 4) == 2
    assert floor_wl(2, 2, 7) == 7
    assert floor_wl(3, 2, 5) == 3  # 3^3 = 27 <= 32 < 81
    # never off by one against the float value away from integer boundaries
    for a, b, l in [(5, 2, 9), (9, 3, 7), (8, 2, 11)]:
        k = floor_wl(a, b, l)
        assert a ** k <= b ** l < a ** (k + 1)


def test_floor_wl_matches_the_stepped_loop():
    for a, b, l in product(range(2, 8), range(2, 8), range(41)):
        assert floor_wl(a, b, l) == stepped_floor_wl(a, b, l), (a, b, l)


def test_floor_wl_obeys_the_radius_cap():
    # floor(l log_2 2) = l, and the search may return the cap itself
    assert floor_wl(2, 2, 10**6) == 10**6
    with pytest.raises(CapExceeded, match=r"^radius cap 1000000 exceeded: "
                       r"floor\(1000001 log_2 2\) needs radius >= 1000001$"):
        floor_wl(2, 2, 10**6 + 1)


def test_mdim_m_closed_forms():
    assert mdim_m_carpet(math.log(6), math.log(2), 3, 2) == pytest.approx(2.0)
    # fiber-trivial collapse: h' = h gives h / log b
    h = 0.7310
    assert mdim_m_carpet(h, h, 4, 2) == pytest.approx(h / math.log(2))
    assert mdim_m_carpet(math.log(3), math.log(2), 4, 2) == pytest.approx(
        math.log(3) / math.log(4) + 0.5)


def test_mdim_h_closed_forms():
    assert mdim_h_carpet(2 * math.log(2), 2) == pytest.approx(2.0)
    assert mdim_h_carpet(math.log(1 + math.sqrt(2)), 2) == pytest.approx(
        math.log2(1 + math.sqrt(2)))
    # formulas coincide at a = b
    h = 0.493
    assert mdim_h_carpet(h, 2) == pytest.approx(mdim_m_carpet(h, h, 2, 2))


def test_formula_identity_at_w_one_on_grid():
    for h in (0.0, 0.2, 0.7, 1.3):
        assert mdim_m_carpet(h, h, 2, 2) == pytest.approx(mdim_h_carpet(h, 2))


def test_representatives_counts():
    pts, _ = carpet_representatives(FULL22, 0, 1)
    assert len(pts) == 4
    values = {(p[0][0], p[0][1]) for p in pts}
    assert values == {(Fraction(0), Fraction(0)), (Fraction(0), Fraction(1, 2)),
                      (Fraction(1, 2), Fraction(0)),
                      (Fraction(1, 2), Fraction(1, 2))}
    pts2, _ = carpet_representatives(MCMULLEN, 0, 2)
    assert len(pts2) == 6
    pts3, _ = carpet_representatives(MCMULLEN, 0, 0)
    assert len(pts3) == 1


def test_oracle_cloud_cap_bounds_only_the_cloud():
    # McMullen at l = 1 has 3 patterns and 2 cells: the patterns are input,
    # so a cap of 2 admits the 2-point cloud and the 2 cells, and a cap of 1
    # stops both
    from meandim.groups import CapExceeded
    pts, _ = carpet_representatives(MCMULLEN, 0, 1, cap=2)
    assert len(pts) == 2
    assert len(enumerate_psi_cells(MCMULLEN, 0, 1, limit=10, cap=2)) == 2
    with pytest.raises(CapExceeded, match="^cloud cap 1 exceeded: "
                       "representative cloud of depth 1 needs 2 points$"):
        carpet_representatives(MCMULLEN, 0, 1, cap=1)
    with pytest.raises(CapExceeded, match="^cloud cap 1 exceeded: "):
        enumerate_psi_cells(MCMULLEN, 0, 1, limit=10, cap=1)
    assert len(enumerate_psi_cells(MCMULLEN, 0, 1, limit=1, cap=1)) == 1


def test_representatives_pairwise_separation_explicit():
    # exhaustive exact distances at window m = 0
    for spec, l in ((FULL22, 3), (MCMULLEN, 4)):
        pts, _ = carpet_representatives(spec, 0, l)
        scale = Fraction(1, spec.b ** l)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                assert linf_pair_distance(pts[i], pts[j]) >= scale


def test_sandwich_full_and_mcmullen():
    for spec in (FULL22, MCMULLEN):
        for m in (0, 1):
            for l in (1, 2, 3, 4):
                rep = sandwich_check(spec, m, l)
                assert rep.ok
                assert rep.separated_count >= rep.lower_product
                assert rep.cover_count <= rep.upper_product


def test_sandwich_sample_counts_are_not_parameters():
    # a zero sample count once divided by zero; the counts are now fixed
    with pytest.raises(TypeError):
        sandwich_check(MCMULLEN, 0, 3, cell_samples=0)
    with pytest.raises(TypeError):
        sandwich_check(MCMULLEN, 0, 3, cell_limit=0)


def test_sandwich_equality_on_full_shift():
    rep = sandwich_check(FULL22, 0, 3)
    assert rep.separated_count == rep.lower_product == 4 ** 3


def test_sandwich_explicit_mode_agrees_with_product_mode():
    lifted = CarpetSpec(a=2, b=2, omega=pair_shift_with_b_rule(2, golden_mean()))
    rep = sandwich_check(lifted, 0, 2)
    assert rep.mode == "explicit"
    assert rep.ok


@pytest.mark.parametrize("spec, m, l, mode, pairs, product", [
    (GOLDEN_B, 0, 3, "explicit", 2400, 64),
    (MCMULLEN, 1, 3, "product", 363, 1728)])
def test_sandwich_work_is_pinned(spec, m, l, mode, pairs, product):
    # the window choice and the pairs compared on it, per mode
    rep = sandwich_check(spec, m, l)
    assert rep.ok
    assert (rep.mode, rep.pairs_checked, rep.lower_product) == (mode, pairs,
                                                                product)


def test_sandwich_empty_system():
    dead = CarpetSpec(a=2, b=2,
                      omega=cellwise_pair_shift(2, 2, []))
    rep = sandwich_check(dead, 0, 2)
    assert rep.lower_product == 0
    assert rep.cover_count == 0


def test_measure_normalization():
    for spec, m in ((MCMULLEN, 0), (MCMULLEN, 1), (FULL32, 0), (FULL22, 1)):
        measure = CarpetMeasure.build(spec, m)
        err_f, err_fp = measure.normalization_error()
        assert err_f < 1e-12
        assert err_fp < 1e-12


def test_mu_psi_examples():
    # a one-digit cylinder past floor(w l) = 0 is one marginal factor
    measure = CarpetMeasure.build(MCMULLEN, 0)
    expect = math.log(math.sqrt(2) / (1 + math.sqrt(2)))
    assert measure.log_f_marginal(bytes([0])) == pytest.approx(expect,
                                                               abs=1e-12)


def test_mu_psi_uniform_at_w_one():
    # w = 1 makes every depth a pair factor, each -log 4 on the full shift
    measure = CarpetMeasure.build(FULL22, 0)
    for l in (1, 2, 3):
        cells = enumerate_psi_cells(FULL22, 0, l, limit=6)
        for cell in cells:
            assert len(cell.x_prefix) == l
            total = math.fsum(measure.log_f_pair(v) for v in cell.y_prefix)
            assert total == pytest.approx(-l * math.log(4))


def test_shannon_mcmillan_uniform_case_is_exact():
    measure = CarpetMeasure.build(FULL22, 0)
    rep = shannon_mcmillan_probe(measure, l=32, sample_count=200, seed=5)
    assert rep.mean == pytest.approx(0.0, abs=1e-12)
    assert rep.within_delta == 1.0


def test_shannon_mcmillan_mcmullen_concentrates():
    measure = CarpetMeasure.build(MCMULLEN, 0)
    rep = shannon_mcmillan_probe(measure, l=256, sample_count=10_000, seed=11)
    assert abs(rep.mean) < 0.05
    assert rep.within_delta > 0.9


def test_shannon_mcmillan_probe_repeats_for_a_seed():
    measure = CarpetMeasure.build(MCMULLEN, 0)
    first, second, other = (
        shannon_mcmillan_probe(measure, l=16, sample_count=500, seed=seed)
        for seed in (3, 3, 4))
    assert first == second
    assert other.mean != first.mean


def test_shannon_mcmillan_probe_rejects_negative_seeds():
    measure = CarpetMeasure.build(MCMULLEN, 0)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        shannon_mcmillan_probe(measure, l=4, sample_count=10, seed=-1)


def test_probe_uniforms_are_53_bit_floats_in_the_unit_interval():
    u = _uniforms(random.Random(3), 20_000)
    assert u.dtype == np.float64 and len(u) == 20_000
    assert 0.0 <= u.min() and u.max() < 1.0
    assert np.all(u * 2.0 ** 53 == np.floor(u * 2.0 ** 53))
    assert abs(u.mean() - 0.5) < 0.01


@pytest.mark.parametrize("n", [1, 2, 7, 2000])
def test_linear_quantiles_equal_numpy_quantile(n):
    # ties and unsorted input, at the probe's quantiles and at the ends
    rng = random.Random(n)
    values = np.array([rng.choice((rng.gauss(0, 1), 0.25)) for _ in range(n)])
    qs = (0.0,) + PROBE_QUANTILES + (1.0,)
    got = _linear_quantiles(values, qs)
    assert got.tolist() == np.quantile(values, qs).tolist()


def test_shannon_mcmillan_empty_report():
    measure = CarpetMeasure.build(MCMULLEN, 0)
    rep = shannon_mcmillan_probe(measure, l=4, sample_count=0, seed=1)
    assert rep.samples == 0


def test_pigeonhole_witness_small():
    cells = enumerate_psi_cells(FULL22, 0, 2, limit=5)
    i, j, gap = separation_pigeonhole_check(FULL22, 0, 2, cells)
    assert gap >= Fraction(1, 4)
    assert i != j


def test_pigeonhole_witness_all_cells():
    cells = enumerate_psi_cells(FULL22, 0, 3, limit=64)
    i, j, gap = separation_pigeonhole_check(FULL22, 0, 3, cells)
    assert gap >= Fraction(1, 8)


def test_pigeonhole_grid_spacing_case():
    # identical y prefixes, x prefixes differing early: gap at least a^-wl
    cells = enumerate_psi_cells(MCMULLEN, 0, 2, limit=100)
    same_y = [c for c in cells if c.y_prefix == cells[0].y_prefix]
    assert len(same_y) >= 2
    a, b = 4, 2
    spec = MCMULLEN
    x1, y1, wx, wy = cell_boxes(spec, same_y[0], 1)
    x2, y2, _, _ = cell_boxes(spec, same_y[1], 1)
    assert box_gap(x1[0], x2[0], wx) >= Fraction(1, b ** 2) or \
        box_gap(x1[0], x2[0], wx) == 0


def test_pigeonhole_requirements():
    cells = enumerate_psi_cells(FULL22, 0, 2, limit=3)
    with pytest.raises(ValueError):
        separation_pigeonhole_check(FULL22, 0, 2, cells)


def test_pigeonhole_mcmullen_m1():
    size = len(ball(1, GroupSpec(1)))
    need = 4 ** size + 1
    cells = enumerate_psi_cells(MCMULLEN, 1, 3, limit=need)
    assert len(cells) == need
    i, j, gap = separation_pigeonhole_check(MCMULLEN, 1, 3, cells)
    assert gap >= Fraction(1, 8)


def test_dimension_report_mcmullen():
    report = carpet_dimension_report(MCMULLEN, m_max=2, l_max=3)
    assert report["mdim_H"] == pytest.approx(math.log2(1 + math.sqrt(2)),
                                             abs=1e-9)
    assert report["mdim_M"] == pytest.approx(
        math.log(3) / math.log(4) + 0.5, abs=1e-9)
    assert report["mdim_H"] < report["mdim_M"]
    assert report["ordering_ok"]
    assert all(s["ok"] for s in report["sandwich"])


def test_dimension_report_full_carpet():
    report = carpet_dimension_report(FULL32, m_max=1, l_max=2)
    assert report["mdim_M"] == pytest.approx(2.0, abs=1e-9)
    assert report["mdim_H"] == pytest.approx(2.0, abs=1e-9)
    assert report["ordering_ok"]


def test_dimension_report_golden_b_carpet():
    lifted = CarpetSpec(a=2, b=2, omega=pair_shift_with_b_rule(2, golden_mean()))
    report = carpet_dimension_report(lifted, m_max=3, l_max=2,
                                     folner_family="boxes")
    # w = 1 collapses both formulas onto h / log 2
    assert report["mdim_H"] == pytest.approx(report["mdim_M"], abs=1e-9)
    assert report["ordering_ok"]


def test_dimension_report_empty_system():
    dead = CarpetSpec(a=2, b=2, omega=cellwise_pair_shift(2, 2, []))
    report = carpet_dimension_report(dead, m_max=1, l_max=1)
    assert report["empty_system"]
    assert report["mdim_M"] == 0.0 and report["mdim_H"] == 0.0


def test_ambient_weighted_metric_brackets_windowed_linf():
    # the ambient summable-weight metric on carpet points sits between the
    # identity-coordinate distance and total-mass times the windowed sup
    # distance, with the tail interval honest on both ends
    from meandim.metrics import ProductMetric
    pts, window = carpet_representatives(MCMULLEN, 1, 2)
    metric = ProductMetric(MCMULLEN.weights, window, "pair")
    total = MCMULLEN.weights.total_upper()
    for p, q in [(pts[0], pts[1]), (pts[0], pts[-1]), (pts[2], pts[3])]:
        lo, hi = metric.interval(p, q)
        sup = linf_pair_distance(p, q)
        center = max(abs(p[0][0] - q[0][0]), abs(p[0][1] - q[0][1]))
        assert lo >= center  # identity coordinate alone already contributes
        assert lo <= total * sup
        assert hi >= lo
        assert hi - lo <= MCMULLEN.weights.tail_upper(2)


def test_metric_rejects_mismatched_windows():
    from meandim.metrics import ProductMetric
    pts, window = carpet_representatives(MCMULLEN, 0, 1)
    metric = ProductMetric(MCMULLEN.weights, window, "pair")
    with pytest.raises(ValueError):
        metric.interval(pts[0], pts[0] + pts[0])


def test_sandwich_product_reduction_matches_explicit_enumeration():
    # the cellwise reduction asserts that the global minimum pairwise sup
    # distance equals the single-cell minimum; verify it directly on the
    # fully enumerated representative cloud at window size 3
    for spec, l in ((MCMULLEN, 2), (FULL22, 1)):
        pts, _ = carpet_representatives(spec, 1, l)
        scale = Fraction(1, spec.b ** l)
        global_min = min(linf_pair_distance(pts[i], pts[j])
                         for i in range(len(pts))
                         for j in range(i + 1, len(pts)))
        cell_pts, _ = carpet_representatives(spec, 0, l)
        cell_min = min(linf_pair_distance(cell_pts[i], cell_pts[j])
                       for i in range(len(cell_pts))
                       for j in range(i + 1, len(cell_pts)))
        assert global_min == cell_min
        assert global_min >= scale
        rep = sandwich_check(spec, 1, l)
        assert rep.separated_count == len(pts)


# ---------------------------------------------------------------------------
# integer codes against the Fraction reference

def _reference_point(spec, digits, tail):
    """The point as the sum of its digits over powers of the base plus the
    geometric tail, in Fractions, independently of the integer builder."""
    a, b, depth = spec.a, spec.b, len(digits)
    point = []
    for g, t in enumerate(tail):
        x = sum(Fraction(u[g], a ** (n + 1)) for n, (u, _) in enumerate(digits))
        y = sum(Fraction(v[g], b ** (n + 1)) for n, (_, v) in enumerate(digits))
        point.append((x + Fraction(t // b, a ** depth * (a - 1)),
                      y + Fraction(t % b, b ** depth * (b - 1))))
    return tuple(point)


def _level_digits(levels, rows):
    """Digit pairs by depth of the first `rows` points of the product of
    `levels`, first level outermost, as the builder is meant to list them."""
    depths = [n for n, _ in levels]
    for combo in islice(product(*[pairs for _, pairs in levels]), rows):
        yield [d for _, d in sorted(zip(depths, combo), key=lambda t: t[0])]


def _recording_builder(monkeypatch, limit=60):
    """Wrap the cloud builder to log (codes, denom, references) per cloud,
    with the `_reference_point` Fractions of up to `limit` of its rows."""
    import meandim.carpet as carpet
    built = []
    original = carpet._digit_codes

    def record(spec, levels, tail, denom, dtype, cut=None):
        codes = original(spec, levels, tail, denom, dtype, cut)
        size = math.prod(len(pairs) for _, pairs in levels)
        assert len(codes) == (size if cut is None else min(cut, size))
        built.append((codes, denom, [
            _reference_point(spec, digits, tail)
            for digits in _level_digits(levels, min(len(codes), limit))]))
        return codes

    monkeypatch.setattr(carpet, "_digit_codes", record)
    return built


def _check_codes_against_reference(built):
    from meandim.carpet import _pair_blocks
    for codes, denom, ref in built:
        for row, point in zip(codes, ref):
            assert [Fraction(int(c), denom) for c in row] == [
                coord for pair in point for coord in pair]
        pairs = 0
        for i0, dist, later in _pair_blocks(codes[:len(ref)]):
            for r, c in np.argwhere(later):
                i, j, d = i0 + r, i0 + c, dist[r, c]
                assert Fraction(int(d), denom) == linf_pair_distance(ref[i],
                                                                     ref[j])
                pairs += 1
        assert pairs == len(ref) * (len(ref) - 1) // 2


@pytest.mark.parametrize("spec", [MCMULLEN, GOLDEN_B, FULL32],
                         ids=["mcmullen", "golden_b", "full32"])
@pytest.mark.parametrize("m", [0, 1])
@pytest.mark.parametrize("l", [0, 1, 2, 3])
def test_integer_distances_match_fraction_reference(monkeypatch, spec, m, l):
    # codes / D and the integer sup distances / D equal the Fraction points
    # and linf_pair_distance, on representatives and on cell offsets
    import meandim.carpet as carpet
    built = _recording_builder(monkeypatch)
    window = ball(m, spec.omega.group)
    patterns, fibers = carpet._pattern_set_tools(spec, window, 10 ** 6)
    denom = carpet._carpet_denominator(spec.a, spec.b, l + 1)
    dtype = carpet.exact_int_dtype(2 * denom)
    for cell in psi_cells(spec, patterns, fibers, m, l, 3):
        carpet._cell_offsets(spec, patterns, fibers, cell, 48, denom, dtype)
    levels = carpet._representative_levels(spec, patterns, fibers, l, 10 ** 6)
    carpet._digit_codes(spec, levels, patterns[0], denom, dtype)
    _check_codes_against_reference(built)  # a prefix of large clouds
    # the public representatives are the codes over the depth-l denominator
    built.clear()
    pts, _ = carpet_representatives(spec, m, l)
    assert pts[:len(built[0][2])] == built[0][2]


# (spec, m, l) -> (mode, floor_wl, product, pairs_checked, sep, cov), as the
# Fraction implementation reported them
SANDWICH_PINS = {
    ("mcmullen", 0, 0): ("product", 0, 1, 3, "1", "4"),
    ("mcmullen", 0, 1): ("product", 0, 2, 19, "1/2", "2"),
    ("mcmullen", 0, 2): ("product", 1, 6, 69, "1/4", "1"),
    ("mcmullen", 0, 3): ("product", 1, 12, 363, "1/8", "1/2"),
    ("mcmullen", 1, 0): ("product", 0, 1, 3, "1", "4"),
    ("mcmullen", 1, 1): ("product", 0, 8, 19, "1/2", "2"),
    ("mcmullen", 1, 2): ("product", 1, 216, 69, "1/4", "1"),
    ("mcmullen", 1, 3): ("product", 1, 1728, 363, "1/8", "1/2"),
    ("golden_b", 0, 0): ("explicit", 0, 1, 6, "1", "2"),
    ("golden_b", 0, 1): ("explicit", 1, 4, 30, "1/2", "1"),
    ("golden_b", 0, 2): ("explicit", 2, 16, 216, "1/4", "1/2"),
    ("golden_b", 0, 3): ("explicit", 3, 64, 2400, "1/8", "1/4"),
    ("golden_b", 1, 0): ("explicit", 0, 1, 780, "1", "2"),
    ("golden_b", 1, 1): ("explicit", 1, 40, 31980, "1/2", "1"),
    ("golden_b", 1, 2): ("explicit", 2, 1600, 1678560, "1/4", "1/2"),
    ("full32", 0, 0): ("product", 0, 1, 15, "1", "3"),
    ("full32", 0, 1): ("product", 0, 2, 307, "1/2", "3/2"),
    ("full32", 0, 2): ("product", 1, 12, 1902, "1/4", "3/4"),
    ("full32", 0, 3): ("product", 1, 24, 24036, "1/8", "3/8"),
    ("full32", 1, 0): ("product", 0, 1, 15, "1", "3"),
    ("full32", 1, 1): ("product", 0, 8, 307, "1/2", "3/2"),
    ("full32", 1, 2): ("product", 1, 1728, 1902, "1/4", "3/4"),
    ("full32", 1, 3): ("product", 1, 13824, 24036, "1/8", "3/8"),
    ("paired_a", 0, 1): ("explicit", 1, 4, 30, "1/2", "1"),
    ("paired_a", 0, 2): ("explicit", 2, 16, 216, "1/4", "1/2"),
    ("paired_a", 0, 3): ("explicit", 3, 64, 2400, "1/8", "1/4"),
    ("paired_a", 1, 1): ("explicit", 1, 40, 31980, "1/2", "1"),
}
PIN_SPECS = {"mcmullen": MCMULLEN, "golden_b": GOLDEN_B, "full32": FULL32,
             "paired_a": PAIRED_A}


def _pinned_report(key):
    from meandim.carpet import SandwichReport
    name, m, l = key
    mode, k, product, pairs, sep, cov = SANDWICH_PINS[key]
    return SandwichReport(m=m, l=l, floor_wl=k, lower_product=product,
                          upper_product=product, separated_count=product,
                          cover_count=product,
                          separation_scale=Fraction(sep),
                          cover_scale=Fraction(cov), mode=mode,
                          pairs_checked=pairs)


@pytest.mark.parametrize("key", sorted(SANDWICH_PINS))
def test_sandwich_reports_are_pinned(key):
    name, m, l = key
    assert sandwich_check(PIN_SPECS[name], m, l) == _pinned_report(key)


def test_python_int_path_gives_the_same_reports(monkeypatch):
    # with the int64 bound at 0 every array holds Python ints
    import meandim.carpet as carpet
    import meandim.metrics as metrics
    monkeypatch.setattr(metrics, "_INT64_LIMIT", 0)
    assert carpet.exact_int_dtype(2) is object
    for key in sorted(SANDWICH_PINS):
        name, m, l = key
        if SANDWICH_PINS[key][3] > 10 ** 5:
            continue  # the 1.7M-pair case is covered by the int64 pins
        assert sandwich_check(PIN_SPECS[name], m, l) == _pinned_report(key)


def _fraction_witness_reps(pts, scale):
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = linf_pair_distance(pts[i], pts[j])
            if d < scale:
                return f"representatives {i},{j} at distance {d} < {scale}"


def _reference_representatives(spec, m, l):
    """The representatives as `_reference_point` Fractions: each cell's
    prefixes, the least section under its projected digits past floor(wl),
    the least pattern as tail."""
    import meandim.carpet as carpet
    patterns, fibers = carpet._pattern_set_tools(
        spec, ball(m, spec.omega.group), 10 ** 6)
    k = floor_wl(spec.a, spec.b, l)
    return [_reference_point(spec, list(zip(cell.x_prefix, cell.y_prefix))
                             + [(fibers[v][0], v) for v in cell.y_prefix[k:]],
                             patterns[0])
            for cell in enumerate_psi_cells(spec, m, l, 10 ** 6)]


def _repeating_builder(monkeypatch, i):
    """Make row i of every cloud the builder returns repeat row i - 1."""
    import meandim.carpet as carpet
    original = carpet._digit_codes

    def repeat(*args):
        codes = original(*args)
        if len(codes) > i:
            codes[i] = codes[i - 1]
        return codes

    monkeypatch.setattr(carpet, "_digit_codes", repeat)


def _check_repeat_witness(monkeypatch, i, expected):
    from meandim.carpet import SandwichViolation
    ref = _reference_representatives(MCMULLEN, 0, 3)
    ref[i] = ref[i - 1]
    assert _fraction_witness_reps(ref, Fraction(1, 8)) == expected
    _repeating_builder(monkeypatch, i)
    assert carpet_representatives(MCMULLEN, 0, 3)[0] == ref
    with pytest.raises(SandwichViolation) as info:
        sandwich_check(MCMULLEN, 0, 3)
    assert str(info.value) == expected


@pytest.mark.parametrize("python_ints", [False, True])
def test_representative_violation_names_the_reference_pair(monkeypatch,
                                                           python_ints):
    # the fourth point built repeats the third: the first close pair in row
    # order is (2, 3) at distance 0, as the Fraction loop finds it
    import meandim.metrics as metrics
    if python_ints:
        monkeypatch.setattr(metrics, "_INT64_LIMIT", 0)
    _check_repeat_witness(monkeypatch, 3,
                          "representatives 2,3 at distance 0 < 1/8")


@pytest.mark.parametrize("python_ints", [False, True])
def test_within_cell_violation_names_the_reference_distance(monkeypatch,
                                                            python_ints):
    # the second distinct offset cloud also takes the digit pair (3, 1) at
    # depth 1, a point of another cell; the message must name the first cell
    # with those free digits and the first far pair's Fraction distance
    import meandim.carpet as carpet
    import meandim.metrics as metrics
    from meandim.carpet import SandwichViolation
    if python_ints:
        monkeypatch.setattr(metrics, "_INT64_LIMIT", 0)
    original = carpet._digit_codes
    clouds = []

    def leak(spec, levels, tail, denom, dtype, cut=None):
        if cut is not None:  # the samples of a cell
            clouds.append(levels)
            if len(clouds) == 2:
                levels = [(n, pairs + [(bytes([3]), bytes([1]))] if n == 1
                           else pairs) for n, pairs in levels]
                clouds[-1] = levels
        return original(spec, levels, tail, denom, dtype, cut)

    monkeypatch.setattr(carpet, "_digit_codes", leak)
    with pytest.raises(SandwichViolation) as info:
        sandwich_check(MCMULLEN, 0, 3)
    assert len(clouds) == 2
    ref = [_reference_point(MCMULLEN, digits, bytes([0]))
           for digits in _level_digits(clouds[1], 48)]
    cov = Fraction(4, 8)
    far = [d for d in (linf_pair_distance(ref[i], ref[j])
                       for i in range(len(ref)) for j in range(i + 1, len(ref)))
           if d >= cov]
    k = floor_wl(4, 2, 3)
    cells = enumerate_psi_cells(MCMULLEN, 0, 3, 512)
    second = next(c for c in cells if c.y_prefix[k:] != cells[0].y_prefix[k:])
    assert far
    assert str(info.value) == (f"within-cell distance {far[0]} >= {cov} "
                               f"in cell {second.key}")


@pytest.mark.parametrize("block", [1, 100, 1000])
def test_pair_blocks_of_any_size_give_the_same_reports(monkeypatch, block):
    # rows per block range from one to the whole cloud; the pairs counted,
    # the reports and a witness past the first block do not change
    import meandim.carpet as carpet
    monkeypatch.setattr(carpet, "_PAIR_BLOCK", block)
    for key in sorted(SANDWICH_PINS):
        name, m, l = key
        if SANDWICH_PINS[key][3] <= 10 ** 4:
            assert sandwich_check(PIN_SPECS[name], m, l) == _pinned_report(key)
    _check_repeat_witness(monkeypatch, 10,
                          "representatives 9,10 at distance 0 < 1/8")


def _reference_cell_samples(spec, patterns, fibers, cell, per_cell):
    """A cell's samples as `_reference_point` Fractions, listed one by one:
    sections over the free digits (first depth outermost, cut to per_cell
    after each depth), under one extra depth of the first max(1, per_cell //
    sections) pair patterns (outermost), cut to per_cell; least tail."""
    b, k = spec.b, len(cell.x_prefix)
    combos = [list(zip(cell.x_prefix, cell.y_prefix))]
    for v in cell.y_prefix[k:]:
        combos = [c + [(u, v)] for c in combos for u in fibers[v]][:per_cell]
    extras = [(bytes(s // b for s in p), bytes(s % b for s in p))
              for p in patterns[:max(1, per_cell // len(combos))]]
    return [_reference_point(spec, digits + [extra], patterns[0])
            for extra in extras for digits in combos][:per_cell]


@pytest.mark.parametrize("key", sorted(k for k, pin in SANDWICH_PINS.items()
                                       if pin[3] <= 10 ** 4))
def test_signature_offsets_match_every_walked_cell(monkeypatch, key):
    # each walked cell, as its prefix plus the offsets of its free projected
    # digits, is its own sample cloud; the pairs and the largest within-cell
    # distance per cell are the ones the signature check counts and sees
    import meandim.carpet as carpet
    name, m, l = key
    spec = PIN_SPECS[name]
    built = _recording_builder(monkeypatch, limit=0)
    rep = sandwich_check(spec, m, l)
    checked_m = 0 if rep.mode == "product" else m
    patterns, fibers = carpet._pattern_set_tools(
        spec, ball(checked_m, spec.omega.group), 10 ** 6)
    k, denom = rep.floor_wl, built[0][1]
    signatures = {}
    reps = len(built[0][0])
    offsets = iter(built[1:])
    pairs = reps * (reps - 1) // 2
    for cell in enumerate_psi_cells(spec, checked_m, l, 512):
        free_v = cell.y_prefix[k:]
        if free_v not in signatures:
            codes, _, _ = next(offsets)
            signatures[free_v] = (
                [[Fraction(int(c), denom) for c in row] for row in codes],
                max((Fraction(int(d[later].max()), denom)
                     for _, d, later in carpet._pair_blocks(codes)
                     if later.any()), default=Fraction(0)))
        rows, most = signatures[free_v]
        prefix = _reference_point(spec, list(zip(cell.x_prefix,
                                                 cell.y_prefix[:k])),
                                  bytes(len(patterns[0])))
        points = [tuple((x + px, y + py) for (px, py), x, y
                        in zip(prefix, row[::2], row[1::2])) for row in rows]
        assert points == _reference_cell_samples(spec, patterns, fibers, cell,
                                                 48)
        dists = [linf_pair_distance(points[i], points[j])
                 for i in range(len(points))
                 for j in range(i + 1, len(points))]
        assert max(dists, default=Fraction(0)) == most
        pairs += len(dists)
    assert next(offsets, None) is None
    assert pairs == rep.pairs_checked


def _report_row(rep):
    """A SandwichReport as `carpet_dimension_report` lists it."""
    return {"m": rep.m, "l": rep.l, "floor_wl": rep.floor_wl,
            "lower_product": str(rep.lower_product),
            "upper_product": str(rep.upper_product),
            "separated_count": str(rep.separated_count),
            "cover_count": str(rep.cover_count), "mode": rep.mode,
            "ok": rep.ok}


@pytest.mark.parametrize("spec", [MCMULLEN, FULL22, GOLDEN_B],
                         ids=["mcmullen", "full22", "golden_b"])
def test_report_rows_are_the_sandwich_checks(spec):
    # product rows share one check per depth; each must still equal the
    # check the public function runs at its own m
    report = carpet_dimension_report(spec, m_max=2, l_max=3)
    skipped = {(s["m"], s["l"]) for s in report["sandwich_skipped"]}
    rows = report["sandwich"]
    assert [(r["m"], r["l"]) for r in rows] == [
        (m, l) for m in (0, 1) for l in (1, 2, 3) if (m, l) not in skipped]
    assert bool(skipped) == (spec is GOLDEN_B)
    for row in rows:
        assert row == _report_row(sandwich_check(spec, row["m"], row["l"]))


@pytest.mark.parametrize("spec, rows, checks", [
    (MCMULLEN, 12, [1, 2, 3, 4, 5, 6]),
    (FULL22, 12, [1, 2, 3, 4, 5, 6]),
    (GOLDEN_B, 5, [1, 2, 3, 4, 1])])  # explicit: once per row it runs
def test_product_report_checks_each_depth_once(monkeypatch, spec, rows,
                                               checks):
    # the representatives are built and pair-checked once per check
    import meandim.carpet as carpet
    calls = []
    original = carpet._representative_levels

    def counted(spec, patterns, fibers, l, cap):
        calls.append(l)
        return original(spec, patterns, fibers, l, cap)

    monkeypatch.setattr(carpet, "_representative_levels", counted)
    report = carpet_dimension_report(spec, m_max=2, l_max=6)
    assert len(report["sandwich"]) == rows
    assert calls == checks


@pytest.mark.parametrize("spec, m, l, nth", [
    (MCMULLEN, 0, 3, 1), (MCMULLEN, 0, 3, 4), (MCMULLEN, 1, 3, 3),
    (FULL32, 1, 2, 2), (GOLDEN_B, 1, 1, 1)])
def test_within_cell_violation_names_the_failing_cell(monkeypatch, spec, m,
                                                      l, nth):
    # with the cover bound of the nth distinct free-digit signature lowered
    # to zero, its first pair fails; the message names the first cell, in
    # prefix order, that carries that signature
    import meandim.carpet as carpet
    from meandim.carpet import SandwichViolation
    original = carpet._first_pair
    calls = []

    def lowered(codes, is_bad):
        calls.append(len(codes))
        if len(calls) == nth + 1:  # call 1 checks the representatives
            return original(codes, lambda dist: dist >= 0)
        return original(codes, is_bad)

    monkeypatch.setattr(carpet, "_first_pair", lowered)
    with pytest.raises(SandwichViolation) as info:
        sandwich_check(spec, m, l)
    k = floor_wl(spec.a, spec.b, l)
    checked_m = 0 if spec.omega.rule.factors_over_cells else m
    signatures = []
    for cell in enumerate_psi_cells(spec, checked_m, l, 512):
        if cell.y_prefix[k:] not in [c.y_prefix[k:] for c in signatures]:
            signatures.append(cell)
    named = signatures[nth - 1]
    message = str(info.value)
    assert message.startswith("within-cell distance ")
    assert message.endswith(f" >= {Fraction(spec.a, spec.b ** l)} in cell "
                            f"{named.key}")
