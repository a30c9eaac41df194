"""Acceptance criteria, one test per criterion, tolerances pinned inline.

Each test prints a single PASS line on success (run pytest -s to see them);
a failing criterion fails its test with the witnessing values.
"""
import math
import time
from fractions import Fraction

import pytest

from meandim.groups import FolnerDescriptor, GroupSpec, ball, box, interval
from meandim.subshifts import (count_patterns, enumerate_patterns,
                               full_shift, golden_mean, mcmullen_shift,
                               pair_shift_with_b_rule)
from meandim.entropy import entropy_estimate, entropy_series
from meandim.carpet import (CarpetMeasure, CarpetSpec, carpet_dimension_report,
                            sandwich_check, shannon_mcmillan_probe)
from meandim.selfsimilar import SelfSimilarSpec, selfsimilar_cover_probe
from meandim.homogeneous import (HomogeneousSpec, homogeneous_covering_probe,
                                 homogeneous_gxn_entropy,
                                 homogeneous_slope_series)
from meandim.kspace import (KSpaceSpec, kg_covering_experiment,
                            kg_mass_distribution_demo, trend_slopes)
from meandim.subshifts import Alphabet, Rule, SubshiftSpec
from oracles import (enumerate_psi_cells, hausdorff_dim_upper,
                     separation_pigeonhole_check, weighted_degeneration_check)

LOG_PHI = math.log((1 + math.sqrt(5)) / 2)

MCMULLEN = CarpetSpec(a=4, b=2, omega=mcmullen_shift())
FULL22 = CarpetSpec(a=2, b=2, omega=full_shift((2, 2)))
FULL32 = CarpetSpec(a=3, b=2, omega=full_shift((3, 2)))
GOLDEN_B = CarpetSpec(a=2, b=2, omega=pair_shift_with_b_rule(2, golden_mean()))

SHIPPED_PAIRED = (FULL32.omega, FULL22.omega, MCMULLEN.omega, GOLDEN_B.omega)


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def fib(n):
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def test_criterion_01_exact_counting():
    t0 = time.monotonic()
    gm = golden_mean()
    for n in range(1, 21):
        w = interval(0, n - 1)
        transfer = count_patterns(gm, w)
        assert transfer == fib(n + 2)
        if n <= 14:
            assert transfer == enumerate_patterns(gm, w).count
    fs = full_shift(6)
    w13 = ball(2, GroupSpec(2))
    assert count_patterns(fs, w13) == 6 ** 13
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(1, f"golden-mean counts are Fibonacci through n=20, full shift "
              f"k^|w| exact, in {elapsed:.2f}s")


def test_criterion_02_entropy_convergence():
    t0 = time.monotonic()
    series = entropy_series(golden_mean(),
                            FolnerDescriptor("boxes", (2, 4, 8, 16)))
    est = entropy_estimate(series)
    assert abs(series.value - LOG_PHI) <= 0.02
    assert est.certified_upper is not None
    assert est.certified_upper >= LOG_PHI
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    report(2, f"per-site {series.value:.5f} within 0.02 of log phi "
              f"{LOG_PHI:.5f}, certified upper bound holds, {elapsed:.2f}s")


def test_criterion_03_weighted_degenerations():
    folner = FolnerDescriptor("balls", (0, 1, 2))
    for spec in SHIPPED_PAIRED:
        out = weighted_degeneration_check(spec, folner, digits=12)
        assert out["ok"], (spec.name, out)
    report(3, "w=1 and w=0 series match exact big-integer counts to 12 "
              "digits on every shipped paired spec")


def test_criterion_04_mcmullen_cross_check():
    rep = carpet_dimension_report(MCMULLEN, m_max=2, l_max=3)
    want_h = math.log2(1 + math.sqrt(2))
    want_m = math.log(3) / math.log(4) + 0.5
    assert abs(rep["mdim_H"] - want_h) <= 1e-9
    assert abs(rep["mdim_M"] - want_m) <= 1e-9
    assert rep["mdim_H"] < rep["mdim_M"]
    report(4, f"mdim_H = {rep['mdim_H']:.6f} and mdim_M = {rep['mdim_M']:.6f} "
              f"match closed forms to 1e-9, strictly ordered")


def test_criterion_05_sandwich_desk_scale():
    t0 = time.monotonic()
    checked = 0
    for spec in (FULL22, MCMULLEN):
        for m in (0, 1):
            for l in (1, 2, 3, 4):
                rep = sandwich_check(spec, m, l)
                assert rep.separated_count >= rep.lower_product
                assert rep.cover_count <= rep.upper_product
                checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(5, f"{checked} exact rational sandwich instances verified with "
              f"zero tolerance in {elapsed:.2f}s")


def test_criterion_06_measure_engine():
    t0 = time.monotonic()
    for spec, m in ((MCMULLEN, 0), (MCMULLEN, 1), (FULL32, 0), (FULL22, 1),
                    (GOLDEN_B, 1)):
        measure = CarpetMeasure.build(spec, m)
        err_f, err_fp = measure.normalization_error()
        assert err_f < 1e-12 and err_fp < 1e-12
    measure = CarpetMeasure.build(MCMULLEN, 0)
    probe = shannon_mcmillan_probe(measure, l=256)
    assert abs(probe.mean) <= 0.05
    within = 1 - probe.std ** 2 / (0.05 - abs(probe.mean)) ** 2
    assert within > 0.9
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    report(6, f"fiber measures normalize to 12 digits; depth-256 cylinder "
              f"log-probabilities concentrate at log Z: exact mean "
              f"|{probe.mean:.5f}| <= 0.05, std {probe.std:.5f}, so "
              f"P(|deviation| <= 0.05) >= {within:.3f} (Chebyshev), "
              f"{elapsed:.2f}s")


def test_criterion_07_pigeonhole_separation():
    cases = 0
    for spec, m, l in ((FULL22, 0, 2), (FULL22, 0, 3), (MCMULLEN, 0, 3),
                       (MCMULLEN, 1, 3), (FULL22, 1, 2)):
        size = len(ball(m, GroupSpec(1)))
        need = 4 ** size + 1
        cells = enumerate_psi_cells(spec, m, l, limit=need)
        if len(cells) < need:
            continue
        i, j, gap = separation_pigeonhole_check(spec, m, l, cells)
        assert gap >= Fraction(1, spec.b ** l)
        cases += 1
    assert cases >= 4
    report(7, f"witness pair found in all {cases} tested cell families")


def test_criterion_08_inequality_chain():
    rows = []
    for spec, kwargs in ((MCMULLEN, {"m_max": 2, "l_max": 3}),
                         (FULL32, {"m_max": 1, "l_max": 2}),
                         (FULL22, {"m_max": 1, "l_max": 2}),
                         (GOLDEN_B, {"m_max": 3, "l_max": 2,
                                     "folner_family": "boxes"})):
        rep = carpet_dimension_report(spec, **kwargs)
        assert rep["mdim_H"] <= rep["mdim_M"] + 0.02
        rows.append((spec.omega.name, rep["mdim_H"], rep["mdim_M"]))
    # homogeneous systems: both estimates equal the prediction
    digits = SubshiftSpec(2, Alphabet(2), Rule.full(2), "digits-full")
    homog = HomogeneousSpec(base=2, digit_spec=digits)
    pred = homogeneous_gxn_entropy(homog, FolnerDescriptor("boxes", (1,)),
                                   depths=(4,))["prediction"]
    assert abs(pred - 1.0) <= 1e-9
    slope = homogeneous_slope_series(homog, [Fraction(1, 2 ** 8)])[-1]["slope"]
    assert slope <= pred + 0.02
    # K power: singleton covers drive the scale Hausdorff estimate to zero
    h_est = hausdorff_dim_upper([[0.0] * 16], eps=1e-3)
    kg = kg_covering_experiment(KSpaceSpec(rank=1),
                                FolnerDescriptor("boxes", (1,)),
                                [Fraction(1, 1000)])
    assert h_est <= kg[0].slope_lower + 0.02
    report(8, "mean-Hausdorff estimate below metric-mean estimate + 0.02 on "
              f"{len(rows)} carpets, the homogeneous system and the K power")


def test_criterion_09_kg_covering_experiment():
    t0 = time.monotonic()
    spec = KSpaceSpec(rank=1)
    grid = [Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000),
            Fraction(1, 10000)]
    rows = kg_covering_experiment(spec, FolnerDescriptor("boxes", (1, 2)),
                                  grid)
    for row in rows:
        assert row.bracket_ok, row
    fine = {(r.n_index, r.eps): r for r in rows}
    for n in (1, 2):
        for eps in (1e-2, 1e-3):
            r = fine[(n, eps)]
            assert 0.35 <= r.slope_lower <= 0.70
            assert 0.35 <= r.slope_upper <= 0.70
    for n in (1, 2):
        slopes = [fine[(n, float(e))].slope_lower for e in grid]
        assert all(a > b for a, b in zip(slopes, slopes[1:]))
        assert slopes[-1] > 0.5
    cube = kg_covering_experiment(KSpaceSpec(rank=1, kind="unit"),
                                  FolnerDescriptor("boxes", (1,)),
                                  [Fraction(1, 100), Fraction(1, 1000)])
    cube_trend = trend_slopes(cube)[0]
    assert 0.85 <= cube_trend <= 1.0
    assert 0.85 <= cube[-1].slope_lower <= 1.0
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(9, f"closed-form brackets hold exactly; K slopes within [0.35, 0.70] "
              f"and decreasing toward 1/2; cube slope {cube_trend:.4f} in "
              f"[0.85, 1.0]; {elapsed:.2f}s")


def test_criterion_10_mass_distribution_demo():
    spec = KSpaceSpec(rank=1)
    folner = FolnerDescriptor("boxes", (1,))
    reports = [kg_mass_distribution_demo(spec, k, folner, 1, Fraction(1, 10),
                                         seed=13) for k in (2, 4, 6)]
    bounds = [r.bound for r in reports]
    for r, k in zip(reports, (2, 4, 6)):
        assert r.worst_margin >= 0.0
        assert r.bound == pytest.approx((12.0 / k) * r.support_window)
    assert bounds[0] > bounds[1] > bounds[2]
    kg = kg_covering_experiment(spec, folner, [Fraction(1, 1000)])
    report(10, f"hypothesis verified at every sampled point for k in "
               f"{{2,4,6}}; bounds {bounds} fall toward zero while the "
               f"metric-mean slope stays near {kg[0].slope_lower:.2f}")


def test_criterion_11_selfsimilar_and_homogeneous():
    for omega, true_h in ((full_shift(2), math.log(2)),
                          (golden_mean(), LOG_PHI)):
        for c in (Fraction(1, 2), Fraction(1, 3)):
            spec = SelfSimilarSpec(omega=omega, values=(0, 1), c=c)
            grid = [c ** j for j in range(2, 9)]
            probe = selfsimilar_cover_probe(spec, grid,
                                            [box(512, GroupSpec(1))])
            slope = probe["slopes"][512]
            assert slope <= true_h / math.log(1 / float(c)) + 0.05, \
                (omega.name, c, slope)
    digits = SubshiftSpec(2, Alphabet(2), Rule.full(2), "digits-full")
    homog = HomogeneousSpec(base=2, digit_spec=digits)
    rows = homogeneous_covering_probe(homog, FolnerDescriptor("boxes", (1,)),
                                      [Fraction(1, 4), Fraction(1, 8)])
    assert all(r.implication_ok for r in rows)
    assert all(r.left_lower <= r.right_upper for r in rows)
    pred = homogeneous_gxn_entropy(homog, FolnerDescriptor("boxes", (1, 2)),
                                   depths=(2, 4, 8))["prediction"]
    assert abs(pred - 1.0) <= 1e-9
    report(11, "covering-probe slopes below the entropy bound + 0.05 on all "
               "four driving configurations; homogeneous probe inequality "
               f"exact; full-digit prediction {pred}")
