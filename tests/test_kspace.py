import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import accumulate

import pytest

import meandim.kspace as kspace
from meandim.groups import FolnerDescriptor
from meandim.kspace import (KSpaceSpec, _k_size, _k_sweep_count,
                            _unit_steps, _unit_sweep_count, gamma_bracket,
                            kg_covering_experiment, kg_mass_distribution_demo,
                            nu_interval_mass_log, nu_normalization_error,
                            trend_slopes, zeta_bracket)
from meandim.metrics import WeightScheme, tail_support
from oracles import (k_truncation, line_cover_count, line_separated_count,
                     unit_grid)

KSET = KSpaceSpec(rank=1)
CUBE = KSpaceSpec(rank=1, kind="unit")
BOXES = FolnerDescriptor("boxes", (1, 2))
EPS_GRID = [Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000),
            Fraction(1, 10000)]


def test_spec_rejects_weights_of_another_rank():
    with pytest.raises(ValueError, match="weights rank must match"):
        KSpaceSpec(rank=1, weights=WeightScheme(2, Fraction(1, 4)))
    with pytest.raises(ValueError, match="weights rank must match"):
        KSpaceSpec(rank=3, weights=WeightScheme(2, Fraction(1, 4)))


def test_gamma_bracket_defining_inequalities():
    for eps in (Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000)):
        g = gamma_bracket(eps)
        # 1/(g+1) <= 2 sqrt(eps) < 1/g, squared to stay in rationals
        assert Fraction(1, (g + 1) ** 2) <= 4 * eps < Fraction(1, g * g)


def test_zeta_bracket_defining_inequalities():
    c = Fraction(5, 3)
    for eps in (Fraction(1, 10), Fraction(1, 100)):
        z = zeta_bracket(eps, c)
        ratio = 4 * c / eps
        assert z * (z - 1) < ratio <= z * (z + 1)


def _gamma_loop(eps):
    g = 1
    while (g + 1) * (g + 1) * 4 * eps < 1:
        g += 1
    return g


def _zeta_loop(eps, c):
    ratio = 4 * Fraction(c) / Fraction(eps)
    z = 1
    while z * (z + 1) < ratio:
        z += 1
    return z


def test_brackets_match_their_defining_loops():
    eps_grid = ([Fraction(1, n) for n in range(5, 400)]
                + [Fraction(p, 1000) for p in range(1, 250)]
                + [Fraction(1, 4) - Fraction(1, 10**9), Fraction(3, 10**7)])
    c_grid = (Fraction(1), Fraction(1, 3), Fraction(5, 3), Fraction(7, 2),
              Fraction(0), Fraction(-1, 2))
    for eps in eps_grid:
        assert gamma_bracket(eps) == _gamma_loop(eps)
        for c in c_grid:
            assert zeta_bracket(eps, c) == _zeta_loop(eps, c)
    for eps in (Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(-1, 9)):
        with pytest.raises(ValueError):
            gamma_bracket(eps)


def _real_budgets(spec, eps_grid):
    """(eps, budget) pairs: the budgets kg_covering_experiment forms, with
    the tail support at 3 eps/4, and those with the support at eps."""
    weights = spec.weights
    for eps in eps_grid:
        for at in (3 * eps / 4, eps):
            support = tail_support(weights, at)
            tail = weights.tail_upper(support.index + 1)
            yield eps, (eps - 2 * tail) / weights.total_upper()


def test_integer_sweeps_match_line_sweeps():
    slow = KSpaceSpec(rank=1, weights=WeightScheme(1, Fraction(1, 5)))
    cases = list(_real_budgets(KSET, EPS_GRID))
    cases += list(_real_budgets(slow, [Fraction(1, 10), Fraction(1, 99),
                                       Fraction(2, 301)]))
    cases = [(delta, [eps]) for eps, delta in cases]
    budgets = ([Fraction(1, n) for n in range(1, 60)]
               + [Fraction(p, 97) for p in range(1, 120, 3)]
               + [Fraction(5), Fraction(3), Fraction(2), Fraction(7, 2),
                  Fraction(1, 1234)])  # n_tr 2 and 3 from the large ones
    cases += [(delta, [delta, delta / 3, 2 * delta, Fraction(1, 7),
                       Fraction(1), Fraction(5, 4)]) for delta in budgets]
    for delta, eps_list in cases:
        kvals = k_truncation(delta)
        assert _k_size(delta) == len(kvals) - 1
        assert _k_sweep_count(_k_size(delta), delta) == \
            line_cover_count(kvals, delta)
        for eps in eps_list:
            assert _k_sweep_count(_k_size(delta), eps) == \
                line_separated_count(kvals, eps)
        if delta < Fraction(1, 2000):
            continue
        uvals = unit_grid(delta)
        assert _unit_steps(delta) == len(uvals) - 1
        assert _unit_sweep_count(_unit_steps(delta), delta) == \
            line_cover_count(uvals, delta)
        for eps in eps_list:
            assert _unit_sweep_count(_unit_steps(delta), eps) == \
                line_separated_count(uvals, eps)


def test_kset_pinned_counts():
    # KSET_BOUNDS of perfbench/workloads.py: ball(1) windows of 3 sites
    eps_grid = [Fraction(1, 10 ** j) for j in range(1, 6)]
    rows = kg_covering_experiment(KSET, FolnerDescriptor("balls", (1,)),
                                  eps_grid)
    assert [(r.lower, r.upper) for r in rows] == [
        (216, 216), (5832, 5832), (195112, 195112), (6331625, 6331625),
        (202262003, 202262003)]
    assert all(r.bracket_ok for r in rows)


def test_kset_row_at_tiny_eps():
    rows = kg_covering_experiment(KSET, FolnerDescriptor("boxes", (1,)),
                                  [Fraction(1, 10 ** 8)])
    assert rows[0].bracket_ok
    assert 0.5 < rows[0].slope_lower <= rows[0].slope_upper < 0.55


def test_k_truncation_reaches_below_half_delta():
    vals = k_truncation(Fraction(1, 50))
    assert vals[0] == 0
    assert vals[1] < Fraction(1, 100)
    assert vals[-1] == 1


def test_kg_experiment_brackets_and_slopes():
    rows = kg_covering_experiment(KSET, BOXES, EPS_GRID)
    for row in rows:
        assert row.bracket_ok
        assert row.lower <= row.upper
    fine = {r.eps: r for r in rows if r.n_index == 1}
    # slope window of the acceptance criterion
    for eps in (1e-2, 1e-3):
        assert 0.35 <= fine[eps].slope_lower <= 0.70
        assert 0.35 <= fine[eps].slope_upper <= 0.70
    slopes = [fine[float(e)].slope_lower for e in EPS_GRID]
    assert all(a > b for a, b in zip(slopes, slopes[1:]))
    assert slopes[-1] > 0.5  # decreasing toward one half from above


def test_kg_experiment_window_two_matches_product():
    rows = kg_covering_experiment(KSET, BOXES, [Fraction(1, 100)])
    one = [r for r in rows if r.n_index == 1][0]
    two = [r for r in rows if r.n_index == 2][0]
    assert two.lower == one.lower ** 2
    assert two.formula_lower == (one.gamma + 1) ** 2


def test_kg_trend_slopes_near_half():
    rows = kg_covering_experiment(KSET, FolnerDescriptor("boxes", (1,)),
                                  EPS_GRID)
    trend = trend_slopes(rows)
    assert all(0.4 <= t <= 0.6 for t in trend)


def test_cube_experiment():
    rows = kg_covering_experiment(CUBE, FolnerDescriptor("boxes", (1,)),
                                  [Fraction(1, 100), Fraction(1, 1000)])
    for row in rows:
        assert row.upper <= row.formula_upper
    at_milli = rows[-1]
    assert 0.85 <= at_milli.slope_lower <= 1.0
    trend = trend_slopes(rows)
    assert 0.85 <= trend[0] <= 1.0


def test_nu_measure_values():
    # below the gap to the next K point the interval mass is the atom
    tiny = math.log(1e-9)
    assert nu_interval_mass_log(0, tiny) == pytest.approx(math.log(0.5))
    assert nu_interval_mass_log(1, tiny) == pytest.approx(
        math.log(3 / math.pi ** 2))
    assert nu_normalization_error() < 1e-9


def test_nu_interval_masses():
    # radius below the gap keeps only the atom
    assert nu_interval_mass_log(3, math.log(1e-9)) == pytest.approx(
        math.log(3 / (math.pi ** 2 * 9)))
    # radius past the point 0 collects the zero atom and the whole tail
    got = nu_interval_mass_log(2, math.log(1.0))
    expect = math.log(0.5 + (3 / math.pi ** 2) * sum(1 / j ** 2
                                                     for j in range(2, 50000)))
    assert got == pytest.approx(expect, abs=1e-4)


def test_mass_demo_bounds_and_monotonicity():
    reports = [kg_mass_distribution_demo(KSET, k, FolnerDescriptor("boxes", (1,)),
                                         1, Fraction(1, 10), seed=3)
               for k in (2, 4, 6)]
    bounds = [r.bound for r in reports]
    assert bounds == sorted(bounds, reverse=True)
    for r, k in zip(reports, (2, 4, 6)):
        assert r.bound == pytest.approx((12.0 / k) * r.support_window)
        assert r.worst_margin >= 0.0


def test_mass_demo_rejects_unit_specs():
    # the collapse bound is one of K^{Z^d}; the cube power does not collapse
    with pytest.raises(ValueError, match="needs a 'kset' spec"):
        kg_mass_distribution_demo(KSpaceSpec(rank=1, kind="unit"), 2,
                                  FolnerDescriptor("boxes", (1,)), 1,
                                  Fraction(1, 10))


def test_mass_demo_repeats_for_a_seed(monkeypatch):
    # the all-zero point sets the worst margin at every seed, so the seed
    # shows in the points the demo draws
    draws = []
    sample = kspace._sample_k_codes

    def recorded(*args):
        draws[-1].append(sample(*args))
        return draws[-1][-1]

    monkeypatch.setattr(kspace, "_sample_k_codes", recorded)

    def demo(seed):
        draws.append([])
        return kg_mass_distribution_demo(KSET, 4, FolnerDescriptor("boxes", (1,)),
                                         1, Fraction(1, 10), seed=seed)
    assert demo(5) == demo(5)
    assert draws[0] == draws[1]
    demo(6)
    assert draws[2] != draws[0]
    with pytest.raises(ValueError, match="expected non-negative integer"):
        demo(-5)


def test_mass_band_places_the_point_zero_last():
    # delta = 1/1000, k = 4: band m holds the x > delta^(4^m) not in a
    # lower band
    k = 4
    bounds = kspace._band_bounds(k, math.log(1e-3))
    assert kspace._mass_band(0, bounds) == k + 1
    assert [kspace._mass_band(c, bounds) for c in (1, 2, 999)] == [0, 0, 0]
    # codes past 1/delta: 1/1001 > delta^4, 1e-13 lies between delta^16
    # and delta^4, 1e-300 between delta^256 and delta^64
    assert [kspace._mass_band(c, bounds)
            for c in (1001, 10 ** 13, 10 ** 300)] == [1, 2, 4]


def test_mass_demo_all_zero_point_uses_zero_atom(monkeypatch):
    # nu({0}) = 1/2 per coordinate carries the all-zero point
    monkeypatch.setattr(kspace, "MASS_DEMO_SAMPLES", 0)
    report = kg_mass_distribution_demo(KSET, 4, FolnerDescriptor("boxes", (1,)),
                                       1, Fraction(1, 12), seed=0)
    assert report.points_checked == 3
    assert report.worst_margin >= 0.0


def test_mass_demo_builds_its_sampling_table_once_and_not_at_import():
    # a fresh interpreter: importing the package builds no table
    code = ("import meandim.kspace as k; "
            "assert k._sampling_table.cache_info().currsize == 0")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    kspace._sampling_table.cache_clear()
    for k in (2, 4):
        kg_mass_distribution_demo(KSET, k, FolnerDescriptor("boxes", (1,)), 1,
                                  Fraction(1, 10), seed=1)
    assert kspace._sampling_table.cache_info().misses == 1
    weights = [kspace.NU_SQUARE_COEFF / n ** 2
               for n in range(1, kspace._MAX_CODE + 1)]
    assert kspace._sampling_table() == (tuple(accumulate(weights)),
                                        sum(weights))


def test_mass_demo_input_validation():
    with pytest.raises(ValueError):
        kg_mass_distribution_demo(KSET, 0, FolnerDescriptor("boxes", (1,)), 1,
                                  Fraction(1, 10))
    with pytest.raises(ValueError):
        kg_mass_distribution_demo(KSET, 2, FolnerDescriptor("boxes", (1,)), 1,
                                  Fraction(1, 2))


def test_kspace_spec_needs_rank_at_least_one():
    with pytest.raises(ValueError, match="rank must be >= 1"):
        KSpaceSpec(rank=0)
