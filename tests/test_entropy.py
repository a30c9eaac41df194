import math

import pytest

from meandim.groups import Caps, FolnerDescriptor
from meandim.subshifts import (Alphabet, Rule, SubshiftSpec, full_shift,
                               golden_mean, hard_square, mcmullen_shift,
                               pair_shift_with_b_rule)
from meandim.entropy import (NEG_INF, entropy_estimate, entropy_series,
                             gxn_entropy_series, log_big, log_z_from_fibers,
                             projection_gap_report, weighted_entropy_series)
from meandim.subshifts import PatternCapExceeded, count_patterns, fiber_table
from meandim.groups import WindowCapExceeded, interval
from oracles import weighted_degeneration_check

LOG_PHI = math.log((1 + math.sqrt(5)) / 2)
BOXES16 = FolnerDescriptor("boxes", (2, 4, 8, 16))


def fib(n):
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


def test_full_shift_series_is_log_k():
    series = entropy_series(full_shift(2), BOXES16)
    assert all(abs(r.per_site - math.log(2)) < 1e-12 for r in series.rows)
    est = entropy_estimate(series)
    assert abs(est.value - math.log(2)) < 1e-12
    assert abs(est.certified_upper - math.log(2)) < 1e-12


def test_golden_mean_series_value():
    series = entropy_series(golden_mean(), BOXES16)
    expect = math.log(fib(18)) / 16
    assert abs(series.value - expect) < 1e-12
    assert abs(series.value - 0.4909) < 2e-3
    assert abs(series.value - LOG_PHI) < 0.02


def test_golden_mean_certified_upper():
    series = entropy_series(golden_mean(), BOXES16)
    est = entropy_estimate(series)
    assert est.certified_upper is not None
    assert est.certified_upper >= LOG_PHI
    # per-site values decrease toward the limit, so the min is the last row
    per_site = [r.per_site for r in series.rows]
    assert est.certified_upper == min(per_site)


def test_ball_series_has_no_certificate():
    series = entropy_series(golden_mean(), FolnerDescriptor("balls", (2, 4)))
    assert entropy_estimate(series).certified_upper is None


def test_empty_system_markers():
    dead = SubshiftSpec(1, Alphabet(2), Rule.cellwise(2, []), "dead")
    series = entropy_series(dead, FolnerDescriptor("boxes", (1, 2)))
    assert series.empty_system
    assert all(r.log_count == NEG_INF for r in series.rows)
    est = entropy_estimate(series)
    assert est.empty_system


def test_constant_series_estimate():
    series = entropy_series(full_shift(5), FolnerDescriptor("boxes", (1, 3)))
    est = entropy_estimate(series)
    assert est.value == pytest.approx(math.log(5))
    assert est.certified_upper == pytest.approx(math.log(5))


def test_weighted_degenerations_bit_for_bit():
    folner = FolnerDescriptor("balls", (0, 1, 2))
    for spec in (full_shift((3, 2)), mcmullen_shift(),
                 pair_shift_with_b_rule(2, golden_mean())):
        out = weighted_degeneration_check(spec, folner)
        assert out["ok"], out


def test_weighted_per_cell_factorization_oracle():
    # cellwise tables factor per cell: Z_m = (sum_y t(y)^w)^{|window|}
    mc = mcmullen_shift()
    folner = FolnerDescriptor("balls", (0, 1, 2))
    series = weighted_entropy_series(mc, folner, 0.5)
    expect = math.log(1 + math.sqrt(2))
    for row in series.rows:
        assert abs(row.per_site - expect) < 1e-10
    assert abs(series.value - 0.8814) < 1e-4


def test_weighted_monotone_in_w():
    spec = pair_shift_with_b_rule(2, golden_mean())
    folner = FolnerDescriptor("balls", (1,))
    values = [weighted_entropy_series(spec, folner, w).rows[0].log_count
              for w in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


def test_weighted_bracketing_invariants():
    spec = pair_shift_with_b_rule(2, golden_mean())
    w = 0.37
    window = interval(0, 3)
    table = fiber_table(spec, window)
    log_z = log_z_from_fibers(table, w)
    total = table.total
    nproj = len(table.entries)
    tmax = max(table.entries.values())
    assert log_z <= math.log(nproj) + w * math.log(tmax) + 1e-9
    assert log_z >= max(math.log(nproj), w * math.log(total)) - 1e-9


def test_weighted_exponent_validation():
    with pytest.raises(ValueError):
        weighted_entropy_series(mcmullen_shift(),
                                FolnerDescriptor("balls", (0,)), 1.5)
    with pytest.raises(ValueError):
        weighted_entropy_series(full_shift(2),
                                FolnerDescriptor("balls", (0,)), 0.5)


def test_gxn_full_digit_shift():
    spec = SubshiftSpec(2, Alphabet(2), Rule.full(2), "digits")
    series = gxn_entropy_series(spec, FolnerDescriptor("boxes", (1, 2)),
                                depths=(2, 4))
    assert all(abs(r.per_site - math.log(2)) < 1e-12 for r in series.rows)


def test_gxn_vertical_golden_is_fibonacci():
    spec = SubshiftSpec(2, Alphabet(2), Rule.nearest_neighbor(2, {1: [(1, 1)]}),
                        "vertical-golden")
    series = gxn_entropy_series(spec, FolnerDescriptor("boxes", (1,)),
                                depths=tuple(range(1, 11)))
    for row in series.rows:
        assert row.log_count == pytest.approx(math.log(fib(row.depth + 2)))


def test_gxn_depth_one_collapses_to_plain_series():
    spec = SubshiftSpec(2, Alphabet(2), Rule.nearest_neighbor(2, {0: [(1, 1)]}),
                        "horizontal-golden")
    layer = golden_mean()
    gxn = gxn_entropy_series(spec, FolnerDescriptor("boxes", (4,)), depths=(1,))
    plain = entropy_series(layer, FolnerDescriptor("boxes", (4,)))
    assert gxn.rows[0].per_site == pytest.approx(plain.rows[0].per_site)


def test_family_independence():
    # Ornstein-Weiss: the per-site value does not depend on the Folner
    # sequence, so balls and boxes agree up to boundary effects
    def gap(spec, ball_index, box_index):
        balls = entropy_series(spec, FolnerDescriptor("balls", (ball_index,)))
        boxes = entropy_series(spec, FolnerDescriptor("boxes", (box_index,)))
        return abs(balls.value - boxes.value)

    assert gap(golden_mean(), 8, 16) < 0.05
    assert gap(full_shift(3), 4, 4) < 1e-12
    assert gap(hard_square(), 3, 5) < 0.05


def test_projection_gap_report():
    rows = projection_gap_report(golden_mean(),
                                 FolnerDescriptor("boxes", (2, 4)))
    assert all(r["gap"] == 0 for r in rows)


def test_csv_output():
    series = entropy_series(golden_mean(), FolnerDescriptor("boxes", (2, 4)))
    lines = series.to_csv().splitlines()
    assert lines[0] == "m,window_size,log_count,per_site"
    assert len(lines) == 3


# a 1-d rule banning 1 ... 1 five cells apart: a window of n >= 6 cells
# peaks at 2^min(5, n - 5) live frontier states
GAP_FIVE = SubshiftSpec(1, Alphabet(2),
                        Rule.forbidden_patterns(2, [(((0,), (5,)), (1, 1))]),
                        "gap-five")


def _outcome(run):
    try:
        return run()
    except (PatternCapExceeded, WindowCapExceeded) as exc:
        return type(exc), str(exc)


def _loop(spec, folner, cap, pattern_cap):
    """Log counts from building and counting one window at a time."""
    return [log_big(count_patterns(spec, folner.window(m, spec.group, cap),
                                   pattern_cap))
            for m in folner.indices]


@pytest.mark.parametrize("spec, family, top, cap, pattern_cap, error", [
    # the pattern cap fires first on window 9 of 12
    (GAP_FIVE, "boxes", 12, 10**6, 8, PatternCapExceeded),
    # ... and still wins over the cell cap of window 11
    (GAP_FIVE, "boxes", 12, 10, 8, PatternCapExceeded),
    (GAP_FIVE, "balls", 6, 10, 8, PatternCapExceeded),
    (GAP_FIVE, "boxes", 12, 10, 32, WindowCapExceeded),
    (GAP_FIVE, "boxes", 12, 10**6, 32, None),
    # rank 2: boxes 6 and 7 peak at 26 and 42 states, box 8 needs 64 cells
    (hard_square(), "boxes", 9, 63, 25, PatternCapExceeded),
    (hard_square(), "boxes", 9, 63, 42, WindowCapExceeded),
])
def test_entropy_series_fails_like_a_per_window_loop(spec, family, top, cap,
                                                      pattern_cap, error):
    folner = FolnerDescriptor(family, tuple(range(family == "boxes", top)))
    want = _outcome(lambda: _loop(spec, folner, cap, pattern_cap))
    got = _outcome(lambda: [r.log_count for r in entropy_series(
        spec, folner, Caps(cap, pattern_cap)).rows])
    assert got == want
    assert (want[0] if error else None) is error
