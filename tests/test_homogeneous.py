import math
from fractions import Fraction

import pytest

from meandim.groups import FolnerDescriptor
from meandim.subshifts import Alphabet, Rule, SubshiftSpec
from meandim.homogeneous import (HomogeneousSpec,
                                 digit_cloud, homogeneous_covering_probe,
                                 homogeneous_gxn_entropy,
                                 homogeneous_slope_series)
from meandim.groups import GroupSpec, ball
from meandim.metrics import WeightScheme

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
