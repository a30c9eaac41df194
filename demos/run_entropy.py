"""Exact pattern counting and entropy series for Z^d subshifts.

Counts the golden-mean shift on growing interval windows (one frontier
dynamic program, exact big integers), compares ball against box Folner
families, and shows the weighted-entropy degenerations on a paired shift.
"""
import math

from meandim import (FolnerDescriptor, count_patterns, entropy_estimate,
                     entropy_series, golden_mean, interval, mcmullen_shift,
                     weighted_entropy_series)
from meandim.entropy import projection_gap_report

LOG_PHI = math.log((1 + math.sqrt(5)) / 2)


def main():
    gm = golden_mean()
    print("golden-mean shift: exact counts on interval windows")
    for n in (4, 8, 16, 32, 64):
        print(f"  n={n:3d}  count={count_patterns(gm, interval(0, n - 1))}")

    folner = FolnerDescriptor("boxes", (2, 4, 8, 16, 32))
    series = entropy_series(gm, folner)
    est = entropy_estimate(series)
    print("\nper-site entropy over box windows (natural log):")
    for row in series.rows:
        print(f"  m={row.index:3d}  per_site={row.per_site:.6f}")
    print(f"  certified upper bound {est.certified_upper:.6f} "
          f">= log phi = {LOG_PHI:.6f}")

    gaps = projection_gap_report(gm, FolnerDescriptor("boxes", (4, 8)))
    print("\nfree-boundary versus exact projection counts:",
          ["gap=%s" % g["gap"] for g in gaps])

    mc = mcmullen_shift()
    print("\nweighted entropy of the a=4, b=2 cellwise shift:")
    for w in (0.0, 0.5, 1.0):
        ws = weighted_entropy_series(mc, FolnerDescriptor("balls", (0, 1, 2)), w)
        print(f"  w={w:.1f}  per_site log Z = {ws.value:.6f}")
    print(f"  (w=1/2 per-cell closed form: log(1+sqrt 2) = "
          f"{math.log(1 + math.sqrt(2)):.6f})")


if __name__ == "__main__":
    main()
