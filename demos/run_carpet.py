"""Carpet systems: both dimension formulas, the covering sandwich, and the
concentration of the fiber measure.

The a=4, b=2 cellwise carpet is the classical strict-inequality example: its
mean Hausdorff value log2(1+sqrt 2) sits strictly below its metric mean
dimension log3/log4 + 1/2.
"""
import math

from meandim import (CarpetMeasure, CarpetSpec, carpet_dimension_report,
                     full_shift, mcmullen_shift, sandwich_check,
                     shannon_mcmillan_probe)


def main():
    mc = CarpetSpec(a=4, b=2, omega=mcmullen_shift())
    report = carpet_dimension_report(mc, m_max=2, l_max=4)
    print("a=4, b=2 cellwise carpet:")
    print(f"  h = {report['h']:.6f}, h' = {report['h_prime']:.6f}, "
          f"hw = {report['hw']:.6f}")
    print(f"  mdim_M = {report['mdim_M']:.6f} "
          f"(closed form {math.log(3)/math.log(4) + 0.5:.6f})")
    print(f"  mdim_H = {report['mdim_H']:.6f} "
          f"(closed form {math.log2(1 + math.sqrt(2)):.6f})")
    print(f"  strict gap: {report['mdim_M'] - report['mdim_H']:.6f}")

    print("\ncovering sandwich at exact rational scales:")
    for s in report["sandwich"]:
        print(f"  m={s['m']} l={s['l']}: {s['lower_product']} <= separated "
              f"{s['separated_count']}, cover {s['cover_count']} <= "
              f"{s['upper_product']}  [{s['mode']}]")

    full = CarpetSpec(a=3, b=2, omega=full_shift((3, 2)))
    rep2 = carpet_dimension_report(full, m_max=1, l_max=2)
    print(f"\nfull 3x2 carpet: mdim_M = {rep2['mdim_M']:.6f} = "
          f"mdim_H = {rep2['mdim_H']:.6f} (both formulas give 2)")

    measure = CarpetMeasure.build(mc, 0)
    print("\nfiber-measure concentration (exact moments of the deviation "
          "from -log Z per site):")
    for l in (16, 64, 256):
        probe = shannon_mcmillan_probe(measure, l)
        print(f"  depth {l:3d}: mean {probe.mean:+.6f}, std {probe.std:.6f}")

    deep = sandwich_check(mc, 0, 6)
    print(f"\ndeeper sandwich m=0 l=6: product count {deep.lower_product}, "
          f"verified {deep.pairs_checked} exact pairs")


if __name__ == "__main__":
    main()
