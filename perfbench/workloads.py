"""The benchmark's workloads: pinned CLI operations and their output checks.

Each op is one ``meandim`` command line.  ``{specs}`` in an argument is
replaced by the directory of the workload specs and ``{seed}`` by the
benchmark seed; the seed reaches only ``carpet-dims`` and ``kg-mass-demo``
and never changes which ops run.

Why each workload was chosen is recorded in BENCHMARK.json and README.md.
A check takes the parsed JSON report and returns a list of problems; an
empty list means the output is correct.  References are independent of
meandim: OEIS sequences, Fibonacci numbers, closed forms, and integers
pinned from a verified run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

LOG_PHI = math.log((1 + math.sqrt(5)) / 2)
HARD_SQUARE_ENTROPY = 0.4074951  # Baxter, rounded down

# OEIS A006506: independent sets in the n x n grid graph, n = 1..12.
A006506 = (2, 7, 63, 1234, 55447, 5598861, 1280128950, 660647962955,
           770548397261707, 2030049051145980050, 12083401651433651945979,
           162481813349792588536582997)

# Independent sets in the l1 ball of radius 0..3 of Z^2, counted row by row
# (tests/test_checks.py recomputes them).
HARD_SQUARE_BALLS = (2, 17, 689, 139344)

# kg-experiment kind=kset, m-max 1: (eps, lower, upper) per eps.
KSET_BOUNDS = ((0.1, 216, 216), (0.01, 5832, 5832),
               (0.001, 195112, 195112), (0.0001, 6331625, 6331625),
               (1e-05, 202262003, 202262003))

MCMULLEN_MDIM_H = math.log2(1 + math.sqrt(2))
MCMULLEN_MDIM_M = math.log(3) / math.log(4) + 0.5
LOG_TOL = 1e-9


def fibonacci(n: int) -> int:
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def _close(got: float, want: float, tol: float = LOG_TOL) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def _series_counts(report, want: dict, what: str) -> list[str]:
    """Compare each series row's log_count with log of the reference count."""
    rows = report["results"]["series"]
    problems = []
    if sorted(r[0] for r in rows) != sorted(want):
        problems.append(f"{what}: window indices {[r[0] for r in rows]}")
    for index, _size, log_count, _per_site in rows:
        if index in want and not _close(log_count, math.log(want[index])):
            problems.append(f"{what}: window {index} log_count {log_count} "
                            f"!= log {want[index]}")
    return problems


def _certified_at_least(report, floor: float, what: str) -> list[str]:
    cert = report["results"].get("certified_upper")
    if cert is None:
        return [f"{what}: no certified_upper"]
    if not cert["value"] >= floor:
        return [f"{what}: certified_upper {cert['value']} < {floor}"]
    return []


def check_hard_square_boxes(report) -> list[str]:
    want = dict(enumerate(A006506, start=1))
    return (_series_counts(report, want, "hard-square boxes")
            + _certified_at_least(report, HARD_SQUARE_ENTROPY, "hard square"))


def check_hard_square_balls(report) -> list[str]:
    want = dict(enumerate(HARD_SQUARE_BALLS))
    return _series_counts(report, want, "hard-square balls")


def check_golden_boxes(report) -> list[str]:
    want = {n: fibonacci(n + 2) for n in range(1, 65)}
    return (_series_counts(report, want, "golden-mean boxes")
            + _certified_at_least(report, LOG_PHI, "golden mean"))


def _sandwich_ok(res, what: str) -> list[str]:
    rows = res.get("sandwich", [])
    if not rows:
        return [f"{what}: no sandwich rows"]
    return [f"{what}: sandwich row m={r['m']} l={r['l']} not ok"
            for r in rows if r.get("ok") is not True]


def check_golden_b(report) -> list[str]:
    res = report["results"]
    problems = _sandwich_ok(res, "golden-B carpet")
    if not res["mdim_H"]["value"] <= res["mdim_M"]["value"] + LOG_TOL:
        problems.append("golden-B carpet: mdim_H > mdim_M")
    return problems


def check_mcmullen(report) -> list[str]:
    res = report["results"]
    problems = _sandwich_ok(res, "McMullen carpet")
    for key, want in (("mdim_H", MCMULLEN_MDIM_H), ("mdim_M", MCMULLEN_MDIM_M)):
        if not abs(res[key]["value"] - want) <= LOG_TOL:
            problems.append(f"McMullen {key} {res[key]['value']} != {want}")
    return problems


def check_homog_probe(report) -> list[str]:
    res = report["results"]
    problems = []
    if res["implication"]["value"] is not True:
        problems.append("homogeneous probe: implication is not true")
    if len(res["rows"]) != 3:
        problems.append(f"homogeneous probe: {len(res['rows'])} rows, want 3")
    return problems


def check_selfsimilar_probe(report) -> list[str]:
    res = report["results"]
    limit = res["bound"] + res["slack"]
    slopes = res["slopes"]
    if set(slopes) != {"512"}:
        return [f"self-similar probe: slopes for windows {sorted(slopes)}"]
    return [f"self-similar probe: slope {s['value']} > bound + slack {limit}"
            for s in slopes.values() if not s["value"] <= limit]


def _brackets_ok(res, what: str, n_rows: int) -> list[str]:
    rows = res["rows"]
    problems = [f"{what}: bracket_ok false at eps={r['eps']}"
                for r in rows if r["bracket_ok"] is not True]
    if len(rows) != n_rows:
        problems.append(f"{what}: {len(rows)} rows, want {n_rows}")
    return problems


def check_kset(report) -> list[str]:
    res = report["results"]
    problems = _brackets_ok(res, "kset sweep", len(KSET_BOUNDS))
    got = tuple((r["eps"], int(r["lower"]), int(r["upper"]))
                for r in res["rows"])
    if got != KSET_BOUNDS:
        problems.append(f"kset sweep: (eps, lower, upper) {got}")
    return problems


def check_unit(report) -> list[str]:
    return _brackets_ok(report["results"], "unit sweep", 4)


def check_mass_demo(report) -> list[str]:
    res = report["results"]
    problems = []
    if res["monotone"] is not True:
        problems.append("mass demo: bounds not monotone in k")
    if [r["k"] for r in res["reports"]] != [2, 4, 6, 8]:
        problems.append("mass demo: wrong k list")
    return problems


@dataclass(frozen=True)
class Op:
    name: str
    argv: tuple
    check: Callable[[dict], list]

    def command(self, specs_dir: str, seed: int) -> list[str]:
        return [a.replace("{specs}", specs_dir).replace("{seed}", str(seed))
                for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple

    def spec_files(self) -> list[str]:
        """Spec file names the ops read, in first-use order."""
        out = []
        for op in self.ops:
            spec = op.argv[op.argv.index("--spec") + 1]
            name = spec.replace("{specs}/", "")
            if name not in out:
                out.append(name)
        return out


WORKLOADS = {w.name: w for w in (
    Workload(
        "counting",
        (Op("hard-square-boxes",
            ("entropy", "--spec", "{specs}/hard_square.json",
             "--m-max", "12", "--folner", "boxes"), check_hard_square_boxes),
         Op("hard-square-balls",
            ("entropy", "--spec", "{specs}/hard_square.json",
             "--m-max", "3", "--folner", "balls"), check_hard_square_balls),
         Op("golden-mean-boxes",
            ("entropy", "--spec", "{specs}/golden_mean.json",
             "--m-max", "64", "--folner", "boxes"), check_golden_boxes))),
    Workload(
        "clouds",
        (Op("golden-b-carpet",
            ("carpet-dims", "--spec", "{specs}/golden_b.json", "--m-max", "3",
             "--l-max", "2", "--folner", "boxes", "--seed", "{seed}"),
            check_golden_b),
         Op("mcmullen-carpet",
            ("carpet-dims", "--spec", "{specs}/mcmullen.json", "--m-max", "2",
             "--l-max", "6", "--seed", "{seed}"), check_mcmullen),
         Op("homogeneous-probe",
            ("homog-probe", "--spec", "{specs}/homog_full.json",
             "--eps-grid", "1/8,1/16,1/32", "--folner", "boxes"),
            check_homog_probe),
         Op("selfsimilar-probe",
            ("selfsimilar-probe", "--spec", "{specs}/selfsim_golden.json",
             "--window-sizes", "512"), check_selfsimilar_probe))),
    Workload(
        "sweeps",
        (Op("kset-sweep",
            ("kg-experiment", "--spec", "{specs}/kspace_kset.json",
             "--m-max", "1",
             "--eps-grid", "1/10,1/100,1/1000,1/10000,1/100000"), check_kset),
         Op("unit-sweep",
            ("kg-experiment", "--spec", "{specs}/kspace_unit.json",
             "--m-max", "1", "--eps-grid", "1/10,1/100,1/1000,1/10000"),
            check_unit),
         Op("mass-demo",
            ("kg-mass-demo", "--spec", "{specs}/kspace_kset.json",
             "--k-list", "2,4,6,8", "--seed", "{seed}"), check_mass_demo))),
)}
