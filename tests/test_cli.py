import json
import math
import os
import re
import subprocess
import sys
import time

import pytest

from meandim import cli
from meandim.cli import main, parse_caps, parse_system, validate
from meandim.groups import CapExceeded
from meandim.selfsimilar import NetTooCoarse

CARPET_FULL = {"system": "carpet", "a": 3, "b": 2,
               "omega": {"rank": 1, "alphabet": {"a": 3, "b": 2},
                         "rule": {"type": "full"}, "name": "full-3x2"},
               "weights": {"rho": "1/4"}}
MCMULLEN = {"system": "carpet", "a": 4, "b": 2,
            "omega": {"rank": 1, "alphabet": {"a": 4, "b": 2},
                      "rule": {"type": "cellwise",
                               "allowed": [[0, 0], [1, 0], [0, 1]]},
                      "name": "mcmullen"}}
GOLDEN = {"system": "subshift", "rank": 1, "alphabet": {"k": 2},
          "rule": {"type": "nearest_neighbor", "axis_forbidden": {"0": [[1, 1]]}},
          "name": "golden-mean"}
HARD_SQUARE = {"system": "subshift", "rank": 2, "alphabet": {"k": 2},
               "rule": {"type": "nearest_neighbor",
                        "axis_forbidden": {"0": [[1, 1]], "1": [[1, 1]]}},
               "name": "hard-square"}
SELFSIM = {"system": "selfsimilar", "c": "1/2", "values": [0, 1],
           "omega": GOLDEN}
GOLDEN_B = {"system": "carpet", "a": 2, "b": 2,
            "omega": {"rank": 1, "alphabet": {"a": 2, "b": 2},
                      "rule": {"type": "nearest_neighbor",
                               "axis_forbidden": {"0": [[1, 1], [1, 3],
                                                        [3, 1], [3, 3]]}},
                      "name": "golden-mean-on-B"}}
HOMOG = {"system": "homogeneous", "base": 2,
         "digits": {"rank": 2, "alphabet": {"k": 2}, "rule": {"type": "full"}}}
HOMOG_VGOLD = {"system": "homogeneous", "base": 2,
               "digits": {"rank": 2, "alphabet": {"k": 2},
                          "rule": {"type": "nearest_neighbor",
                                   "axis_forbidden": {"1": [[1, 1]]}},
                          "name": "digits-vertical-golden"}}
KSPACE = {"system": "kspace", "rank": 1, "kind": "kset"}


def write_spec(tmp_path, doc, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_carpet_dims_full_shift(tmp_path, capsys):
    spec = write_spec(tmp_path, CARPET_FULL)
    code, report = run(capsys, ["carpet-dims", "--spec", spec,
                                "--m-max", "1", "--l-max", "2"])
    assert code == 0
    res = report["results"]
    assert abs(res["mdim_M"]["value"] - 2.0) <= 1e-9
    assert abs(res["mdim_H"]["value"] - 2.0) <= 1e-9
    assert report["status"] == "ok"


def test_carpet_dims_mcmullen(tmp_path, capsys):
    spec = write_spec(tmp_path, MCMULLEN)
    code, report = run(capsys, ["carpet-dims", "--spec", spec,
                                "--m-max", "1", "--l-max", "3"])
    assert code == 0
    res = report["results"]
    assert abs(res["mdim_H"]["value"] - math.log2(1 + math.sqrt(2))) <= 1e-9
    assert all(s["ok"] for s in res["sandwich"])
    assert res["sandwich_skipped"] == []  # product rules are never skipped


def test_carpet_dims_lists_the_sandwich_checks_it_skips(tmp_path, capsys):
    # the spec of perfbench/specs/golden_b.json: at m = 1 the checks from
    # l = 2 on would compare more than 1e5 pairs of representatives
    spec = write_spec(tmp_path, GOLDEN_B)
    code, report = run(capsys, ["carpet-dims", "--spec", spec,
                                "--m-max", "2", "--l-max", "4"])
    assert code == 0
    res = report["results"]
    assert [(s["m"], s["l"]) for s in res["sandwich"]] == [
        (0, 1), (0, 2), (0, 3), (0, 4), (1, 1)]
    assert res["sandwich_skipped"] == [
        {"m": 1, "l": l, "reps": str(reps), "reason": "pairwise budget"}
        for l, reps in ((2, 1600), (3, 64000), (4, 2560000))]


def test_entropy_golden(tmp_path, capsys):
    spec = write_spec(tmp_path, GOLDEN)
    code, report = run(capsys, ["entropy", "--spec", spec, "--m-max", "16",
                                "--folner", "boxes"])
    assert code == 0
    assert abs(report["results"]["per_site"]["value"] - 0.4909) < 2e-3
    assert report["results"]["certified_upper"]["provenance"] == "certified-bound"


def test_entropy_obeys_the_pattern_cap(tmp_path, capsys):
    # the hard square's 12 x 12 box peaks at 466 live frontier states
    spec = write_spec(tmp_path, HARD_SQUARE)
    argv = ["entropy", "--spec", spec, "--m-max", "12", "--folner", "boxes"]
    code, report = run(capsys, argv + ["--caps", "patterns=10"])
    assert code == 1 and report["status"] == "failed"
    # the first box past 10 states is box(5)
    assert report["results"] == {"cap_abort": "patterns cap 10 exceeded: "
                                 "box(5) needs 13 live frontier states"}
    code, report = run(capsys, argv + ["--caps", "patterns=465"])
    assert report["results"] == {"cap_abort": "patterns cap 465 exceeded: "
                                 "box(12) needs 466 live frontier states"}
    code, report = run(capsys, argv + ["--caps", "patterns=466"])
    assert code == 0 and len(report["results"]["series"]) == 12


def test_entropy_weighted_flag(tmp_path, capsys):
    spec = write_spec(tmp_path, {**MCMULLEN["omega"], "system": "subshift"})
    code, report = run(capsys, ["entropy", "--spec", spec, "--m-max", "2",
                                "--w", "0.5"])
    assert code == 0
    assert abs(report["results"]["per_site"]["value"]
               - math.log(1 + math.sqrt(2))) < 1e-9


def test_weighted_entropy_obeys_the_cell_cap(tmp_path, capsys):
    spec = write_spec(tmp_path, {**MCMULLEN["omega"], "system": "subshift"})
    argv = ["entropy", "--spec", spec, "--m-max", "3", "--caps", "cells=5"]
    for extra in ([], ["--w", "0.5"]):
        code, report = run(capsys, argv + extra)
        assert code == 1 and report["results"] == {
            "cap_abort": "cells cap 5 exceeded: ball(3) needs 7 cells"}
    code, report = run(capsys, argv[:-1] + ["cells=7", "--w", "0.5"])
    assert code == 0 and len(report["results"]["series"]) == 4


def test_weighted_entropy_csv_names_the_log_z_column(tmp_path, capsys):
    spec = write_spec(tmp_path, {**GOLDEN_B["omega"], "system": "subshift"})
    code, report = run(capsys, ["entropy", "--spec", spec, "--w", "0.5",
                                "--folner", "boxes", "--m-max", "4"])
    assert code == 0
    lines = report["results"]["csv"].splitlines()
    assert lines[0] == "m,window_size,log_z,per_site"
    assert [line.split(",")[:2] for line in lines[1:]] == [
        [str(m), str(m)] for m in range(1, 5)]


def test_homog_entropy_rows_are_n_depth_size_log_count_per_site(tmp_path,
                                                                 capsys):
    # vertical golden digits: the columns of F_n x {0..N-1} are independent
    # golden-mean words of length N, Fib(N + 2) each
    spec = write_spec(tmp_path, HOMOG_VGOLD)
    code, report = run(capsys, ["homog-entropy", "--spec", spec,
                                "--m-max", "2", "--depths", "2", "4", "8"])
    assert code == 0
    fib = {2: 3, 4: 8, 8: 55}
    want = [(n, depth, depth * (2 * n + 1),
             math.log(fib[depth]) * (2 * n + 1)) for n in (1, 2)
            for depth in (2, 4, 8)]
    rows = report["results"]["series"]
    assert [tuple(r[:3]) for r in rows] == [w[:3] for w in want]
    for (n, depth, size, log_count, per_site), w in zip(rows, want):
        assert log_count == pytest.approx(w[3], rel=1e-12)
        assert per_site == log_count / size


def test_carpet_dims_obeys_the_cell_and_pattern_caps(tmp_path, capsys):
    spec = write_spec(tmp_path, MCMULLEN)
    argv = ["carpet-dims", "--spec", spec, "--m-max", "2", "--l-max", "2"]
    code, report = run(capsys, argv + ["--caps", "cells=2,patterns=1"])
    assert code == 1 and report["results"] == {
        "cap_abort": "cells cap 2 exceeded: ball(1) needs 3 cells"}
    # ball(0) has 3 McMullen patterns in its fiber table
    code, report = run(capsys, argv + ["--caps", "patterns=2"])
    assert code == 1 and report["results"] == {
        "cap_abort": "patterns cap 2 exceeded: ball(0) needs >= 3 patterns"}
    # golden mean on B: the frontier DP count of ball(1) peaks at 4 live
    # states, its fiber table holds 40 patterns
    spec = write_spec(tmp_path, GOLDEN_B, "golden_b.json")
    argv = ["carpet-dims", "--spec", spec, "--m-max", "1", "--l-max", "1"]
    code, report = run(capsys, argv + ["--caps", "patterns=3"])
    assert code == 1 and report["results"] == {"cap_abort": "patterns cap 3 "
                                 "exceeded: ball(1) needs 4 live frontier states"}
    code, report = run(capsys, argv + ["--caps", "patterns=39"])
    assert code == 1 and report["results"] == {
        "cap_abort": "patterns cap 39 exceeded: ball(1) needs >= 40 patterns"}
    code, report = run(capsys, argv + ["--caps", "cells=3,patterns=40"])
    assert code == 0 and report["status"] == "ok"


def test_carpet_dims_sandwich_windows_obey_the_cell_cap(tmp_path, capsys):
    # the entropy boxes hold 1 cell; the product-mode sandwich row at m = 1
    # raises the ball(0) count to |ball(1)| = 3 cells
    spec = write_spec(tmp_path, MCMULLEN)
    code, report = run(capsys, ["carpet-dims", "--spec", spec, "--folner",
                                "boxes", "--m-max", "1", "--l-max", "2",
                                "--caps", "cells=2"])
    assert code == 1 and report["results"] == {
        "cap_abort": "cells cap 2 exceeded: ball(1) needs 3 cells"}


def test_selfsimilar_commands(tmp_path, capsys):
    spec = write_spec(tmp_path, SELFSIM)
    code, report = run(capsys, ["selfsimilar-bound", "--spec", spec])
    assert code == 0
    assert report["results"]["bound"]["value"] == pytest.approx(
        report["results"]["entropy"]["value"] / math.log(2))
    code, report = run(capsys, ["selfsimilar-probe", "--spec", spec,
                                "--window-sizes", "512"])
    assert code == 0
    assert report["results"]["slopes"]["512"]["value"] <= \
        report["results"]["bound"] + 0.05


def test_selfsimilar_bound_obeys_the_cell_and_pattern_caps(tmp_path, capsys):
    # the entropy bound counts the boxes 4, 8 and 16 of the driving shift
    spec = write_spec(tmp_path, SELFSIM)
    argv = ["selfsimilar-bound", "--spec", spec]
    code, report = run(capsys, argv + ["--caps", "cells=15"])
    assert code == 1 and report["results"] == {
        "cap_abort": "cells cap 15 exceeded: box(16) needs 16 cells"}
    code, report = run(capsys, argv + ["--caps", "patterns=1"])
    assert code == 1 and report["results"] == {
        "cap_abort": "patterns cap 1 exceeded: box(4) needs 2 live frontier "
                     "states"}
    code, report = run(capsys, argv + ["--caps", "cells=16,patterns=2"])
    assert code == 0 and report["status"] == "ok"


def test_selfsimilar_probe_caps_reach_its_entropy_bound(tmp_path, capsys):
    # a 1-cell orbit fits the cap; the bound's box(16) does not
    spec = write_spec(tmp_path, SELFSIM)
    code, report = run(capsys, ["selfsimilar-probe", "--spec", spec,
                                "--window-sizes", "1", "--caps", "cells=15"])
    assert code == 1 and report["results"] == {
        "cap_abort": "cells cap 15 exceeded: box(16) needs 16 cells"}


def test_homog_commands(tmp_path, capsys):
    spec = write_spec(tmp_path, HOMOG)
    code, report = run(capsys, ["homog-entropy", "--spec", spec,
                                "--m-max", "2", "--depths", "2", "4"])
    assert code == 0
    assert abs(report["results"]["prediction"]["value"] - 1.0) <= 1e-9
    code, report = run(capsys, ["homog-probe", "--spec", spec,
                                "--eps-grid", "1/8", "--folner", "boxes"])
    assert code == 0
    assert report["results"]["implication"]["value"] is True


def test_homog_entropy_obeys_the_cell_cap(tmp_path, capsys):
    # the balls of Z carry ball(1), 3 cells, at the first index
    spec = write_spec(tmp_path, HOMOG)
    code, report = run(capsys, ["homog-entropy", "--spec", spec,
                                "--caps", "cells=2,patterns=1"])
    assert code == 1 and report["results"] == {
        "cap_abort": "cells cap 2 exceeded: ball(1) needs 3 cells"}


def test_homog_probe_with_slowly_decaying_weights_is_a_spec_error(tmp_path,
                                                                   capsys):
    # the slope series needs eps > total * tail(1), here 11/9 * 2/9 = 22/81
    spec = write_spec(tmp_path, {**HOMOG, "weights": {"rho": "1/10"}})
    code = main(["homog-probe", "--spec", spec, "--eps-grid", "1/4",
                 "--folner", "boxes"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == ("spec error: homog-probe eps must exceed 22/81, "
                            "the weight total times its tail off the "
                            "identity\n")


def test_homog_probe_cap_abort_is_loud(tmp_path, capsys):
    # ball(1) windows push the exact pairwise cloud past the cap
    spec = write_spec(tmp_path, HOMOG)
    code, report = run(capsys, ["homog-probe", "--spec", spec,
                                "--eps-grid", "1/8", "--folner", "balls"])
    assert code == 1
    assert "cap_abort" in report["results"]


def test_homog_probe_cap_abort_names_the_digit_cloud(tmp_path, capsys):
    # the default eps 1/8 on ball(1) windows: the 4000-point cap stops the
    # digit cloud, one point per digit pattern, and the message says so
    spec = write_spec(tmp_path, HOMOG)
    code, report = run(capsys, ["homog-probe", "--spec", spec])
    assert code == 1
    assert report["status"] == "failed"
    assert report["results"] == {"cap_abort": "cloud cap 4000 exceeded: "
                                 "digit cloud of depth 4 needs >= 4001 points"}


@pytest.mark.parametrize("folner, caps, message", [
    ("boxes", "cloud=5",
     "cloud cap 5 exceeded: digit cloud of depth 4 needs >= 6 points"),
    ("boxes", "patterns=5",
     "patterns cap 5 exceeded: product(4) needs >= 6 patterns"),
    ("balls", "cells=2", "cells cap 2 exceeded: ball(1) needs 3 cells"),
    # box(1) and its tail support fit; the digit product window of depth 4
    # has 4 cells
    ("boxes", "cells=2", "cells cap 2 exceeded: product(4) needs 4 cells")])
def test_homog_probe_obeys_the_caps(tmp_path, capsys, folner, caps, message):
    # HOMOG is the spec of perfbench/specs/homog_full.json.  At eps 1/8 the
    # digit clouds have depth 4, one point per digit pattern of the product
    # window box(1) x 4, so both the cloud and the pattern cap bound them,
    # and the error names the smaller; ball(1) of Z has 3 cells
    spec = write_spec(tmp_path, HOMOG)
    code, report = run(capsys, ["homog-probe", "--spec", spec, "--eps-grid",
                                "1/8", "--folner", folner, "--caps", caps])
    assert code == 1 and report["results"] == {"cap_abort": message}


SPEC_OF_SYSTEM = {"subshift": GOLDEN, "carpet": MCMULLEN,
                  "selfsimilar": SELFSIM, "homogeneous": HOMOG,
                  "kspace": KSPACE}


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_every_command_reads_caps(tmp_path, capsys, command):
    spec = write_spec(tmp_path, SPEC_OF_SYSTEM[cli.COMMANDS[command][1]])
    code = main([command, "--spec", spec, "--caps", "bogus"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "spec error: bad caps entry 'bogus'\n"


# numpy.random and numpy.ma are not loaded by `import meandim`, and each
# costs a fresh process 15-20 ms to import; argparse, with the gettext and
# locale it loads, costs about 3 ms
GUARD_ARGS = {"homog-probe": ["--eps-grid", "1/8", "--folner", "boxes"]}
GUARD_SCRIPT = """\
import contextlib, io, json, sys
from meandim import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.split(".")[:2] in (["numpy", "random"],
                                                       ["numpy", "ma"])
                               or m in ("argparse", "dataclasses", "gettext",
                                        "locale"))]))
"""


def run_fresh(tmp_path, script, command):
    """The JSON that `script` prints when run in a fresh interpreter on
    the command line of `command` over its kind's test spec."""
    spec = write_spec(tmp_path, SPEC_OF_SYSTEM[cli.COMMANDS[command][1]])
    argv = [command, "--spec", spec] + GUARD_ARGS.get(command, [])
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_no_command_loads_numpy_random_or_ma(tmp_path, command):
    # nor argparse and its gettext and locale, nor dataclasses: the value
    # classes are `_record.Record`s, and numpy does not import dataclasses
    assert run_fresh(tmp_path, GUARD_SCRIPT, command) == [0, []]


# system kind -> the meandim modules a command of that kind loads
KIND_MODULES = {
    "kspace": {"kspace"},
    "subshift": {"subshifts", "entropy"},
    "carpet": {"subshifts", "entropy", "carpet"},
    "selfsimilar": {"subshifts", "entropy", "selfsimilar"},
    "homogeneous": {"subshifts", "entropy", "homogeneous"},
}
LOAD_SCRIPT = """\
import contextlib, io, json, sys
from meandim import cli
argv = json.loads(sys.argv[1])
with open(argv[2]) as handle:
    cli.parse_system(json.load(handle))
parsed = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(argv)
print(json.dumps([code, sorted(m for m in parsed if m.startswith("meandim")),
                  sorted(set(sys.modules) - parsed)]))
"""


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_a_command_loads_only_its_kinds_modules(tmp_path, command):
    # parse_system loads every module of the kind; a module first loaded
    # inside the command would compile inside its timed run
    code, loaded, added = run_fresh(tmp_path, LOAD_SCRIPT, command)
    assert code == 0
    assert loaded == sorted(["meandim"] + [
        f"meandim.{m}" for m in {"_record", "cli", "cmdline", "groups",
                                 "metrics"}
        | KIND_MODULES[cli.COMMANDS[command][1]]])
    assert added == []


def test_kg_commands(tmp_path, capsys):
    spec = write_spec(tmp_path, KSPACE)
    code, report = run(capsys, ["kg-experiment", "--spec", spec,
                                "--m-max", "1", "--eps-grid",
                                "1/10,1/100,1/1000"])
    assert code == 0
    rows = report["results"]["rows"]
    assert all(r["bracket_ok"] for r in rows)
    code, report = run(capsys, ["kg-mass-demo", "--spec", spec,
                                "--seed", "4"])
    assert code == 0
    assert report["results"]["monotone"] is True


@pytest.mark.parametrize("rho, grid", [("1/2", "1/10,1/100,1/1000"),
                                       ("99/100", "1/10")])
def test_kg_experiment_brackets_slow_weights(tmp_path, capsys, rho, grid):
    # a tail support at eps rather than 3 eps/4 left a cover budget below
    # the eps/(4c) of the zeta bracket: both runs failed the bracket
    spec = write_spec(tmp_path, {**KSPACE, "weights": {"rho": rho}})
    code, report = run(capsys, ["kg-experiment", "--spec", spec,
                                "--m-max", "1", "--eps-grid", grid])
    assert code == 0 and report["status"] == "ok"
    rows = report["results"]["rows"]
    assert len(rows) == grid.count(",") + 1
    assert all(r["bracket_ok"] for r in rows)


def test_kg_experiment_on_slow_rank3_weights_meets_the_cell_cap(tmp_path,
                                                                capsys):
    # the rank-3 tail support of eps 1/1000 is ball(2486); summing sphere
    # terms one radius at a time took about 10 s to find it on 2 vCPU x86_64
    spec = write_spec(tmp_path, {**KSPACE, "rank": 3,
                                 "weights": {"rho": "99/100"}})
    start = time.perf_counter()
    code, report = run(capsys, ["kg-experiment", "--spec", spec,
                                "--m-max", "1", "--eps-grid", "1/10,1/1000"])
    assert time.perf_counter() - start < 2
    assert code == 1 and report["results"] == {
        "cap_abort": "cells cap 1000000 exceeded: ball(2486) needs "
                     "20497656697 cells"}


def test_kg_mass_demo_obeys_the_cell_cap(tmp_path, capsys):
    # ball(1) has 3 cells; the default boxes give box(1), a single cell
    spec = write_spec(tmp_path, KSPACE)
    code, report = run(capsys, ["kg-mass-demo", "--spec", spec,
                                "--folner", "balls", "--caps", "cells=2"])
    assert code == 1 and report["results"] == {
        "cap_abort": "cells cap 2 exceeded: ball(1) needs 3 cells"}


def test_kg_experiment_obeys_the_cell_cap(tmp_path, capsys):
    # the default weights decay so fast that every tail support is ball(0):
    # the Folner balls 1, 2, 3 of 3, 5, 7 cells meet the cap first
    spec = write_spec(tmp_path, KSPACE)
    for cap, window in ((2, "ball(1) needs 3 cells"),
                        (6, "ball(3) needs 7 cells")):
        code, report = run(capsys, ["kg-experiment", "--spec", spec,
                                    "--caps", f"cells={cap}"])
        assert code == 1 and report["results"] == {
            "cap_abort": f"cells cap {cap} exceeded: {window}"}
    # under rho 1/2 the tail support of eps 1/10 is ball(6), 13 cells, and
    # its sum with ball(1) ball(7), 15 cells
    spec = write_spec(tmp_path, {**KSPACE, "weights": {"rho": "1/2"}})
    code, report = run(capsys, ["kg-experiment", "--spec", spec,
                                "--caps", "cells=14"])
    assert code == 1 and report["results"] == {
        "cap_abort": "cells cap 14 exceeded: sum of ball(6) and ball(1) "
                     "needs >= 15 cells"}


def test_selfsimilar_probe_obeys_the_cell_and_pattern_caps(tmp_path, capsys):
    spec = write_spec(tmp_path, SELFSIM)
    argv = ["selfsimilar-probe", "--spec", spec, "--window-sizes", "512"]
    code, report = run(capsys, argv + ["--caps", "cells=10,patterns=10"])
    assert code == 1 and report["results"] == {
        "cap_abort": "cells cap 10 exceeded: box(512) needs 512 cells"}
    # the golden-mean boxes of the entropy bound are counted by the
    # frontier DP with 2 live states
    code, report = run(capsys, argv + ["--caps", "patterns=1"])
    assert code == 1 and report["results"] == {
        "cap_abort": "patterns cap 1 exceeded: box(4) needs 2 live frontier "
                     "states"}


def test_selfsimilar_probe_obeys_the_radius_cap(tmp_path, capsys):
    # under rho 1/4 a net at eps 10^-700000 needs a radius past 10^6
    spec = write_spec(tmp_path, SELFSIM)
    code, report = run(capsys, ["selfsimilar-probe", "--spec", spec,
                                "--window-sizes", "8",
                                "--eps-grid", "1/10,1e-700000"])
    assert code == 1 and report["results"] == {
        "cap_abort": "radius cap 1000000 exceeded: net of rho 1/4 needs "
                     "radius >= 1000001"}


def test_net_counts_print_in_full(tmp_path, capsys):
    # the net of box(21000) holds a count of 4392 digits, past Python's
    # default limit of 4300 digits for int-to-str conversion
    spec = write_spec(tmp_path, SELFSIM)
    code, report = run(capsys, ["selfsimilar-probe", "--spec", spec,
                                "--window-sizes", "21000"])
    assert code == 0 and report["status"] == "ok"
    assert {len(row["net_count"]) for row in report["results"]["rows"]} \
        == {4392}
    assert report["results"]["slopes"]["21000"]["value"] == \
        pytest.approx(0.6946, abs=1e-4)


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_negative_seeds_are_spec_errors(tmp_path, capsys, command):
    spec = write_spec(tmp_path, SPEC_OF_SYSTEM[cli.COMMANDS[command][1]])
    code = main([command, "--spec", spec, "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "spec error: --seed must be non-negative, got -1\n"


def test_validate_rejects_bad_specs(tmp_path, capsys):
    bad = write_spec(tmp_path, {"system": "carpet", "a": 2, "b": 3,
                                "omega": {"rank": 1,
                                          "alphabet": {"a": 2, "b": 3},
                                          "rule": {"type": "full"}}})
    code, report = run(capsys, ["validate", "--spec", bad])
    assert code == 2
    assert any("a >= b >= 2" in d for d in report["diagnostics"])
    bad_c = write_spec(tmp_path, {**SELFSIM, "c": "1"}, "c1.json")
    code, report = run(capsys, ["validate", "--spec", bad_c])
    assert code == 2
    assert any("0 < c < 1" in d for d in report["diagnostics"])


def test_validate_accepts_good_spec(tmp_path, capsys):
    spec = write_spec(tmp_path, MCMULLEN)
    code, report = run(capsys, ["validate", "--spec", spec])
    assert code == 0
    assert report["diagnostics"] == []


def test_malformed_json_exits_two_without_output(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{broken")
    out_dir = tmp_path / "out"
    code = main(["entropy", "--spec", str(path), "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert not out_dir.exists()


def test_command_spec_mismatch(tmp_path, capsys):
    spec = write_spec(tmp_path, GOLDEN)
    code = main(["carpet-dims", "--spec", spec])
    capsys.readouterr()
    assert code == 2


def test_determinism_modulo_timing(tmp_path, capsys):
    # product and explicit sandwich paths, the homogeneous probe, K sweeps
    for doc, args in (
            (MCMULLEN, ["carpet-dims", "--m-max", "1", "--l-max", "2",
                        "--seed", "9"]),
            (GOLDEN_B, ["carpet-dims", "--m-max", "1", "--l-max", "2"]),
            (HOMOG, ["homog-probe", "--eps-grid", "1/8", "--folner", "boxes"]),
            (HOMOG, ["homog-probe", "--eps-grid", "1/256,1/512", "--folner",
                     "boxes"]),
            (KSPACE, ["kg-experiment", "--m-max", "1", "--eps-grid",
                      "1/10,1/100,1/1000,1/10000,1/100000"]),
            (SELFSIM, ["selfsimilar-probe", "--window-sizes", "512"]),
            (SELFSIM, ["selfsimilar-bound"]),
            (GOLDEN, ["entropy", "--folner", "boxes", "--m-max", "8"]),
            ({**GOLDEN_B["omega"], "system": "subshift"},
             ["entropy", "--w", "0.5", "--folner", "boxes", "--m-max", "4"]),
            (HOMOG_VGOLD, ["homog-entropy", "--m-max", "2", "--depths", "2",
                           "4", "8"])):
        argv = args[:1] + ["--spec", write_spec(tmp_path, doc)] + args[1:]
        code, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert code == 0
        first.pop("timing")
        second.pop("timing")
        assert json.dumps(first, sort_keys=True) == json.dumps(second,
                                                               sort_keys=True)


def test_out_directory_written_atomically(tmp_path, capsys):
    spec = write_spec(tmp_path, GOLDEN)
    out_dir = tmp_path / "results"
    code, _ = run(capsys, ["entropy", "--spec", spec, "--m-max", "4",
                           "--folner", "boxes", "--out", str(out_dir)])
    assert code == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["status"] == "ok"
    csv_text = (out_dir / "series.csv").read_text()
    assert csv_text.startswith("m,window_size")
    assert not [p for p in os.listdir(out_dir) if p.startswith(".meandim-")]


def test_parse_caps():
    caps = parse_caps("cells=500,patterns=1000")
    assert caps.cells == 500 and caps.patterns == 1000
    with pytest.raises(Exception):
        parse_caps("cells=-3")


@pytest.mark.parametrize("caps, message", [
    ("cells=\u00b2", "--caps cells: cannot read '\u00b2'"),
    ("cells=0", "--caps cells must be at least 1, got '0'"),
    ("patterns=-3", "--caps patterns must be at least 1, got '-3'"),
    ("cells", "bad caps entry 'cells'"),
    ("cells=", "--caps cells: cannot read ''")])
def test_bad_caps_values_are_spec_errors(tmp_path, capsys, caps, message):
    # a superscript two passes str.isdigit but is no int
    spec = write_spec(tmp_path, KSPACE)
    code = main(["kg-experiment", "--spec", spec, "--m-max", "1",
                 "--eps-grid", "1/10", "--caps", caps])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"spec error: {message}")
    assert captured.err.count("\n") == 1


def test_parse_system_unknown():
    with pytest.raises(Exception):
        parse_system({"system": "mystery"})
    assert validate({"system": "mystery"})


def test_out_directory_series_jsonl_for_row_reports(tmp_path, capsys):
    spec = write_spec(tmp_path, KSPACE)
    out_dir = tmp_path / "kg"
    code, _ = run(capsys, ["kg-experiment", "--spec", spec, "--m-max", "1",
                           "--eps-grid", "1/10,1/100", "--out", str(out_dir)])
    assert code == 0
    lines = (out_dir / "series.jsonl").read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["bracket_ok"] is True
    header = (out_dir / "summary.csv").read_text().splitlines()[0]
    assert "eps" in header and "lower" in header


def test_eps_grid_validation(tmp_path, capsys):
    spec = write_spec(tmp_path, KSPACE)
    code = main(["kg-experiment", "--spec", spec, "--eps-grid", "1/100,1/10"])
    capsys.readouterr()
    assert code == 2
    code = main(["kg-experiment", "--spec", spec, "--eps-grid", "2,1/10"])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("args", [
    ["kg-experiment", "--eps-grid", "1/3,1/10"],
    ["kg-experiment", "--eps-grid", "1/4"],
    ["kg-mass-demo", "--eps", "1/5"],
    ["kg-mass-demo", "--k-list", "0"],
])
def test_kspace_input_errors_are_spec_errors(tmp_path, capsys, args):
    spec = write_spec(tmp_path, KSPACE)
    code = main(args[:1] + ["--spec", spec] + args[1:])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("spec error:")


def test_kg_mass_demo_on_a_unit_spec_is_a_spec_error(tmp_path, capsys):
    # the demo's collapse bound would be certified on the cube power
    spec = write_spec(tmp_path, {**KSPACE, "kind": "unit"})
    code = main(["kg-mass-demo", "--spec", spec, "--k-list", "2"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("spec error: kg-mass-demo needs a 'kset' spec: "
                            "the collapse bound does not hold on the cube "
                            "power\n")


@pytest.mark.parametrize("doc, args", [
    (KSPACE, ["kg-mass-demo", "--eps", "abc"]),
    (KSPACE, ["kg-mass-demo", "--eps", "1/0"]),
    (KSPACE, ["kg-mass-demo", "--k-list", "2,x"]),
    (GOLDEN, ["entropy", "--w", "abc"]),
    (MCMULLEN, ["carpet-dims", "--w", "abc"]),
    (KSPACE, ["kg-experiment", "--eps-grid", "1/0"]),
    (KSPACE, ["kg-experiment", "--eps-grid", "1/10,x"]),
    (HOMOG, ["homog-probe", "--eps-grid", "1/0"]),
    (SELFSIM, ["selfsimilar-probe", "--eps-grid", "1/4,1/0"]),
    (GOLDEN, ["entropy", "--w", "0.5"]),
    (MCMULLEN["omega"], ["entropy", "--w", "1.5"]),
    (MCMULLEN["omega"], ["entropy", "--w", "nan"]),
    (MCMULLEN, ["carpet-dims", "--w", "1.5"]),
    (MCMULLEN, ["carpet-dims", "--w", "nan"]),
    (GOLDEN, ["entropy", "--m-max", "0", "--folner", "boxes"]),
    (MCMULLEN, ["carpet-dims", "--m-max", "0", "--folner", "boxes"]),
    (HOMOG, ["homog-entropy", "--m-max", "0"]),
    (KSPACE, ["kg-experiment", "--m-max", "0"]),
    (SELFSIM, ["selfsimilar-probe", "--window-sizes", "0"]),
    (SELFSIM, ["selfsimilar-probe", "--window-sizes", "4", "-1"]),
    (HOMOG, ["homog-entropy", "--depths", "0"]),
    (HOMOG, ["homog-entropy", "--depths", "4", "-2"]),
    (MCMULLEN, ["carpet-dims", "--l-max", "0"]),
    (GOLDEN_B, ["carpet-dims", "--l-max", "-1"]),
], ids=["mass-eps-text", "mass-eps-zero-den", "mass-k-list", "entropy-w",
        "carpet-w", "kg-grid-zero-den", "kg-grid-text", "homog-grid",
        "selfsim-grid", "entropy-w-unpaired", "entropy-w-above-one",
        "entropy-w-nan", "carpet-w-above-one", "carpet-w-nan",
        "entropy-boxes-m-max", "carpet-boxes-m-max", "homog-entropy-m-max",
        "kg-m-max", "selfsim-window-zero", "selfsim-window-negative",
        "homog-depth-zero", "homog-depth-negative", "carpet-l-max-zero",
        "carpet-l-max-negative"])
def test_unreadable_option_values_are_spec_errors(tmp_path, capsys, doc,
                                                  args):
    spec = write_spec(tmp_path, doc)
    code = main(args[:1] + ["--spec", spec] + args[1:])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("spec error:")


# a = b = 2 with the pair symbol 1 never right of 0: `validate` accepts it,
# but its projection to the base-b digits is no derivable subshift
PAIRED_RULE = {"system": "carpet", "a": 2, "b": 2,
               "omega": {"rank": 1, "alphabet": {"a": 2, "b": 2},
                         "rule": {"type": "nearest_neighbor",
                                  "axis_forbidden": {"0": [[0, 1]]}},
                         "name": "paired-rule"}}


def test_carpet_dims_without_a_projected_subshift_is_a_spec_error(tmp_path,
                                                                 capsys):
    spec = write_spec(tmp_path, PAIRED_RULE)
    code, report = run(capsys, ["validate", "--spec", spec])
    assert code == 0 and report["ok"]
    code = main(["carpet-dims", "--spec", spec])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("spec error:")


@pytest.mark.parametrize("grid", ["1/4", "1/4,1/4"],
                         ids=["one-value", "repeated-value"])
def test_selfsimilar_probe_needs_two_eps_values(tmp_path, capsys, grid):
    spec = write_spec(tmp_path, SELFSIM)
    code = main(["selfsimilar-probe", "--spec", spec, "--eps-grid", grid,
                 "--window-sizes", "8"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("spec error:")


def _subshift(rank, alphabet, rule):
    return {"system": "subshift", "rank": rank, "alphabet": alphabet,
            "rule": rule}


# (spec, command, field its message names): each spec once passed `validate`
# and then crashed or ran as another spec, failed `validate` and ran anyway,
# or failed with a message that did not name its field
MALFORMED = [
    ({**GOLDEN, "rank": 0}, "entropy", "rank"),
    ({**KSPACE, "rank": 0}, "kg-experiment", "rank"),
    ({**MCMULLEN, "a": 4.7}, "carpet-dims", "a"),
    ({**HOMOG, "base": 2.9}, "homog-entropy", "base"),
    ({**GOLDEN, "rank": 1.5}, "entropy", "rank"),
    (_subshift(1, {"k": 2}, {"type": "cellwise", "allowed": [5]}), "entropy",
     "rule"),
    (_subshift(1, {"a": 3, "b": 2},
               {"type": "cellwise", "allowed": [[0, 3]]}), "entropy", "pair"),
    (_subshift(1, {"k": 2}, {"type": "nearest_neighbor",
                             "axis_forbidden": {"3": [[1, 1]]}}), "entropy",
     "rule"),
    (_subshift(1, {"k": 2}, {"type": "nearest_neighbor",
                             "axis_forbidden": {"0": [[1, 7]]}}), "entropy",
     "axis"),
    (_subshift(1, {"k": 2}, {"type": "forbidden_patterns", "patterns": [
        {"offsets": [[0], [1, 2]], "symbols": [1, 1]}]}), "entropy",
     "forbidden pattern"),
    (_subshift(1, {"k": 2}, {"type": "forbidden_patterns", "patterns": [
        {"offsets": [[0], [1]], "symbols": [1]}]}), "entropy",
     "forbidden pattern"),
    ([GOLDEN], "entropy", "spec document"),
    ({**SELFSIM, "c": "1/0"}, "selfsimilar-bound", "c"),
    ({**MCMULLEN, "omega": [MCMULLEN["omega"]]}, "carpet-dims", "omega"),
    (_subshift(1, {"k": True}, {"type": "full"}), "entropy", "k"),
    (_subshift(1, {"a": -1, "b": -1}, {"type": "full"}), "entropy",
     "alphabet"),
    ({**KSPACE, "weights": ["1/2"]}, "kg-experiment", "weights"),
    (_subshift(1, {"a": 2, "b": 2},
               {"type": "cellwise", "allowed": [[0, 1, 1]]}), "entropy",
     "allowed"),
    ({**SELFSIM, "weights": {"rho": "1/0"}}, "selfsimilar-bound",
     "weights.rho"),
    (_subshift(1, {"k": 2}, {"type": "nearest_neighbor",
                             "axis_forbidden": [[1, 1]]}), "entropy",
     "axis_forbidden"),
    ({**SELFSIM, "c": 0.5}, "selfsimilar-bound", "c"),
    ({**SELFSIM, "values": [True, False]}, "selfsimilar-bound", "values"),
    ({**SELFSIM, "weights": {"rho": 0.25}}, "selfsimilar-bound",
     "weights.rho"),
    ({**SELFSIM, "values": "01"}, "selfsimilar-bound", "values"),
    ({**GOLDEN, "alphabet": [2]}, "entropy", "alphabet"),
    ({**GOLDEN, "rule": "full"}, "entropy", "rule"),
]
MALFORMED_IDS = ["subshift-rank-0", "kspace-rank-0", "carpet-a-float",
                 "homog-base-float", "subshift-rank-float",
                 "cellwise-symbol-outside", "cellwise-pair-outside",
                 "axis-beyond-rank", "axis-pair-outside",
                 "pattern-offset-length", "pattern-symbol-count",
                 "document-list", "contraction-zero-denominator",
                 "omega-list", "k-bool", "pair-negative", "weights-list",
                 "cellwise-pair-triple", "rho-zero-denominator",
                 "axis-forbidden-list", "contraction-float", "values-bool",
                 "rho-float", "values-string", "alphabet-list", "rule-string"]


@pytest.mark.parametrize("doc, command, field", MALFORMED,
                         ids=MALFORMED_IDS)
def test_malformed_specs_fail_validate_and_every_command(tmp_path, capsys,
                                                         doc, command, field):
    spec = write_spec(tmp_path, doc)
    code, report = run(capsys, ["validate", "--spec", spec])
    assert code == 2 and report["ok"] is False
    assert len(report["diagnostics"]) == 1
    assert re.search(rf"\b{re.escape(field)}\b", report["diagnostics"][0])
    code = main([command, "--spec", spec])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"spec error: {report['diagnostics'][0]}\n"


def test_unexpected_exceptions_are_internal_errors(tmp_path, capsys,
                                                   monkeypatch):
    def broken(system, args, caps):
        raise KeyError("lost")

    monkeypatch.setitem(cli.COMMANDS, "entropy", (broken, "subshift"))
    code, report = run(capsys, ["entropy", "--spec",
                                write_spec(tmp_path, GOLDEN)])
    assert code == 1
    assert report["status"] == "failed"
    assert report["results"] == {"internal_error": "KeyError: 'lost'"}


@pytest.mark.parametrize("exc, kind", [
    (CapExceeded("patterns", 10, "box(3)", "11 live frontier states"),
     "cap_abort"),
    (CapExceeded("cells", 5, "ball(1)", "6 cells"), "cap_abort"),
    (CapExceeded("cloud", 5, "representative cloud of depth 2", "6 points"),
     "cap_abort"),
    (CapExceeded("radius", 100, "tail support of rho 1/2", "radius >= 101"),
     "cap_abort"),
    (NetTooCoarse("need an address word of length 3, cloud depth is 2"),
     "cap_abort"),
    (RuntimeError("a runtime error that no cap raised"), "internal_error"),
    (RecursionError("maximum recursion depth exceeded"), "internal_error")],
    ids=["pattern-cap", "window-cap", "cloud-cap", "radius-cap",
         "net-too-coarse", "runtime-error", "recursion-error"])
def test_only_caps_are_cap_aborts(tmp_path, capsys, monkeypatch, exc, kind):
    def failing(system, args, caps):
        raise exc

    monkeypatch.setitem(cli.COMMANDS, "entropy", (failing, "subshift"))
    code, report = run(capsys, ["entropy", "--spec",
                                write_spec(tmp_path, GOLDEN)])
    assert code == 1 and report["status"] == "failed"
    message = (str(exc) if kind == "cap_abort"
               else f"{type(exc).__name__}: {exc}")
    assert report["results"] == {kind: message}


def test_carpet_dims_obeys_the_cloud_cap(tmp_path, capsys):
    # McMullen's ball(0) has 3 patterns and 2 projected ones: the depth-2
    # representatives number 3 * 2
    spec = write_spec(tmp_path, MCMULLEN)
    argv = ["carpet-dims", "--spec", spec, "--m-max", "1", "--l-max", "2"]
    code, report = run(capsys, argv + ["--caps", "cloud=5"])
    assert code == 1 and report["results"] == {"cap_abort": "cloud cap 5 "
                                 "exceeded: representative cloud of depth 2 "
                                 "needs 6 points"}
    code, report = run(capsys, argv + ["--caps", "cloud=6"])
    assert code == 0 and report["status"] == "ok"


def test_carpet_dims_cloud_cap_bounds_only_the_cloud(tmp_path, capsys):
    # the 3 patterns of ball(0) are enumerated under the pattern cap, so a
    # cloud cap below them still reaches the representative cloud
    spec = write_spec(tmp_path, MCMULLEN)
    argv = ["carpet-dims", "--spec", spec, "--m-max", "1", "--l-max", "2"]
    code, report = run(capsys, argv + ["--caps", "cloud=2"])
    assert code == 1 and report["results"] == {"cap_abort": "cloud cap 2 "
                                 "exceeded: representative cloud of depth 2 "
                                 "needs 6 points"}


def test_config_records_every_option_that_changes_results(tmp_path, capsys):
    spec = write_spec(tmp_path, KSPACE)
    configs = []
    for k in ("2", "4"):
        code, report = run(capsys, ["kg-mass-demo", "--spec", spec,
                                    "--k-list", k, "--eps", "1/20",
                                    "--caps", "cells=500"])
        assert code == 0
        configs.append(report["config"])
    assert [c["k_list"] for c in configs] == ["2", "4"]
    assert all(c["eps"] == "1/20" and c["caps"] == "cells=500"
               for c in configs)


NEAR_ONE = f"{10 ** 17 - 1}/{10 ** 17}"  # its float is 1.0


def test_selfsimilar_commands_at_a_ratio_whose_float_is_one(tmp_path,
                                                            capsys):
    spec = write_spec(tmp_path, {**SELFSIM, "c": NEAR_ONE})
    code, report = run(capsys, ["selfsimilar-bound", "--spec", spec])
    assert code == 0
    # log(1/c) = log1p(1/(10^17 - 1)), about 1e-17
    assert report["results"]["bound"]["value"] == pytest.approx(
        report["results"]["entropy"]["value"] * 1e17)
    code, report = run(capsys, ["selfsimilar-probe", "--spec", spec,
                                "--window-sizes", "8"])
    assert code == 1
    assert report["results"]["cap_abort"].startswith("radius cap ")
    # a ratio whose float is 0 takes log(1/c) from its numerator and
    # denominator
    spec = write_spec(tmp_path, {**SELFSIM, "c": f"1/{10 ** 400}"},
                      "tiny.json")
    code, report = run(capsys, ["selfsimilar-bound", "--spec", spec])
    assert code == 0
    assert report["results"]["bound"]["value"] == pytest.approx(
        report["results"]["entropy"]["value"] / (400 * math.log(10)))
    # a ratio whose log(1/c) rounds to 0 even so is a spec error
    spec = write_spec(tmp_path, {**SELFSIM, "c": f"{10 ** 400 - 1}/"
                                 f"{10 ** 400}"}, "hair.json")
    for command in ("selfsimilar-bound", "selfsimilar-probe"):
        assert main([command, "--spec", spec]) == 2
        assert "log(1/c) rounds to 0" in capsys.readouterr().err


def test_selfsimilar_probe_at_an_eps_whose_float_is_zero(tmp_path, capsys):
    # log(1/eps) comes from eps's numerator and denominator, so the probe
    # reaches its slope check, which a net this fine fails
    spec = write_spec(tmp_path, SELFSIM)
    code, report = run(capsys, ["selfsimilar-probe", "--spec", spec,
                                "--eps-grid", f"1/2,1/{10 ** 400}"])
    assert code == 1
    assert list(report["results"]) == ["assertion_failed"]


def test_homog_commands_on_an_empty_digit_system_write_strict_json(
        tmp_path, capsys):
    def no_constant(name):
        raise ValueError(f"{name} is not JSON")

    empty = {"type": "cellwise", "allowed": []}
    spec = write_spec(tmp_path, {**HOMOG, "digits": {
        **HOMOG["digits"], "rule": empty}})
    subshift = write_spec(tmp_path, {**GOLDEN, "rule": empty}, "shift.json")
    selfsim = write_spec(tmp_path, {**SELFSIM, "omega": {**GOLDEN,
                                                        "rule": empty}},
                         "selfsim.json")
    reports = {}
    for argv in (["entropy", "--spec", subshift, "--m-max", "3",
                  "--out", str(tmp_path / "out")],
                 ["selfsimilar-probe", "--spec", selfsim,
                  "--window-sizes", "8"],
                 ["homog-entropy", "--spec", spec, "--m-max", "2",
                  "--depths", "2", "3"],
                 ["homog-probe", "--spec", spec, "--eps-grid", "1/8,1/16"]):
        assert main(argv) == 0
        report = json.loads(capsys.readouterr().out,
                            parse_constant=no_constant)
        assert report["status"] == "ok"
        reports[argv[0]] = report["results"]
    assert reports["entropy"] == {
        "empty_system": True,
        "per_site": {"provenance": "exact", "value": 0.0}}
    assert not (tmp_path / "out" / "series.csv").exists()  # no -inf rows
    assert reports["selfsimilar-probe"] == {
        "empty_system": True, "bound": 0.0, "rows": [], "slack": 0.05,
        "slopes": {"8": {"provenance": "exact", "value": 0.0}}}
    assert reports["homog-probe"]["slopes"] == [
        {"count": 0, "depth": 3, "eps": 0.125, "slope": 0.0},
        {"count": 0, "depth": 4, "eps": 0.0625, "slope": 0.0}]
    assert main(["homog-entropy", "--spec", spec, "--m-max", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["results"] == {
        "empty_system": True,
        "entropy": {"provenance": "exact", "value": 0.0},
        "prediction": {"provenance": "exact", "value": 0.0}}


def _strict(text):
    def no_constant(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=no_constant)


@pytest.mark.parametrize("value, token", [(float("nan"), "nan"),
                                          (float("inf"), "inf"),
                                          (float("-inf"), "-inf")])
def test_a_non_finite_result_is_an_internal_error(tmp_path, capsys,
                                                  monkeypatch, value, token):
    # strict JSON cannot hold the value, so the report names it in place
    # of the results rather than writing a bare NaN or Infinity token
    handler, kind = cli.COMMANDS["entropy"]

    def patched(system, args, caps):
        return {**handler(system, args, caps), "per_site": value}

    monkeypatch.setitem(cli.COMMANDS, "entropy", (patched, kind))
    out = tmp_path / "out"
    code = main(["entropy", "--spec", write_spec(tmp_path, GOLDEN),
                 "--m-max", "3", "--out", str(out)])
    text = capsys.readouterr().out
    report = _strict(text)
    assert code == 1 and report["status"] == "failed"
    assert report["results"] == {"internal_error": (
        "ValueError: Out of range float values are not JSON compliant: "
        + token)}
    assert (out / "report.json").read_text() == text
    assert sorted(p.name for p in out.iterdir()) == ["report.json"]


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_a_spec_holding_a_non_finite_constant_is_a_spec_error(tmp_path,
                                                              capsys, token):
    # the report echoes the spec, so it could not be strict JSON either
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(GOLDEN)[:-1] + f', "note": {token}}}')
    assert main(["entropy", "--spec", str(path), "--m-max", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"spec error: {token} is not JSON\n"


def test_carpet_dims_on_an_empty_system_tags_its_zeros_exact(tmp_path,
                                                            capsys):
    # an empty carpet has mean dimensions 0.0 exactly, as the empty systems
    # of `entropy`, `homog-entropy` and `selfsimilar-probe` have
    empty = {"type": "cellwise", "allowed": []}
    spec = write_spec(tmp_path, {**GOLDEN_B, "omega": {**GOLDEN_B["omega"],
                                                       "rule": empty}})
    code, report = run(capsys, ["carpet-dims", "--spec", spec,
                                "--m-max", "1", "--l-max", "2"])
    assert code == 0
    zero = {"provenance": "exact", "value": 0.0}
    assert report["results"] == {"empty_system": True, "mdim_H": zero,
                                 "mdim_M": zero}
