"""Every function of the library is reached from the command line or a demo.

Under `sys.setprofile` a fixed list of small command lines, covering every
subcommand, the five demos and the README's quick start run in process.
Every function defined in `src/meandim` must be entered, apart from the ones
in `UNREACHED` with the reason each has.  A function that only tests call
belongs in `tests/oracles.py`.
"""
import ast
import contextlib
import importlib
import io
import json
import os
import runpy
import sys
from pathlib import Path

import meandim
from meandim import cli, kspace

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(meandim.__file__).resolve().parent

# every module is loaded before the profile starts, whatever ran before
# this file, so each class is made outside it
for _module in sorted(PACKAGE.glob("*.py")):
    if _module.stem != "__init__":
        importlib.import_module(f"meandim.{_module.stem}")

MCMULLEN = {"rank": 1, "alphabet": {"a": 4, "b": 2},
            "rule": {"type": "cellwise", "allowed": [[0, 0], [1, 0], [0, 1]]},
            "name": "mcmullen"}
GOLDEN_B = {"rank": 1, "alphabet": {"a": 2, "b": 2},
            "rule": {"type": "nearest_neighbor",
                     "axis_forbidden": {"0": [[1, 1], [1, 3], [3, 1],
                                              [3, 3]]}},
            "name": "golden-mean-on-B"}
GOLDEN = {"system": "subshift", "rank": 1, "alphabet": {"k": 2},
          "rule": {"type": "nearest_neighbor",
                   "axis_forbidden": {"0": [[1, 1]]}}}
HARD_SQUARE = {"system": "subshift", "rank": 2, "alphabet": {"k": 2},
               "rule": {"type": "nearest_neighbor",
                        "axis_forbidden": {"0": [[1, 1]], "1": [[1, 1]]}}}
SPECS = {
    "golden": GOLDEN,
    "golden_patterns": dict(GOLDEN, rule={
        "type": "forbidden_patterns",
        "patterns": [{"offsets": [[0], [1]], "symbols": [1, 1]}]}),
    "hard_square": HARD_SQUARE,
    "mcmullen_shift": dict(MCMULLEN, system="subshift"),
    "golden_b_shift": dict(GOLDEN_B, system="subshift"),
    "mcmullen": {"system": "carpet", "a": 4, "b": 2, "omega": MCMULLEN},
    "golden_b": {"system": "carpet", "a": 2, "b": 2, "omega": GOLDEN_B,
                 "weights": {"rho": "1/4"}},
    "selfsim": {"system": "selfsimilar", "c": "1/2", "values": [0, 1],
                "omega": GOLDEN},
    "homog": {"system": "homogeneous", "base": 2,
              "digits": {"rank": 2, "alphabet": {"k": 2},
                         "rule": {"type": "full"}}},
    "kset": {"system": "kspace", "rank": 1, "kind": "kset"},
    "kset2": {"system": "kspace", "rank": 2, "kind": "kset"},
    "unit": {"system": "kspace", "rank": 1, "kind": "unit"},
}

# (spec, argv) per command line; each one exits 0
COMMAND_LINES = [
    ("golden", ["entropy", "--m-max", "6", "--folner", "boxes"]),
    ("golden_patterns", ["entropy", "--m-max", "3", "--out", "{out}"]),
    ("hard_square", ["entropy", "--m-max", "2"]),
    # boxes 7 to 9 pass 32 live frontier states, where the array step takes
    # over
    ("hard_square", ["entropy", "--m-max", "9", "--folner", "boxes"]),
    ("golden_b_shift", ["entropy", "--m-max", "2", "--w", "0.5"]),
    ("mcmullen_shift", ["entropy", "--m-max", "1", "--w", "1",
                        "--folner", "boxes"]),
    ("mcmullen", ["carpet-dims", "--m-max", "1", "--l-max", "2"]),
    ("golden_b", ["carpet-dims", "--m-max", "2", "--l-max", "2",
                  "--folner", "boxes", "--w", "auto"]),
    ("selfsim", ["selfsimilar-bound"]),
    ("selfsim", ["selfsimilar-probe", "--window-sizes", "512"]),
    ("homog", ["homog-entropy", "--m-max", "2", "--depths", "2", "3"]),
    ("homog", ["homog-probe", "--eps-grid", "1/8", "--folner", "boxes"]),
    ("kset", ["kg-experiment", "--m-max", "1", "--eps-grid", "1/10,1/100"]),
    # a rank-2 tail support is a ball, so its sum with a box is sorted
    ("kset2", ["kg-experiment", "--m-max", "1", "--eps-grid", "1/10,1/100"]),
    ("unit", ["kg-experiment", "--m-max", "1", "--eps-grid", "1/10,1/100"]),
    ("kset", ["kg-mass-demo", "--k-list", "2,4", "--seed", "1"]),
    ("golden", ["validate"]),
]

PERFBENCH_PIN = "perfbench/layers.py traces it by name"
MISUSE = "raises only on misuse"

# function -> why no command line, demo or the quick start enters it
UNREACHED = {
    "metrics.ProductMetric.__post_init__": PERFBENCH_PIN,
    "metrics.ProductMetric.interval": PERFBENCH_PIN,
    "metrics.coordinate_distance": "ProductMetric's coordinate distance",
    "metrics.kset_value": "ProductMetric's coordinate distance",
    "subshifts.FiberTable.total": PERFBENCH_PIN,
    "groups.CapExceeded.__init__": "raised only when a cap is hit",
    "cmdline.usage": "prints the --help text, which no report holds",
    "groups.GroupWindow.name": "names a window in a cap message",
    "groups.GroupWindow.__post_init__":
        "checks a window that a caller builds; the builders skip it",
    "carpet.PsiCell.key": "names the cell of a failed sandwich check",
    "subshifts.hard_square": "public spec builder; specs come from JSON",
    "subshifts.pair_shift_with_b_rule":
        "public spec builder; specs come from JSON",
    "groups.GroupWindow.__iter__": "container protocol of a public class",
    "groups.GroupWindow.__contains__": "container protocol of a public class",
    "metrics.PointCloud.__len__": "container protocol of a public class",
    "subshifts.PatternSet.count": "public size of a pattern set",
    "_record.Record.__init_subclass__":
        "makes a class, at import, before the profile starts",
    "_record.Record.__repr__": "shows a record; no report holds one",
    "_record.Record.__setattr__": MISUSE,
    "_record.Record.__delattr__": MISUSE,
    "_record._call_error": MISUSE,
    "_record._names": "lists the missing arguments of a misused call",
    "cli._no_constant": "rejects a spec that holds NaN or an infinity",
}


def _defined(path: Path) -> dict:
    """first line -> qualified name of every function defined in a module;
    a decorated function starts at its first decorator, as its code does."""
    found = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                lines = [child.lineno] + [d.lineno
                                          for d in child.decorator_list]
                found[min(lines)] = name
                visit(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), "")
    return found


def _run_everything(tmp_path):
    for name, doc in SPECS.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    for spec, argv in COMMAND_LINES:
        argv = ([argv[0], "--spec", str(tmp_path / f"{spec}.json")]
                + [a.replace("{out}", str(tmp_path / "out")) for a in argv[1:]])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        assert code == 0, (argv, out.getvalue())
    readme = (ROOT / "README.md").read_text()
    quick_start = readme.split("## Library quick start", 1)[1].split(
        "```python\n", 1)[1].split("```", 1)[0]
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(quick_start, "README.md", "exec"), {})
        for demo in sorted((ROOT / "demos").glob("*.py")):
            runpy.run_path(str(demo), run_name="__main__")


def test_every_library_function_is_reached(tmp_path):
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    # as in a fresh process, whose first mass demo builds its sampling table
    kspace._sampling_table.cache_clear()
    sys.setprofile(profile)
    try:
        _run_everything(tmp_path)
    finally:
        sys.setprofile(None)
    reached = {(Path(os.path.realpath(f)), line) for f, line in entered}
    unreached = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for line, name in _defined(path).items():
            if (path, line) not in reached:
                unreached.add(f"{path.stem}.{name}")
    assert sorted(unreached - set(UNREACHED)) == []
    assert sorted(set(UNREACHED) - unreached) == []
