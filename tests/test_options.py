"""The command line: the namespace each accepted form gives, the one-line
errors of the malformed ones, and the `--help` text.

`RECORDED` holds, for each command line, the values that the argparse
parser replaced by `cmdline.parse_args` gave: `DEFAULTS`, with the values
the line sets.  It covers every line of `test_reach.COMMAND_LINES` (on
`<spec>.json`, `{out}` read as `out`), the ten ops of
`perfbench/workloads.py` (on `specs`, seed 1), the README examples and each
accepted form.
"""
import pytest

from meandim import cli, cmdline
from meandim.cli import main

DEFAULTS = {"m_max": 4, "l_max": 4, "depths": None, "eps_grid": None,
            "folner": "balls", "w": None, "seed": 0, "window_sizes": None,
            "k_list": None, "eps": None, "out": None, "caps": ""}

RECORDED = [
    # test_reach.COMMAND_LINES
    ("entropy --spec golden.json --m-max 6 --folner boxes",
     {"command": "entropy", "spec": "golden.json", "m_max": 6,
      "folner": "boxes"}),
    ("entropy --spec golden_patterns.json --m-max 3 --out out",
     {"command": "entropy", "spec": "golden_patterns.json", "m_max": 3,
      "out": "out"}),
    ("entropy --spec hard_square.json --m-max 2",
     {"command": "entropy", "spec": "hard_square.json", "m_max": 2}),
    ("entropy --spec hard_square.json --m-max 9 --folner boxes",
     {"command": "entropy", "spec": "hard_square.json", "m_max": 9,
      "folner": "boxes"}),
    ("entropy --spec golden_b_shift.json --m-max 2 --w 0.5",
     {"command": "entropy", "spec": "golden_b_shift.json", "m_max": 2,
      "w": "0.5"}),
    ("entropy --spec mcmullen_shift.json --m-max 1 --w 1 --folner boxes",
     {"command": "entropy", "spec": "mcmullen_shift.json", "m_max": 1,
      "folner": "boxes", "w": "1"}),
    ("carpet-dims --spec mcmullen.json --m-max 1 --l-max 2",
     {"command": "carpet-dims", "spec": "mcmullen.json", "m_max": 1,
      "l_max": 2}),
    ("carpet-dims --spec golden_b.json --m-max 2 --l-max 2 --folner boxes "
     "--w auto",
     {"command": "carpet-dims", "spec": "golden_b.json", "m_max": 2,
      "l_max": 2, "folner": "boxes", "w": "auto"}),
    ("selfsimilar-bound --spec selfsim.json",
     {"command": "selfsimilar-bound", "spec": "selfsim.json"}),
    ("selfsimilar-probe --spec selfsim.json --window-sizes 512",
     {"command": "selfsimilar-probe", "spec": "selfsim.json",
      "window_sizes": [512]}),
    ("homog-entropy --spec homog.json --m-max 2 --depths 2 3",
     {"command": "homog-entropy", "spec": "homog.json", "m_max": 2,
      "depths": [2, 3]}),
    ("homog-probe --spec homog.json --eps-grid 1/8 --folner boxes",
     {"command": "homog-probe", "spec": "homog.json", "eps_grid": "1/8",
      "folner": "boxes"}),
    ("kg-experiment --spec kset.json --m-max 1 --eps-grid 1/10,1/100",
     {"command": "kg-experiment", "spec": "kset.json", "m_max": 1,
      "eps_grid": "1/10,1/100"}),
    ("kg-experiment --spec kset2.json --m-max 1 --eps-grid 1/10,1/100",
     {"command": "kg-experiment", "spec": "kset2.json", "m_max": 1,
      "eps_grid": "1/10,1/100"}),
    ("kg-experiment --spec unit.json --m-max 1 --eps-grid 1/10,1/100",
     {"command": "kg-experiment", "spec": "unit.json", "m_max": 1,
      "eps_grid": "1/10,1/100"}),
    ("kg-mass-demo --spec kset.json --k-list 2,4 --seed 1",
     {"command": "kg-mass-demo", "spec": "kset.json", "seed": 1,
      "k_list": "2,4"}),
    ("validate --spec golden.json",
     {"command": "validate", "spec": "golden.json"}),
    # perfbench/workloads.py
    ("entropy --spec specs/hard_square.json --m-max 12 --folner boxes",
     {"command": "entropy", "spec": "specs/hard_square.json", "m_max": 12,
      "folner": "boxes"}),
    ("entropy --spec specs/hard_square.json --m-max 3 --folner balls",
     {"command": "entropy", "spec": "specs/hard_square.json", "m_max": 3}),
    ("entropy --spec specs/golden_mean.json --m-max 64 --folner boxes",
     {"command": "entropy", "spec": "specs/golden_mean.json", "m_max": 64,
      "folner": "boxes"}),
    ("carpet-dims --spec specs/golden_b.json --m-max 3 --l-max 2 "
     "--folner boxes --seed 1",
     {"command": "carpet-dims", "spec": "specs/golden_b.json", "m_max": 3,
      "l_max": 2, "folner": "boxes", "seed": 1}),
    ("carpet-dims --spec specs/mcmullen.json --m-max 2 --l-max 6 --seed 1",
     {"command": "carpet-dims", "spec": "specs/mcmullen.json", "m_max": 2,
      "l_max": 6, "seed": 1}),
    ("homog-probe --spec specs/homog_full.json --eps-grid 1/8,1/16,1/32 "
     "--folner boxes",
     {"command": "homog-probe", "spec": "specs/homog_full.json",
      "eps_grid": "1/8,1/16,1/32", "folner": "boxes"}),
    ("selfsimilar-probe --spec specs/selfsim_golden.json --window-sizes 512",
     {"command": "selfsimilar-probe", "spec": "specs/selfsim_golden.json",
      "window_sizes": [512]}),
    ("kg-experiment --spec specs/kspace_kset.json --m-max 1 "
     "--eps-grid 1/10,1/100,1/1000,1/10000,1/100000",
     {"command": "kg-experiment", "spec": "specs/kspace_kset.json",
      "m_max": 1, "eps_grid": "1/10,1/100,1/1000,1/10000,1/100000"}),
    ("kg-experiment --spec specs/kspace_unit.json --m-max 1 "
     "--eps-grid 1/10,1/100,1/1000,1/10000",
     {"command": "kg-experiment", "spec": "specs/kspace_unit.json",
      "m_max": 1, "eps_grid": "1/10,1/100,1/1000,1/10000"}),
    ("kg-mass-demo --spec specs/kspace_kset.json --k-list 2,4,6,8 --seed 1",
     {"command": "kg-mass-demo", "spec": "specs/kspace_kset.json", "seed": 1,
      "k_list": "2,4,6,8"}),
    # README examples
    ("validate --spec carpet.json",
     {"command": "validate", "spec": "carpet.json"}),
    ("entropy --spec subshift.json --m-max 16 --folner boxes --w 0.5",
     {"command": "entropy", "spec": "subshift.json", "m_max": 16,
      "folner": "boxes", "w": "0.5"}),
    ("carpet-dims --spec carpet.json --m-max 2 --l-max 4 --w auto",
     {"command": "carpet-dims", "spec": "carpet.json", "m_max": 2,
      "w": "auto"}),
    ("selfsimilar-bound --spec selfsimilar.json",
     {"command": "selfsimilar-bound", "spec": "selfsimilar.json"}),
    ("selfsimilar-probe --spec selfsimilar.json --window-sizes 512",
     {"command": "selfsimilar-probe", "spec": "selfsimilar.json",
      "window_sizes": [512]}),
    ("homog-entropy --spec homogeneous.json --m-max 2 --depths 2 4 8",
     {"command": "homog-entropy", "spec": "homogeneous.json", "m_max": 2,
      "depths": [2, 4, 8]}),
    ("homog-probe --spec homogeneous.json --eps-grid 1/8 --folner boxes",
     {"command": "homog-probe", "spec": "homogeneous.json", "eps_grid": "1/8",
      "folner": "boxes"}),
    ("kg-experiment --spec kspace.json --eps-grid 1/10,1/100,1/1000",
     {"command": "kg-experiment", "spec": "kspace.json",
      "eps_grid": "1/10,1/100,1/1000"}),
    ("kg-mass-demo --spec kspace.json --k-list 2,4,6 --seed 1",
     {"command": "kg-mass-demo", "spec": "kspace.json", "seed": 1,
      "k_list": "2,4,6"}),
    # --name=value
    ("entropy --spec=s.json --m-max=6 --folner=boxes --w=0.5",
     {"command": "entropy", "spec": "s.json", "m_max": 6, "folner": "boxes",
      "w": "0.5"}),
    ("entropy --spec= --w=",
     {"command": "entropy", "spec": "", "w": ""}),
    ("entropy --spec s.json --eps-grid=1/2,1/4 --caps=",
     {"command": "entropy", "spec": "s.json", "eps_grid": "1/2,1/4"}),
    ("homog-entropy --spec s.json --depths=5",
     {"command": "homog-entropy", "spec": "s.json", "depths": [5]}),
    # the command wherever it appears
    ("--spec s.json --m-max 2 entropy",
     {"command": "entropy", "spec": "s.json", "m_max": 2}),
    ("--spec s.json homog-entropy --m-max 2",
     {"command": "homog-entropy", "spec": "s.json", "m_max": 2}),
    # a repeated option: the last one wins
    ("entropy --spec a.json --m-max 2 --spec b.json --m-max 3",
     {"command": "entropy", "spec": "b.json", "m_max": 3}),
    ("homog-entropy --spec s.json --depths 2 --depths 3 4",
     {"command": "homog-entropy", "spec": "s.json", "depths": [3, 4]}),
    # a list takes every token up to the next option
    ("homog-entropy --spec s.json --depths",
     {"command": "homog-entropy", "spec": "s.json", "depths": []}),
    ("selfsimilar-probe --spec s.json --window-sizes",
     {"command": "selfsimilar-probe", "spec": "s.json", "window_sizes": []}),
    ("homog-entropy --depths --spec s.json",
     {"command": "homog-entropy", "spec": "s.json", "depths": []}),
    ("homog-entropy --depths 2 3 --spec s.json --m-max 1",
     {"command": "homog-entropy", "spec": "s.json", "m_max": 1,
      "depths": [2, 3]}),
    ("selfsimilar-probe --spec s.json --window-sizes 64 128 --seed 2",
     {"command": "selfsimilar-probe", "spec": "s.json", "seed": 2,
      "window_sizes": [64, 128]}),
    # a negative number is a value
    ("kg-mass-demo --spec s.json --seed -1",
     {"command": "kg-mass-demo", "spec": "s.json", "seed": -1}),
    ("kg-mass-demo --spec s.json --seed=-1",
     {"command": "kg-mass-demo", "spec": "s.json", "seed": -1}),
    ("homog-entropy --spec s.json --depths 2 -1",
     {"command": "homog-entropy", "spec": "s.json", "depths": [2, -1]}),
    # the string options
    ("kg-mass-demo --spec s.json --eps 1/20 --k-list 2,4 "
     "--caps cells=100,patterns=50",
     {"command": "kg-mass-demo", "spec": "s.json", "k_list": "2,4",
      "eps": "1/20", "caps": "cells=100,patterns=50"}),
    ("carpet-dims --spec s.json --out dir --l-max 3 --w auto",
     {"command": "carpet-dims", "spec": "s.json", "l_max": 3, "w": "auto",
      "out": "dir"}),
]


def _typed(value):
    """value with the type of it and of each item of a list."""
    if isinstance(value, list):
        return [_typed(item) for item in value]
    return type(value), value


@pytest.mark.parametrize("line, values", RECORDED,
                         ids=[line for line, _ in RECORDED])
def test_parse_args_gives_the_recorded_namespace(line, values):
    got = vars(cmdline.parse_args(line.split(),
                                  ["validate", *cli.COMMANDS]))
    want = {**DEFAULTS, **values}
    assert got == want
    assert {k: _typed(v) for k, v in got.items()} == {
        k: _typed(v) for k, v in want.items()}


SPEC = ["--spec", "spec.json"]


# argv -> the text the one `spec error:` line holds
@pytest.mark.parametrize("argv, named", [
    (SPEC, "no command"),
    (["entropie"] + SPEC, "unknown command 'entropie'"),
    (["entropy", "validate"] + SPEC, "'entropy' and 'validate'"),
    (["entropy", "--spe", "spec.json"], "unknown option '--spe'"),
    (["entropy"] + SPEC + ["--m-max"], "--m-max needs a value"),
    (["entropy", "--m-max", "--spec", "spec.json"], "--m-max needs a value"),
    (["entropy"] + SPEC + ["--m-max", "x"], "--m-max: cannot read 'x'"),
    (["entropy"] + SPEC + ["--folner", "cubes"],
     "--folner: 'cubes' is not one of balls, boxes"),
    (["entropy"], "--spec is required"),
    (["kg-mass-demo"] + SPEC + ["--e", "1"], "unknown option '--e'"),
    (["homog-entropy"] + SPEC + ["--depths", "2", "x"],
     "--depths: cannot read 'x'"),
])
def test_option_errors_are_one_spec_error_line(capsys, argv, named):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("spec error: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert named in captured.err


@pytest.mark.parametrize("argv", [["-h"], ["--help"],
                                  ["entropy", "--m-max", "x", "--help"]])
def test_help_lists_every_command_and_option(capsys, argv):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    for name in ["validate", *cli.COMMANDS, *cmdline.OPTIONS]:
        assert name in captured.out
