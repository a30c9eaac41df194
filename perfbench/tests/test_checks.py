import contextlib
import copy
import io
import itertools
import json
import math

import pytest

import meandim.cli
import workloads
from one_pass import SPECS, judge
from run import pass_failures, spawn, tail_percentile
from workloads import WORKLOADS


def _op(workload, name):
    return next(o for o in WORKLOADS[workload].ops if o.name == name)


def _run(op, seed=3):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = meandim.cli.main(op.command(SPECS, seed))
    return code, buf.getvalue()


def hard_square_count(cells) -> int:
    """Independent sets on a finite set of Z^2 cells, one row at a time."""
    rows = {}
    for x, y in cells:
        rows.setdefault(y, []).append(x)
    prev, prev_y = {frozenset(): 1}, None
    for y in sorted(rows):
        xs = sorted(rows[y])
        cur = {}
        for bits in itertools.product((0, 1), repeat=len(xs)):
            occ = frozenset(x for x, b in zip(xs, bits) if b)
            if any(x + 1 in occ for x in occ):
                continue
            total = sum(c for p, c in prev.items()
                        if not (prev_y == y - 1 and p & occ))
            if total:
                cur[occ] = total
        prev, prev_y = cur, y
    return sum(prev.values())


def test_pinned_hard_square_references():
    for n, want in enumerate(workloads.A006506[:6], start=1):
        assert hard_square_count([(x, y) for x in range(n)
                                  for y in range(n)]) == want
    for r, want in enumerate(workloads.HARD_SQUARE_BALLS):
        ball = [(x, y) for x in range(-r, r + 1) for y in range(-r, r + 1)
                if abs(x) + abs(y) <= r]
        assert hard_square_count(ball) == want


def test_fibonacci():
    assert [workloads.fibonacci(n) for n in range(1, 9)] == [1, 1, 2, 3, 5, 8,
                                                            13, 21]


@pytest.mark.parametrize("workload,name,tamper", [
    ("counting", "golden-mean-boxes",
     lambda r: r["results"]["series"][10].__setitem__(2, math.log(145))),
    ("counting", "golden-mean-boxes",
     lambda r: r["results"]["certified_upper"].__setitem__("value", 0.48)),
    ("clouds", "selfsimilar-probe",
     lambda r: r["results"]["slopes"]["512"].__setitem__("value", 0.9)),
    ("clouds", "mcmullen-carpet",
     lambda r: r["results"]["sandwich"][3].__setitem__("ok", False)),
    ("clouds", "mcmullen-carpet",
     lambda r: r["results"]["mdim_M"].__setitem__("value", 1.2924813)),
    ("clouds", "homogeneous-probe",
     lambda r: r["results"]["implication"].__setitem__("value", False)),
    ("sweeps", "mass-demo",
     lambda r: r["results"].__setitem__("monotone", False)),
    ("sweeps", "unit-sweep",
     lambda r: r["results"]["rows"][0].__setitem__("bracket_ok", False)),
])
def test_real_output_passes_and_tampered_output_fails(workload, name, tamper):
    op = _op(workload, name)
    code, text = _run(op)
    assert judge(op, code, text) == (None, "")
    report = json.loads(text)
    tamper(report)
    kind, detail = judge(op, code, json.dumps(report))
    assert kind == "check" and detail


def _series_report(rows, certified=None):
    results = {"series": rows}
    if certified is not None:
        results["certified_upper"] = {"value": certified}
    return {"status": "ok", "results": results}


def test_hard_square_checks_against_references():
    rows = [[n, n * n, math.log(c), 0.0]
            for n, c in enumerate(workloads.A006506, start=1)]
    good = _series_report(rows, 0.45)
    assert workloads.check_hard_square_boxes(good) == []
    bad = copy.deepcopy(good)
    bad["results"]["series"][11][2] *= 1 + 1e-6
    assert workloads.check_hard_square_boxes(bad)
    low = _series_report(rows, 0.40)
    assert workloads.check_hard_square_boxes(low)
    balls = _series_report([[r, 0, math.log(c), 0.0] for r, c in
                            enumerate(workloads.HARD_SQUARE_BALLS)])
    assert workloads.check_hard_square_balls(balls) == []
    balls["results"]["series"].pop()
    assert workloads.check_hard_square_balls(balls)


def test_kset_check_pins_the_integers():
    rows = [{"eps": e, "lower": str(lo), "upper": str(up), "bracket_ok": True}
            for e, lo, up in workloads.KSET_BOUNDS]
    report = {"status": "ok", "results": {"rows": rows}}
    assert workloads.check_kset(report) == []
    rows[2]["upper"] = "195113"
    assert workloads.check_kset(report)


def test_judge_reports_exit_status_and_unparsable_output():
    op = _op("sweeps", "mass-demo")
    assert judge(op, 1, "{}")[0] == "exit"
    assert judge(op, 0, '{"status": "failed"}')[0] == "status"
    assert judge(op, 0, "not json")[0] == "output"
    assert judge(op, 0, '{"status": "ok", "results": {}}')[0] == "check"


@pytest.mark.parametrize("timed_out,kind", [(True, "timeout"),
                                             (False, "crash")])
def test_lost_ops_count_as_failed(timed_out, kind):
    wl = WORKLOADS["counting"]
    rec = {"ops": [{"op": "hard-square-boxes", "failure": None, "detail": ""}],
           "timed_out": timed_out, "stderr": ""}
    failed = pass_failures(wl, rec)
    assert [f["kind"] for f in failed] == [kind, kind]


def test_a_pass_over_its_limit_is_killed():
    rec = spawn("counting", 1, setup_only=False, trace=False, limit=0.5)
    assert rec["timed_out"] and rec["result"] is None
    assert len(pass_failures(WORKLOADS["counting"], rec)) == 3


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(list(range(10))) is None
    assert tail_percentile(list(range(11))) == {"percentile": 9.09, "value": 0}
    assert tail_percentile(list(range(100)))["value"] == 89
