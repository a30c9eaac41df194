"""One pass over a workload, in a fresh interpreter.

Usage: ``python3 perfbench/one_pass.py '<json config>'`` with the keys
``workload``, ``seed``, ``spawned_at`` (the parent's ``time.monotonic()``
just before it started this process), ``setup_only``, ``trace`` and
``spans_path``.  ``src`` must be on ``PYTHONPATH``.

The process starts a `speed.SpeedProbe`, sets up (``import meandim`` and
parsing every spec of the workload), reports its set-up time, then runs each
op through ``meandim.cli.main`` in order, one at a time, and checks its
output.  Times are reported as wall seconds and as seconds at the probe's
reference speed (``*_ref_s``).  Every stdout line it writes is one JSON
object: ``{"setup_s", "setup_ref_s", "numpy"}`` once, one ``{"op", ...}``
per op as it completes, then ``{"pass_s", "pass_ref_s", ...}``.  A parent
that kills this process on a timeout still reads the ops that completed.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import traceback

from speed import SpeedProbe, clock

HERE = os.path.dirname(os.path.abspath(__file__))
SPECS = os.path.join(HERE, "specs")


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def judge(op, code, text: str) -> tuple:
    """(failure kind or None, detail) for one op's exit code and report."""
    if code != 0:
        return "exit", f"exit code {code}"
    try:
        report = json.loads(text)
    except ValueError as exc:
        return "output", f"report is not JSON: {exc}"
    if report.get("status") != "ok":
        return "status", f"status {report.get('status')!r}"
    try:
        problems = op.check(report)
    except (KeyError, TypeError, ValueError, IndexError,
            AttributeError) as exc:
        problems = [f"report lacks an expected field: {exc!r}"]
    if problems:
        return "check", "; ".join(problems)
    return None, ""


def run_op(main, op, seed: int, probe: SpeedProbe) -> dict:
    buf = io.StringIO()
    code, kind, detail = None, None, ""
    start = clock()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(op.command(SPECS, seed))
    except SystemExit as exc:
        code = exc.code
    except Exception:
        kind = "crash"
        detail = traceback.format_exc(limit=-3)
    end = clock()
    if kind is None:
        kind, detail = judge(op, code, buf.getvalue())
    return {"op": op.name, "seconds": end - start,
            "ref_s": probe.reference_seconds(start, end), "failure": kind,
            "detail": detail}


def main() -> int:
    probe = SpeedProbe()
    probe.start()
    cfg = json.loads(sys.argv[1])
    import meandim.cli
    from workloads import WORKLOADS

    workload = WORKLOADS[cfg["workload"]]
    for name in workload.spec_files():
        with open(os.path.join(SPECS, name)) as handle:
            meandim.cli.parse_system(json.load(handle))
    ready = clock()
    emit({"setup_s": ready - cfg["spawned_at"],
          "setup_ref_s": probe.reference_seconds(cfg["spawned_at"], ready),
          "numpy": sys.modules["numpy"].__version__})
    if cfg["setup_only"]:
        probe.stop()
        return 0

    tracer = None
    if cfg["trace"]:
        import layers
        tracer = layers.Tracer()
        tracer.install()
    pass_s = pass_ref_s = 0.0
    for index, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op = index
        record = run_op(meandim.cli.main, op, cfg["seed"], probe)
        pass_s += record["seconds"]
        pass_ref_s += record["ref_s"]
        emit(record)
    probe.stop()
    result = {"pass_s": pass_s, "pass_ref_s": pass_ref_s,
              "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = layers.layer_figures(tracer.spans, tracer.counters)
        result["spans"] = len(tracer.spans)
        tracer.write_spans(cfg["spans_path"])
    emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
