"""meandim benchmark: closed-loop passes over one workload of pinned CLI ops.

Usage (from the repository root):

    python3 perfbench/run.py --workload counting --seed 1 --seconds 30 --trace 0

Each pass runs in a fresh child interpreter (``one_pass.py``) under a
wall-clock limit; the parent starts the next pass only after the previous
one ended, so one op runs at a time.  The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` untraced and traced
passes alternate and the metrics are the per-layer ones.  A detail record
(environment, every sample, every failure) goes to
``.perfbench_out/<workload>-seed<n>-trace<t>.json``; traced spans go to
``.perfbench_out/<workload>.spans.jsonl``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
from workloads import WORKLOADS  # noqa: E402

SETUP_ONLY_RUNS = 3     # extra set-up samples beyond one per pass
SETUP_LIMIT_S = 30.0    # a set-up-only child running longer is killed
PASS_LIMIT_S = 120.0    # a pass running longer than this is killed
RUN_BUDGET_S = 165.0    # no pass may end later than this after start


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MEANDIM_THREADS", None)   # pmap must not start threads
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def spawn(workload: str, seed: int, setup_only: bool, trace: bool,
          limit: float) -> dict:
    """Run one child; return its setup time, op records and pass result."""
    cfg = {"workload": workload, "seed": seed, "setup_only": setup_only,
           "trace": trace,
           "spans_path": os.path.join(OUT, f"{workload}.spans.jsonl")}
    cfg["spawned_at"] = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "one_pass.py"), json.dumps(cfg)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=child_env(), cwd=ROOT)
    timed_out = False
    try:
        out, err = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        timed_out = True
    lines = [json.loads(line) for line in out.splitlines() if line.strip()]
    rec = {"setup": None, "numpy": None, "ops": [], "result": None,
           "timed_out": timed_out, "returncode": proc.returncode,
           "stderr": err[-2000:]}
    for line in lines:
        if "setup_s" in line:
            rec["setup"] = (line["setup_s"], line["setup_ref_s"])
            rec["numpy"] = line["numpy"]
        elif "op" in line:
            rec["ops"].append(line)
        elif "pass_s" in line:
            rec["result"] = line
    return rec


def pass_failures(workload, rec) -> list[dict]:
    """Failed ops of one pass, including ops lost to a timeout or crash."""
    failed = [{"op": r["op"], "kind": r["failure"], "detail": r["detail"]}
              for r in rec["ops"] if r["failure"]]
    done = {r["op"] for r in rec["ops"]}
    lost = "timeout" if rec["timed_out"] else "crash"
    for op in workload.ops:
        if op.name not in done:
            failed.append({"op": op.name, "kind": lost,
                           "detail": rec["stderr"][-500:]})
    return failed


def tail_percentile(samples, beyond: int = 10):
    """Highest percentile with at least `beyond` samples above it, or None."""
    ordered = sorted(samples)
    k = len(ordered) - beyond - 1
    if k < 0:
        return None
    return {"percentile": round(100 * (k + 1) / len(ordered), 2),
            "value": ordered[k]}


def environment(seed: int) -> dict:
    sha = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    lines = 0
    pkg = os.path.join(SRC, "meandim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as handle:
                lines += sum(1 for _ in handle)
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg_before": os.getloadavg(), "seed": seed,
            "src_meandim_lines": lines}


def load_per_layer() -> list[dict]:
    """The per-layer metric list of BENCHMARK.json, or [] when it is absent."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            return json.load(handle)["per_layer"]
    except FileNotFoundError:
        return []


def layer_metrics(per_layer, traced: list[dict], untraced: list[dict]) -> tuple:
    """Per-layer metrics from traced passes; (metrics, problems)."""
    problems = []
    n = len(traced)
    figures = [r["layers"] for r in traced]
    first = figures[0]
    counters = [{k: v for k, v in f.items() if not k.endswith("self_s")}
                for f in figures]
    if any(c != counters[0] for c in counters[1:]):
        problems.append("counters differ between traced passes")
    for r in traced:
        layer_total = sum(v for k, v in r["layers"].items()
                          if k.count(".") == 1 and k.endswith(".self_s"))
        if layer_total > r["pass_s"]:
            problems.append("layer self times exceed the traced pass time")
    traced_s = sum(r["pass_s"] for r in traced) / n
    overhead_s = (sum(r["pass_ref_s"] for r in traced) / n
                  - sum(r["pass_ref_s"] for r in untraced) / len(untraced))
    values = {}
    for spec in per_layer:
        name = spec["name"]
        if name.endswith("self_s"):
            value = sum(f.get(name, 0.0) for f in figures) / n
        elif name == "subshifts.enumerate_patterns.useful_ratio":
            calls = first.get("subshifts.enumerate_patterns.calls", 0)
            value = (first.get("subshifts.enumerate_patterns.returned", 0)
                     / calls if calls else 1.0)
        elif name == "trace.run_s":
            value = traced_s
        elif name == "trace.overhead_s":
            value = overhead_s
        elif name == "trace.spans":
            value = traced[0]["spans"]
        else:
            value = first.get(name, 0)
        values[name] = {"value": value, "unit": spec["unit"]}
    return values, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "meandim", "__init__.py")):
        print("perfbench: src/meandim not found; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    per_layer = load_per_layer()
    if not per_layer:
        print("perfbench: BENCHMARK.json not found", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    workload = WORKLOADS[args.workload]
    started = time.monotonic()
    env = environment(args.seed)

    setups = []
    for _ in range(SETUP_ONLY_RUNS):
        rec = spawn(workload.name, args.seed, True, False, SETUP_LIMIT_S)
        if rec["setup"] is None:
            print(f"perfbench: set-up failed:\n{rec['stderr']}",
                  file=sys.stderr)
            return 1
        setups.append(rec["setup"])
        env["numpy"] = rec["numpy"]

    passes = {False: [], True: []}
    failures, attempted = [], 0
    measure_start = time.monotonic()
    while True:
        traced = bool(args.trace) and len(passes[True]) < len(passes[False])
        limit = min(PASS_LIMIT_S, RUN_BUDGET_S - (time.monotonic() - started))
        pass_start = time.monotonic()
        rec = spawn(workload.name, args.seed, False, traced, limit)
        wall = time.monotonic() - pass_start
        attempted += len(workload.ops)
        failures += pass_failures(workload, rec)
        if rec["setup"] is not None:
            setups.append(rec["setup"])
        if rec["result"] is None:
            break                      # a hung or crashed pass ends the run
        passes[traced].append(rec["result"])
        elapsed = time.monotonic() - measure_start
        enough = passes[False] and (passes[True] or not args.trace)
        # stop where the measured time lands nearest to --seconds
        if enough and elapsed + wall / 2 > args.seconds:
            break
    env["loadavg_after"] = os.getloadavg()

    untraced = passes[False]
    if not untraced or (args.trace and not passes[True]):
        print(f"perfbench: no pass completed: {failures[:3]}", file=sys.stderr)
        return 1
    run_samples = [r["pass_s"] for r in untraced]
    ref_samples = [r["pass_ref_s"] for r in untraced]
    problems = []
    if args.trace:
        metrics, problems = layer_metrics(per_layer, passes[True],
                                          untraced)
    else:
        metrics = {
            "run_ref_s": {"value": statistics.median(ref_samples),
                          "unit": "s"},
            "setup_s": {"value": statistics.median(s[1] for s in setups),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(
                r["peak_rss_kb"] / 1024 for r in untraced), "unit": "MB"},
        }
    detail = {"workload": workload.name, "trace": args.trace,
              "seconds": args.seconds, "env": env,
              "run_s_samples": run_samples,
              "run_ref_s_samples": ref_samples,
              "run_ref_s_tail": tail_percentile(ref_samples),
              "traced_run_s_samples": [r["pass_s"] for r in passes[True]],
              "setup_s_samples": [s[0] for s in setups],
              "setup_ref_s_samples": [s[1] for s in setups],
              "peak_rss_kb_samples": [r["peak_rss_kb"] for r in untraced],
              "attempted": attempted, "failures": failures,
              "op_fail_ratio": len(failures) / attempted,
              "problems": problems, "metrics": metrics}
    with open(os.path.join(
            OUT, f"{workload.name}-seed{args.seed}-trace{args.trace}.json"),
            "w") as handle:
        json.dump(detail, handle, indent=1)
    for problem in problems + [f"{f['op']}: {f['kind']}: {f['detail']}"
                               for f in failures]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"env": env, "run_s": statistics.median(run_samples),
                      "run_ref_s_samples": ref_samples,
                      "run_ref_s_tail": tail_percentile(ref_samples)}))
    print(json.dumps({"correct": not failures and not problems,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
