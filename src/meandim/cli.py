"""Experiment runner: parse a JSON system spec, dispatch the requested
computation, enforce caps and seeds, emit a machine-readable report.

A spec is checked on one path: `parse_system` builds the system, and each
input is checked where it is read (the strict readers `json_int`,
`json_object` and `_fraction`, the spec constructors and the option readers
below), with a message that names the field.  `validate` runs
`parse_system` and nothing else, so it reports the first spec error that
any command would report for the spec.

Exit status: 0 on success; 1 with a full report whose results hold
`assertion_failed`, `cap_abort` or `internal_error`; 2 with a `spec error:`
line on stderr and nothing on stdout when the spec or an option value is
unreadable or out of range, a negative `--seed` included.  A `cap_abort`
holds the message of a `CapExceeded` or a `NetTooCoarse`.  Outputs are
written atomically; identical config and seed give byte-identical reports
apart from the timing block.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import platform
import sys
import tempfile
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .groups import CapExceeded, Caps, FolnerDescriptor, GroupSpec, box
from .metrics import WeightScheme
from .subshifts import json_int, json_object, projected_spec, spec_from_json
from .entropy import entropy_series, entropy_estimate, weighted_entropy_series
from .carpet import CarpetSpec, carpet_dimension_report
from .selfsimilar import (NetTooCoarse, SelfSimilarSpec,
                          selfsimilar_cover_probe, selfsimilar_upper_bound)
from .homogeneous import (HomogeneousSpec, homogeneous_covering_probe,
                          homogeneous_gxn_entropy, homogeneous_slope_series)
from .kspace import (KSpaceSpec, kg_covering_experiment,
                     kg_mass_distribution_demo, trend_slopes)


class SpecError(ValueError):
    pass


# the failures reported as `cap_abort`: a cap or a too coarse net stopped
# the computation; any other exception is an `internal_error`
CAP_ABORTS = (CapExceeded, NetTooCoarse)


def _fraction(value, field: str) -> Fraction:
    """A JSON integer or a rational string such as "1/4", read exactly;
    anything else, bools and floats included, is a SpecError naming the
    field."""
    if type(value) is not int and not isinstance(value, str):
        raise SpecError(f"{field} must be a JSON integer or a rational "
                        f"string, got {value!r}")
    return _parse_value(Fraction, value, field)


def _weights(doc, rank: int) -> WeightScheme | None:
    """The spec's `weights` object; None without one, or without `rho` in
    it, so that the system's own default decay ratio applies."""
    doc = {} if doc is None else json_object(doc, "weights")
    if "rho" not in doc:
        return None
    return WeightScheme(rank, _fraction(doc["rho"], "weights.rho"))


def _parse_value(convert, text: str, name: str):
    """convert(text), with a value it cannot read reported as a SpecError."""
    try:
        return convert(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecError(f"{name}: cannot read {text!r} ({exc})") from None


def parse_system(doc: dict):
    """Build the concrete system object named by the spec document; any
    input it cannot read or that breaks an invariant is a SpecError."""
    if not isinstance(doc, dict):
        raise SpecError("spec document must be a JSON object")
    system = doc.get("system", "subshift")
    try:
        if system == "subshift":
            return spec_from_json(doc)
        if system == "carpet":
            omega = spec_from_json(json_object(doc["omega"], "omega"))
            weights = _weights(doc.get("weights"), omega.rank)
            return CarpetSpec(a=json_int(doc["a"], "a"),
                              b=json_int(doc["b"], "b"), omega=omega,
                              weights=weights)
        if system == "selfsimilar":
            omega = spec_from_json(json_object(doc["omega"], "omega"))
            weights = _weights(doc.get("weights"), 1)
            if not isinstance(doc["values"], list):
                raise SpecError("values must be a JSON list")
            return SelfSimilarSpec(omega=omega,
                                   values=tuple(_fraction(v, "values")
                                                for v in doc["values"]),
                                   c=_fraction(doc["c"], "c"), weights=weights)
        if system == "homogeneous":
            digits = spec_from_json(json_object(doc["digits"], "digits"))
            weights = _weights(doc.get("weights"), digits.rank - 1)
            return HomogeneousSpec(base=json_int(doc["base"], "base"),
                                   digit_spec=digits, weights=weights)
        if system == "kspace":
            rank = json_int(doc.get("rank", 1), "rank")
            weights = _weights(doc.get("weights"), rank)
            return KSpaceSpec(rank=rank, kind=doc.get("kind", "kset"),
                              weights=weights)
    except KeyError as exc:
        raise SpecError(f"missing spec field {exc}") from exc
    except (AttributeError, TypeError, ValueError, ArithmeticError) as exc:
        raise SpecError(str(exc)) from exc
    raise SpecError(f"unknown system type {system!r}")


def validate(doc: dict) -> list[str]:
    """[] when `parse_system` accepts the spec, else its error message."""
    try:
        parse_system(doc)
    except SpecError as exc:
        return [str(exc)]
    return []


# ---------------------------------------------------------------------------
# command implementations

def _parse_w(text):
    """The weighted-entropy exponent, or None when absent or 'auto'."""
    if text in (None, "auto"):
        return None
    w = _parse_value(float, text, "--w")
    if not 0 <= w <= 1:
        raise SpecError(f"--w: {text!r} is not in [0, 1]")
    return w


def _folner_indices(args, first: int) -> tuple:
    """Folner indices first..--m-max; an empty range is a SpecError."""
    if args.m_max < first:
        raise SpecError(f"--m-max must be at least {first} for this family")
    return tuple(range(first, args.m_max + 1))


def _at_least_one(option: str, values) -> list:
    """The values given for `option`; any value below 1 is a SpecError."""
    if any(v < 1 for v in values):
        raise SpecError(f"{option} values must be at least 1")
    return values


def _num(value, provenance: str) -> dict:
    return {"value": value, "provenance": provenance}


def parse_caps(text: str) -> Caps:
    """The `--caps` entries name=N, N >= 1, over the default caps."""
    caps = dataclasses.asdict(Caps())
    if text:
        for part in text.split(","):
            key, _, val = part.partition("=")
            if key.strip() not in caps or not val.isdigit() or int(val) <= 0:
                raise SpecError(f"bad caps entry {part!r}")
            caps[key.strip()] = int(val)
    return Caps(**caps)


def _cmd_entropy(system, args, caps: Caps) -> dict:
    folner = FolnerDescriptor(args.folner, _folner_indices(
        args, 1 if args.folner == "boxes" else 0))
    w = _parse_w(args.w)
    if w is not None:
        if not system.alphabet.is_paired:
            raise SpecError("--w: weighted entropy needs a paired alphabet")
        series = weighted_entropy_series(system, folner, w, caps)
        out = {"per_site": _num(series.value, "estimate"), "w": w}
    else:
        series = entropy_series(system, folner, caps)
        est = entropy_estimate(series)
        out = {"per_site": _num(est.value, "estimate")}
        if est.certified_upper is not None:
            out["certified_upper"] = _num(est.certified_upper, est.provenance)
    out["series"] = series.table()
    out["csv"] = series.to_csv("log_count" if w is None else "log_z")
    return out


def _cmd_carpet_dims(system: CarpetSpec, args, caps: Caps) -> dict:
    if projected_spec(system.omega) is None:
        raise SpecError("carpet-dims needs a rule whose projection to the "
                        "base-b digits is a derivable subshift")
    w = _parse_w(args.w)
    _folner_indices(args, 1 if args.folner == "boxes" else 0)
    _at_least_one("--l-max", [args.l_max])
    report = carpet_dimension_report(system, m_max=args.m_max,
                                     l_max=args.l_max,
                                     folner_family=args.folner,
                                     w_override=w, seed=args.seed,
                                     caps=caps)
    report["mdim_M"] = _num(report["mdim_M"], "estimate")
    report["mdim_H"] = _num(report["mdim_H"], "estimate")
    return report


def _cmd_selfsimilar_bound(system: SelfSimilarSpec, args, caps: Caps) -> dict:
    out = selfsimilar_upper_bound(system, caps)
    return {"bound": _num(out["bound"], out["entropy_provenance"]),
            "entropy": _num(out["entropy"], out["entropy_provenance"])}


def _parse_eps_grid(text: str):
    grid = [_parse_value(Fraction, part, "--eps-grid")
            for part in text.split(",")]
    if any(not 0 < e < 1 for e in grid):
        raise SpecError("eps grid values must lie in (0, 1)")
    if any(a <= b for a, b in zip(grid, grid[1:])):
        raise SpecError("eps grid must be strictly decreasing")
    return grid


def _cmd_selfsimilar_probe(system: SelfSimilarSpec, args, caps: Caps) -> dict:
    grid = (_parse_eps_grid(args.eps_grid) if args.eps_grid
            else [system.c ** j for j in range(2, 9)])
    if len(grid) < 2:
        raise SpecError("selfsimilar-probe needs at least two eps values to "
                        "fit a slope")
    windows = [box(n, GroupSpec(1), caps.cells) for n in
               _at_least_one("--window-sizes", args.window_sizes or [512])]
    report = selfsimilar_cover_probe(system, grid, windows, caps)
    report["slopes"] = {str(k): _num(v, "certified-bound")
                        for k, v in report["slopes"].items()}
    for row in report["rows"]:
        row["net_count"] = str(row["net_count"])
    return report


def _cmd_homog_entropy(system: HomogeneousSpec, args, caps: Caps) -> dict:
    folner = FolnerDescriptor(args.folner, _folner_indices(args, 1))
    depths = _at_least_one("--depths", args.depths or [4, 8, 12])
    out = homogeneous_gxn_entropy(system, folner, depths, caps)
    return {"series": out["series"].table(),
            "entropy": _num(out["entropy"], "estimate"),
            "prediction": _num(out["prediction"], "estimate")}


def _cmd_homog_probe(system: HomogeneousSpec, args, caps: Caps) -> dict:
    grid = (_parse_eps_grid(args.eps_grid) if args.eps_grid
            else [Fraction(1, system.base ** 3)])
    folner = FolnerDescriptor(args.folner, (1,))
    rows = homogeneous_covering_probe(system, folner, grid, caps=caps)
    slopes = homogeneous_slope_series(system, grid, caps)
    return {"rows": [row.__dict__ for row in rows],
            "slopes": slopes,
            "implication": _num(all(r.implication_ok for r in rows), "exact")}


def _cmd_kg_experiment(system: KSpaceSpec, args, caps: Caps) -> dict:
    grid = (_parse_eps_grid(args.eps_grid) if args.eps_grid
            else [Fraction(1, 10), Fraction(1, 100), Fraction(1, 1000),
                  Fraction(1, 10000)])
    if system.kind == "kset" and any(e >= Fraction(1, 4) for e in grid):
        raise SpecError("kset eps grid values must lie in (0, 1/4)")
    folner = FolnerDescriptor(args.folner, _folner_indices(args, 1))
    rows = kg_covering_experiment(system, folner, grid, caps)
    return {"rows": [{"n": r.n_index, "eps": r.eps, "window": r.window,
                      "gamma": r.gamma, "zeta": r.zeta,
                      "lower": str(r.lower), "upper": str(r.upper),
                      "formula_lower": str(r.formula_lower),
                      "formula_upper": str(r.formula_upper),
                      "slope_lower": r.slope_lower,
                      "slope_upper": r.slope_upper,
                      "bracket_ok": r.bracket_ok} for r in rows],
            "trend_slopes": trend_slopes(rows[:len(grid)])}


def _cmd_kg_mass_demo(system: KSpaceSpec, args, caps: Caps) -> dict:
    folner = FolnerDescriptor(args.folner, (1,))
    ks = [_parse_value(int, k, "--k-list")
          for k in (args.k_list or "2,4,6").split(",")]
    if any(k < 1 for k in ks):
        raise SpecError("k-list values must be >= 1")
    eps = (_parse_value(Fraction, args.eps, "--eps") if args.eps
           else Fraction(1, 10))
    if not 0 < eps < Fraction(1, 6):
        raise SpecError("mass demo eps must lie in (0, 1/6)")
    reports = [kg_mass_distribution_demo(system, k, folner, 1, eps,
                                         seed=args.seed, caps=caps)
               for k in ks]
    return {"reports": [{"k": r.k, "bound": _num(r.bound, "certified-bound"),
                         "points_checked": r.points_checked,
                         "worst_margin": r.worst_margin} for r in reports],
            "monotone": all(a.bound >= b.bound
                            for a, b in zip(reports, reports[1:]))}


COMMANDS = {
    "entropy": (_cmd_entropy, "subshift"),
    "carpet-dims": (_cmd_carpet_dims, "carpet"),
    "selfsimilar-bound": (_cmd_selfsimilar_bound, "selfsimilar"),
    "selfsimilar-probe": (_cmd_selfsimilar_probe, "selfsimilar"),
    "homog-entropy": (_cmd_homog_entropy, "homogeneous"),
    "homog-probe": (_cmd_homog_probe, "homogeneous"),
    "kg-experiment": (_cmd_kg_experiment, "kspace"),
    "kg-mass-demo": (_cmd_kg_mass_demo, "kspace"),
}


@functools.cache  # one parser per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meandim",
        description="entropy and mean-dimension experiments over Z^d")
    parser.add_argument("command", choices=list(COMMANDS) + ["validate"])
    parser.add_argument("--spec", required=True, help="JSON system spec path")
    parser.add_argument("--m-max", type=int, default=4)
    parser.add_argument("--l-max", type=int, default=4)
    parser.add_argument("--depths", type=int, nargs="*")
    parser.add_argument("--eps-grid", help="comma separated, decreasing")
    parser.add_argument("--folner", choices=("balls", "boxes"),
                        default="balls")
    parser.add_argument("--w", help="weighted-entropy exponent or 'auto'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--window-sizes", type=int, nargs="*")
    parser.add_argument("--k-list", help="comma separated sharpness values")
    parser.add_argument("--eps", help="single scale for the mass demo")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--caps", help="cells=N,patterns=N,cloud=N",
                        default="")
    return parser


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".meandim-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _report_text(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2, default=str) + "\n"


def main(argv=None) -> int:
    # exact counts print in full, past the 4300 digits of Python >= 3.10.7
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        with open(args.spec) as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
        diagnostics = validate(doc)
        report = {"command": "validate", "diagnostics": diagnostics,
                  "ok": not diagnostics}
        print(_report_text(report), end="")
        return 0 if not diagnostics else 2

    handler, expected = COMMANDS[args.command]
    status = 1
    try:
        system = parse_system(doc)
        if doc.get("system", "subshift") != expected:
            raise SpecError(f"{args.command} expects a {expected!r} spec")
        if args.seed < 0:
            raise SpecError(f"--seed must be non-negative, got {args.seed}")
        results = handler(system, args, parse_caps(args.caps))
        status = 0
    except SpecError as exc:
        print(f"spec error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        results = {"assertion_failed": str(exc)}
    except CAP_ABORTS as exc:
        results = {"cap_abort": str(exc)}
    except Exception as exc:
        results = {"internal_error": f"{type(exc).__name__}: {exc}"}

    report = {
        "command": args.command,
        "config": {**{key: value for key, value in vars(args).items()
                      if key not in ("command", "out")}, "spec": doc},
        "results": results,
        "status": "ok" if status == 0 else "failed",
        "versions": {"meandim": __version__,
                     "python": platform.python_version(),
                     "numpy": np.__version__},
        "timing": {"seconds": round(time.monotonic() - started, 6)},
    }
    text = _report_text(report)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _atomic_write(os.path.join(args.out, "report.json"), text)
        if isinstance(results, dict) and "csv" in results:
            _atomic_write(os.path.join(args.out, "series.csv"),
                          results["csv"])
        rows = results.get("rows") if isinstance(results, dict) else None
        if rows and all(isinstance(r, dict) for r in rows):
            lines = "\n".join(json.dumps(r, sort_keys=True, default=str)
                              for r in rows)
            _atomic_write(os.path.join(args.out, "series.jsonl"), lines + "\n")
            keys = sorted({k for r in rows for k in r
                           if not isinstance(r[k], (dict, list))})
            csv_lines = [",".join(keys)]
            csv_lines += [",".join(str(r.get(k, "")) for k in keys)
                          for r in rows]
            _atomic_write(os.path.join(args.out, "summary.csv"),
                          "\n".join(csv_lines) + "\n")
    print(text, end="")
    return status


if __name__ == "__main__":
    sys.exit(main())
