"""Per-layer tracing of meandim from outside the package.

`Tracer.install()` replaces every public module-level function of each
``meandim`` module (and the methods named in `METHODS`) with a wrapper that
records a span.  The wrapper is bound at every import site inside the
package, because modules such as ``meandim.entropy`` hold their own
references (``meandim.entropy.count_patterns``).  Nothing under ``src/`` is
edited; `Tracer.uninstall()` puts the original functions back.

A span is ``(name, label, start, end, parent, op)``: the layer-qualified
function name, an optional label read from the call arguments, perf_counter
start and end, the index of the enclosing span (-1 at the root) and the id
of the benchmark operation that caused it.  Spans stay in memory until the
pass ends.  Counters are read only from call arguments, return values,
raised exceptions and report rows, never from meandim internals.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import time

PACKAGE = "meandim"

# Methods wrapped in addition to the public module functions, as
# (module, class, method).
METHODS = (("metrics", "ProductMetric", "interval"),)

# The counting engine is chosen inside count_patterns from the window; the
# label names it by the arguments alone: transfer on rank-1 windows,
# row-profile on rank-2 boxes, backtracking on rank-2 balls.
def _count_label(args, kwargs):
    spec = kwargs.get("spec", args[0] if args else None)
    window = kwargs.get("window", args[1] if len(args) > 1 else None)
    rank = getattr(spec, "rank", None)
    kind = getattr(window, "kind", None)
    if rank == 1:
        return "rank1"
    if rank == 2 and kind in ("box", "ball"):
        return f"rank2_{kind}"
    return "other"


LABELS = {"subshifts.count_patterns": _count_label}


def _values_len(args, kwargs):
    return len(kwargs.get("values", args[0] if args else ()))


def _window_cells(result):
    return len(result) if hasattr(result, "elements") else 0


def _rows(result):
    return result.get("rows", []) if isinstance(result, dict) else []


# name -> (counter, f(args, kwargs, result) -> increment), applied on return.
COUNTERS = {
    "subshifts.enumerate_patterns":
        [("subshifts.patterns_enumerated", lambda a, k, r: len(r.patterns)),
         ("subshifts.enumerate_patterns.returned", lambda a, k, r: 1)],
    "subshifts.fiber_table":
        [("subshifts.patterns_enumerated", lambda a, k, r: r.total)],
    "carpet.carpet_representatives":
        [("carpet.representatives", lambda a, k, r: len(r[0]))],
    "homogeneous.homogeneous_covering_probe":
        [("homogeneous.pairs_checked",
          lambda a, k, r: sum(row.pairs_checked for row in r)),
         ("homogeneous.cloud_points",
          lambda a, k, r: sum(row.cloud_size for row in r))],
    "selfsimilar.selfsimilar_cover_probe":
        [("selfsimilar.geometric_lower_rows",
          lambda a, k, r: sum("geometric_lower" in row for row in _rows(r)))],
    "metrics.line_cover_count":
        [("metrics.sweep_points", lambda a, k, r: _values_len(a, k))],
    "metrics.line_separated_count":
        [("metrics.sweep_points", lambda a, k, r: _values_len(a, k))],
    "metrics.circle_cover_count":
        [("metrics.sweep_points", lambda a, k, r: _values_len(a, k))],
    "kspace.k_truncation":
        [("kspace.k_truncation.points", lambda a, k, r: len(r))],
    "entropy.entropy_series":
        [("entropy.windows", lambda a, k, r: len(r.rows))],
    "entropy.weighted_entropy_series":
        [("entropy.windows", lambda a, k, r: len(r.rows))],
    "entropy.gxn_entropy_series":
        [("entropy.windows", lambda a, k, r: len(r.rows))],
    "cli.main":
        [("cli.ops", lambda a, k, r: 1)],
}
for _name in ("ball", "box", "interval", "product_window", "minkowski_sum"):
    COUNTERS[f"groups.{_name}"] = [("groups.cells",
                                    lambda a, k, r: _window_cells(r))]

# Raised exceptions that count as a cap hit, by exception class name.
CAP_ABORTS = {"subshifts.enumerate_patterns": "PatternCapExceeded",
              "subshifts.fiber_table": "PatternCapExceeded"}


def _layer(module_name: str) -> str:
    return module_name.rpartition(".")[2].lstrip("_")


class Tracer:
    """Wraps meandim's public functions and keeps their spans in memory."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = {}
        self.op = None
        self._stack: list[int] = []
        self._originals: list[tuple] = []

    # -- installation -----------------------------------------------------

    def _modules(self):
        pkg = importlib.import_module(PACKAGE)
        mods = [pkg]
        for info in pkgutil.iter_modules(pkg.__path__):
            mods.append(importlib.import_module(f"{PACKAGE}.{info.name}"))
        return mods

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        mods = self._modules()
        wrappers = {}
        for mod in mods[1:]:
            layer = _layer(mod.__name__)
            for attr, obj in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrappers[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
        # bind each wrapper wherever the package refers to the function
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._originals.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)
        for module, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{module}"),
                          cls_name)
            orig = vars(cls)[meth]
            self._originals.append((cls, meth, orig))
            setattr(cls, meth,
                    self._wrap(orig, f"{module}.{cls_name}.{meth}"))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._originals):
            setattr(owner, attr, orig)
        self._originals.clear()

    def _wrap(self, fn, name: str):
        spans = self.spans
        stack = self._stack
        counters = self.counters
        label_of = LABELS.get(name)
        observers = COUNTERS.get(name, ())
        cap_exc = CAP_ABORTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = label_of(args, kwargs) if label_of else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if cap_exc and type(exc).__name__ == cap_exc:
                    key = f"{name.partition('.')[0]}.cap_aborts"
                    counters[key] = counters.get(key, 0) + 1
                raise
            finally:
                spans[index] = (name, label, start, clock(), parent, self.op)
                stack.pop()
            for key, fn_count in observers:
                counters[key] = counters.get(key, 0) + fn_count(args, kwargs,
                                                                 result)
            return result

        return traced

    def write_spans(self, path: str) -> None:
        with open(path, "w") as handle:
            for name, label, start, end, parent, op in self.spans:
                handle.write(json.dumps([name, label, start, end, parent, op])
                             + "\n")


# ---------------------------------------------------------------------------
# span arithmetic

def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[tuple]] = {}
    for span in spans:
        parent = span[4]
        if parent >= 0:
            children.setdefault(parent, []).append((span[2], span[3]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[2], span[3]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_figures(spans, counters: dict) -> dict:
    """Self seconds and call counts per layer and per function, plus counters.

    Keys: ``<layer>.self_s``, ``<layer>.<function>.self_s``,
    ``<layer>.<function>.calls``, ``<layer>.<function>.<label>.self_s`` for
    labelled spans, and every counter.
    """
    out: dict[str, float] = dict(counters)
    for span, own in zip(spans, self_times(spans)):
        name, label = span[0], span[1]
        layer = name.partition(".")[0]
        for key in (f"{layer}.self_s", f"{name}.self_s"):
            out[key] = out.get(key, 0.0) + own
        out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        if label:
            key = f"{name}.{label}.self_s"
            out[key] = out.get(key, 0.0) + own
    return out
