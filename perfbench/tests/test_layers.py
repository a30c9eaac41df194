import contextlib
import io

import pytest

import layers
import meandim.cli
import meandim.entropy
import meandim.subshifts
from workloads import WORKLOADS
from one_pass import SPECS


def test_self_time_on_a_synthetic_tree():
    # root [0, 10] has children [1, 4] and [5, 6]; [1, 4] has child [2, 3]
    spans = [("a.f", None, 0.0, 10.0, -1, 0),
             ("b.g", None, 1.0, 4.0, 0, 0),
             ("c.h", None, 2.0, 3.0, 1, 0),
             ("b.g", None, 5.0, 6.0, 0, 0)]
    assert layers.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    fig = layers.layer_figures(spans, {"a.count": 3})
    assert fig["a.self_s"] == 6.0
    assert fig["b.g.self_s"] == 3.0
    assert fig["b.g.calls"] == 2
    assert fig["a.count"] == 3
    assert sum(v for k, v in fig.items()
               if k.count(".") == 1 and k.endswith("self_s")) == 10.0


def test_self_time_clips_overlapping_children():
    spans = [("a.f", None, 0.0, 4.0, -1, 0),
             ("b.g", None, 1.0, 3.0, 0, 0),
             ("b.g", None, 2.0, 5.0, 0, 0)]
    assert layers.self_times(spans)[0] == 1.0


SMALL_OPS = [("counting", "golden-mean-boxes"), ("clouds", "selfsimilar-probe"),
             ("sweeps", "mass-demo")]


def _traced_counters():
    tracer = layers.Tracer()
    tracer.install()
    try:
        for index, (wl, name) in enumerate(SMALL_OPS):
            op = next(o for o in WORKLOADS[wl].ops if o.name == name)
            tracer.op = index
            with contextlib.redirect_stdout(io.StringIO()):
                assert meandim.cli.main(op.command(SPECS, 7)) == 0
    finally:
        tracer.uninstall()
    fig = layers.layer_figures(tracer.spans, tracer.counters)
    return tracer, {k: v for k, v in fig.items() if not k.endswith("self_s")}


def test_two_traced_runs_give_identical_counters():
    first, counters = _traced_counters()
    _, again = _traced_counters()
    assert counters == again
    assert counters["cli.ops"] == len(SMALL_OPS)
    assert counters["subshifts.cap_aborts"] == 7
    assert counters["subshifts.count_patterns.calls"] > 0
    assert {s[5] for s in first.spans} == {0, 1, 2}


def test_wrappers_reach_every_import_site_and_are_removed():
    original = meandim.subshifts.count_patterns
    tracer = layers.Tracer()
    tracer.install()
    try:
        assert meandim.entropy.count_patterns is meandim.subshifts.count_patterns
        assert meandim.count_patterns is meandim.subshifts.count_patterns
        assert meandim.subshifts.count_patterns is not original
        with pytest.raises(RuntimeError):
            tracer.install()
    finally:
        tracer.uninstall()
    assert meandim.entropy.count_patterns is original
    assert meandim.count_patterns is original


def test_count_patterns_spans_are_labelled_by_engine():
    from meandim import FolnerDescriptor, golden_mean, hard_square
    tracer = layers.Tracer()
    tracer.install()
    try:
        meandim.entropy.entropy_series(hard_square(),
                                       FolnerDescriptor("boxes", (2,)))
        meandim.entropy.entropy_series(hard_square(),
                                       FolnerDescriptor("balls", (1,)))
        meandim.entropy.entropy_series(golden_mean(),
                                       FolnerDescriptor("boxes", (3,)))
    finally:
        tracer.uninstall()
    labels = [s[1] for s in tracer.spans if s[0] == "subshifts.count_patterns"]
    assert labels == ["rank2_box", "rank2_ball", "rank1"]
