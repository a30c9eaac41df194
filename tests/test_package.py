"""The package serves its public names lazily and loads no module itself."""
import importlib
import json
import os
import subprocess
import sys

import pytest

import meandim

# module -> the names `meandim` has exported since it imported every module
EXPORTED = {
    "groups": ["CapExceeded", "Caps", "FolnerDescriptor", "GroupSpec",
               "GroupWindow", "ball", "box", "canonical_order", "interval",
               "product_window", "word_length"],
    "subshifts": ["Alphabet", "FiberTable", "PatternSet", "Rule",
                  "SubshiftSpec", "cellwise_pair_shift", "count_patterns",
                  "enumerate_patterns", "fiber_table", "full_shift",
                  "golden_mean", "hard_square", "mcmullen_shift",
                  "pair_shift_with_b_rule", "projected_spec",
                  "spec_from_json"],
    "metrics": ["PointCloud", "ProductMetric", "WeightScheme",
                "tail_support"],
    "entropy": ["EntropyEstimate", "EntropySeries", "entropy_estimate",
                "entropy_series", "gxn_entropy_series",
                "weighted_entropy_series"],
    "carpet": ["CarpetMeasure", "CarpetSpec", "PsiCell", "SandwichViolation",
               "carpet_dimension_report", "mdim_h_carpet", "mdim_m_carpet",
               "sandwich_check", "shannon_mcmillan_probe"],
    "selfsimilar": ["SelfSimilarSpec", "contraction_embedding_check",
                    "selfsimilar_cover_probe", "selfsimilar_spanning_cloud",
                    "selfsimilar_upper_bound"],
    "homogeneous": ["HomogeneousSpec", "homogeneous_covering_probe",
                    "homogeneous_gxn_entropy", "homogeneous_slope_series"],
    "kspace": ["KSpaceSpec", "kg_covering_experiment",
               "kg_mass_distribution_demo"],
}
NAMES = [(module, name) for module, names in EXPORTED.items()
         for name in names]


@pytest.mark.parametrize("module, name", NAMES,
                         ids=[f"{m}.{n}" for m, n in NAMES])
def test_every_exported_name_is_its_modules_object(module, name):
    namespace = {}
    exec(f"from meandim import {name}", namespace)
    owner = importlib.import_module(f"meandim.{module}")
    assert namespace[name] is getattr(owner, name)


def test_all_lists_the_exported_names():
    assert sorted(meandim.__all__) == sorted(name for _, name in NAMES)


def test_importing_the_package_loads_no_submodule():
    src = os.path.dirname(os.path.dirname(os.path.abspath(meandim.__file__)))
    code = ("import json, sys, meandim; print(json.dumps(sorted("
            "m for m in sys.modules if m.startswith('meandim'))))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == ["meandim"]


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'entropy_serie'"):
        meandim.entropy_serie
    with pytest.raises(ImportError):
        exec("from meandim import entropy_serie", {})


def test_moved_names_stay_importable_from_their_old_modules():
    from meandim import groups, selfsimilar, subshifts
    assert subshifts.json_int is groups.json_int
    assert subshifts.json_object is groups.json_object
    assert selfsimilar.NetTooCoarse is groups.NetTooCoarse
