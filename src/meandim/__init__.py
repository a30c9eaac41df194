"""Entropy and mean-dimension estimators for Z^d subshifts, carpet systems,
self-similar systems and homogeneous torus systems.

`import meandim` loads no submodule: each public name below is read from
its module on first use (PEP 562), so a command loads only the modules its
system kind runs."""

import importlib

__version__ = "0.1.0"

# module -> the public names the package serves from it
_EXPORTS = {
    "groups": ("CapExceeded", "Caps", "FolnerDescriptor", "GroupSpec",
               "GroupWindow", "ball", "box", "canonical_order", "interval",
               "product_window", "word_length"),
    "subshifts": ("Alphabet", "FiberTable", "PatternSet", "Rule",
                  "SubshiftSpec", "cellwise_pair_shift", "count_patterns",
                  "enumerate_patterns", "fiber_table", "full_shift",
                  "golden_mean", "hard_square", "mcmullen_shift",
                  "pair_shift_with_b_rule", "projected_spec",
                  "spec_from_json"),
    "metrics": ("PointCloud", "ProductMetric", "WeightScheme",
                "tail_support"),
    "entropy": ("EntropyEstimate", "EntropySeries", "entropy_estimate",
                "entropy_series", "gxn_entropy_series",
                "weighted_entropy_series"),
    "carpet": ("CarpetMeasure", "CarpetSpec", "PsiCell", "SandwichViolation",
               "carpet_dimension_report", "mdim_h_carpet", "mdim_m_carpet",
               "sandwich_check", "shannon_mcmillan_probe"),
    "selfsimilar": ("SelfSimilarSpec", "contraction_embedding_check",
                    "selfsimilar_cover_probe", "selfsimilar_spanning_cloud",
                    "selfsimilar_upper_bound"),
    "homogeneous": ("HomogeneousSpec", "homogeneous_covering_probe",
                    "homogeneous_gxn_entropy", "homogeneous_slope_series"),
    "kspace": ("KSpaceSpec", "kg_covering_experiment",
               "kg_mass_distribution_demo"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
