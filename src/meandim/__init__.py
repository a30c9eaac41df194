"""Entropy and mean-dimension estimators for Z^d subshifts, carpet systems,
self-similar systems and homogeneous torus systems."""

from .groups import (Caps, FolnerDescriptor, GroupSpec, GroupWindow,
                     WindowCapExceeded, ball, box, canonical_order, interval,
                     product_window, word_length)
from .subshifts import (Alphabet, FiberTable, PatternCapExceeded, PatternSet,
                        Rule, SubshiftSpec, cellwise_pair_shift, count_patterns,
                        enumerate_patterns, fiber_table, full_shift,
                        golden_mean, hard_square, mcmullen_shift,
                        pair_shift_with_b_rule, projected_spec, spec_from_json)
from .metrics import PointCloud, ProductMetric, WeightScheme, tail_support
from .entropy import (EntropyEstimate, EntropySeries, entropy_estimate,
                      entropy_series, gxn_entropy_series,
                      weighted_entropy_series)
from .carpet import (CarpetMeasure, CarpetSpec, PsiCell, SandwichViolation,
                     carpet_dimension_report, mdim_h_carpet, mdim_m_carpet,
                     sandwich_check, shannon_mcmillan_probe)
from .selfsimilar import (SelfSimilarSpec, contraction_embedding_check,
                          selfsimilar_cover_probe, selfsimilar_spanning_cloud,
                          selfsimilar_upper_bound)
from .homogeneous import (HomogeneousSpec, homogeneous_covering_probe,
                          homogeneous_gxn_entropy, homogeneous_slope_series)
from .kspace import (KSpaceSpec, kg_covering_experiment,
                     kg_mass_distribution_demo)

__version__ = "0.1.0"
