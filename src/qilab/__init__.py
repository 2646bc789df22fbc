"""qilab: a numerical laboratory for quantum information primitives.

Core pieces: dense complex linear algebra (:mod:`qilab.linalg`),
validated states and seeded generators (:mod:`qilab.states`), trace and
fidelity metrics (:mod:`qilab.metrics`), entropy and mutual-information
calculators (:mod:`qilab.info`), purification alignment
(:mod:`qilab.transition`), average-encoding bounds
(:mod:`qilab.encoding`), a two-party protocol simulator
(:mod:`qilab.protocol`, :mod:`qilab.rac`, :mod:`qilab.reduction`), and
seeded verification suites (:mod:`qilab.suites`, ``qilab`` CLI).
"""

from .encoding import EncodingStats, encoding_stats, find_pairing
from .info import (
    CQEnsemble,
    binary_entropy,
    binary_entropy_gap,
    bipartite_mutual_info,
    fano_bound,
    holevo_information,
    make_ensemble,
    measured_mutual_info,
    shannon_entropy,
    uniform_cube_ensemble,
    von_neumann_entropy,
)
from .linalg import (
    EigDecomposition,
    hermitian_eig,
    partial_trace,
    svd,
)
from .metrics import (
    TwoOutcomeMeasurement,
    bayes_success,
    fidelity,
    fidelity_distance_bounds,
    optimal_measurement,
    trace_distance,
    trace_norm,
)
from .states import (
    BipartitePureState,
    DensityMatrix,
    canonical_purification,
    distance_up_to_phase,
    make_densities,
    make_density,
    mixture,
    pure_density,
    random_densities,
    random_density,
    random_pure,
    random_unitary,
)
from .transition import (
    TransitionResult,
    exact_local_transition,
    uhlmann_align,
)

__version__ = "0.1.0"

__all__ = [
    "BipartitePureState",
    "CQEnsemble",
    "DensityMatrix",
    "EigDecomposition",
    "EncodingStats",
    "TransitionResult",
    "TwoOutcomeMeasurement",
    "bayes_success",
    "binary_entropy",
    "binary_entropy_gap",
    "bipartite_mutual_info",
    "canonical_purification",
    "distance_up_to_phase",
    "encoding_stats",
    "exact_local_transition",
    "fano_bound",
    "fidelity",
    "fidelity_distance_bounds",
    "find_pairing",
    "hermitian_eig",
    "holevo_information",
    "make_densities",
    "make_density",
    "make_ensemble",
    "measured_mutual_info",
    "mixture",
    "optimal_measurement",
    "partial_trace",
    "pure_density",
    "random_densities",
    "random_density",
    "random_pure",
    "random_unitary",
    "shannon_entropy",
    "svd",
    "trace_distance",
    "trace_norm",
    "uhlmann_align",
    "uniform_cube_ensemble",
    "von_neumann_entropy",
]
