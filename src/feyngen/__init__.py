"""Recursive generator of connected Feynman graphs with exact symmetry-factor
weights, plus finite-model evaluation and independent verification oracles."""

from .algebra import (
    BOUND_LABEL_PREFIX,
    ONE,
    Monomial,
    TensorTerm,
    WeightedTensorSum,
    coproduct,
    iterated_coproduct,
    tensor_multiply,
    truncated_coproduct,
)
from .evaluation import (
    Model,
    ModelError,
    NPointTable,
    evaluate_graph,
    evaluate_graph_sum,
    load_model,
    nu,
    sigma_lv,
    sigma_recursive,
    sigma_zero_vertex,
)
from .graphs import (
    CanonicalGraph,
    OrderedGraph,
    canonicalize,
    edge_symmetry_factor,
    graph_from_dict,
    graph_to_dict,
    graphs_to_json,
    is_connected,
    loop_number,
    permute_vertices,
    symmetry_factor,
    to_dot,
    vertex_symmetry_factor,
)
from .oracle import (
    ComparisonReport,
    ResourceLimitError,
    SeriesTable,
    brute_force_canonicalize,
    brute_force_edge_symmetry_factor,
    brute_force_symmetry_factor,
    compare,
    enumerate_connected,
    perfect_matching_count,
    zero_dim_log_z,
)
from .recursion import (
    GenOptions,
    GraphSum,
    apply_Q,
    apply_T,
    concat,
    distribute,
    glue,
    min_valence_classes,
    omega,
    omega_alt,
    omega_classes,
    vertex_bound,
)

__version__ = "0.1.0"
