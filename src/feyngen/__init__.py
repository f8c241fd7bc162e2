"""Recursive generator of connected Feynman graphs with exact symmetry-factor
weights, plus finite-model evaluation and independent verification oracles.

The public names below are loaded on first use (PEP 562), so importing the
package, or one of its modules, compiles and runs only the modules needed.
"""

import importlib

__version__ = "0.1.0"

#: The public names that each submodule defines.
_EXPORTS_BY_MODULE = {
    "algebra": (
        "ONE",
        "ModelError",
        "Monomial",
        "ResourceLimitError",
    ),
    "elimination": (
        "evaluate_graph",
        "evaluate_graph_sum",
    ),
    "evaluation": (
        "Model",
        "load_model",
        "nu",
        "sigma_lv",
    ),
    "graphs": (
        "CanonicalGraph",
        "OrderedGraph",
        "canonicalize",
    ),
    "hopf": (
        "BOUND_LABEL_PREFIX",
        "GenOptions",
        "TensorTerm",
        "WeightedTensorSum",
        "apply_Q",
        "apply_T",
        "coproduct",
        "distribute",
        "iterated_coproduct",
        "omega",
        "omega_alt",
        "sigma_recursive",
        "tensor_multiply",
    ),
    "invariants": (
        "edge_symmetry_factor",
        "is_connected",
        "loop_number",
        "permute_vertices",
        "symmetry_factor",
        "vertex_symmetry_factor",
    ),
    "oracle": (
        "ComparisonReport",
        "brute_force_canonicalize",
        "brute_force_edge_symmetry_factor",
        "brute_force_symmetry_factor",
        "compare",
        "enumerate_connected",
        "perfect_matching_count",
        "zero_dim_log_z",
    ),
    "records": (
        "graph_from_dict",
        "graph_to_dict",
        "graphs_to_json",
        "to_dot",
    ),
    "recursion": (
        "GraphSum",
        "min_valence_classes",
        "omega_classes",
        "vertex_bound",
    ),
}

#: Each public name and the submodule that defines it.
_MODULE_OF = {
    name: module for module, names in _EXPORTS_BY_MODULE.items() for name in names
}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
