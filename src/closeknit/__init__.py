"""Invariant commensurable sub-objects through meet-semilattice fixed points.

The engine closes a seed family under its symmetry generators, locates a
strong element (one realizing the minimal down-set of distances to the
family), and returns the greatest meet of increments, which is fixed by
every symmetry.  Three concrete lattices are provided (finite subsets,
subgroups of a finite permutation group, subspaces of F_p^n), plus
direct tabular models, exact [0,1]-valued formula evaluators, and
brute-force oracles that certify every output.

Importing the package loads none of its submodules: each exported name
is imported from its submodule on first access (PEP 562), so a command
that needs one kind of lattice does not load the others.
"""

from importlib import import_module as _import_module

_EXPORTS = {
    "abstract": ("AbstractInstance", "AbstractLattice", "load_abstract"),
    "contlogic": ("MetricStructure", "delta_phi_n_group", "delta_phi_n_set",
                  "delta_phi_n_vect", "discrete_reduction"),
    "engine": ("Certificate", "EngineOptions", "Instance", "ValidationReport",
               "compute_m", "evaluate", "greatest_n", "n_of", "orbit_closure",
               "solve", "strong_elements", "validate_conditions",
               "verify_certificate"),
    "errors": ("AssociativityViolation", "CapExceeded", "CloseKnitError",
               "ConditionViolation", "ContractViolation", "ElementCapExceeded",
               "EnumerationCapExceeded", "EquivarianceViolation",
               "IncrementViolation", "InputFormatError", "InvalidAction",
               "MonotonicityViolation", "OrbitCapExceeded",
               "StrongSearchExhausted", "StructureMismatch"),
    "galois": ("solve_galois",),
    "groups": ("GroupInstance", "PermGroup", "Subgroup", "all_subgroups",
               "closure", "conjugate_action", "increment_group", "index_of",
               "measure_group", "product_set", "subgroup_from_perms"),
    "indexposet": ("DownSet", "IndexValue", "downset_of", "leq", "maximal_in", "nat"),
    "oracle": ("feasible_set",),
    "sets": ("FiniteSubset", "SetInstance", "invariant_subsets", "measure_set"),
    "vect": ("SubspaceBasis", "VectorInstance", "add", "all_subspaces", "codim",
             "intersect", "matrix_action", "measure_vect"),
}

_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_ORIGIN, *_EXPORTS])


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _ORIGIN:
        value = getattr(_import_module(f"{__name__}.{_ORIGIN[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
