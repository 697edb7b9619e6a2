"""Boundary expressions of groups as dense amalgams, their normal-form
algebra, and finite metric approximations of the amalgam construction.

The group-theory layers (boundary, simplicial, coxeter, graphs_of_groups)
are imported with the package.  The metric-space layers (metric, approx,
characterize) are built on numpy; each is imported the first time one of
its exported names is read, so code that uses only the group-theory names
never imports numpy.
"""

import importlib
import types

from .boundary import (
    Amalgam,
    Atom,
    BoundaryExpr,
    CANTOR,
    Cantor,
    EMPTY,
    Empty,
    POINT_PAIR,
    PointPair,
    format_expr,
    normalize,
    parse_expr,
)
from .simplicial import SimplicialComplex
from .coxeter import (
    CoxeterSystem,
    EndednessClass,
    classify_endedness,
    is_finite_type,
    nerve,
    parse_coxeter,
)
from .coxeter import boundary_expression as coxeter_boundary_expression
from .graphs_of_groups import (
    BassSerreBall,
    GraphOfGroups,
    GroupDescriptor,
    OrientedEdge,
    ball_counts,
    bass_serre_ball,
    check_separation,
    is_non_elementary,
    reduce,
)
from .graphs_of_groups import boundary_expression as gog_boundary_expression

# exported name -> the numpy-backed module that defines it
_ON_FIRST_USE = {
    name: module
    for module, names in (
        ("metric", ("FiniteMetricSpace", "disjoint_union", "read_matrix_csv",
                    "space_from_json", "write_matrix_csv")),
        ("approx", ("AmalgamApprox", "ConditionReport", "ConditionTolerances",
                    "build_approx", "check_conditions", "load_bundle",
                    "save_bundle")),
        ("characterize", ("MergeResult", "RegularStructure", "TLabelling",
                          "as_regular_structure", "build_t_labelling",
                          "check_regularity", "labelling_from_json",
                          "labelling_to_json", "load_structure",
                          "merge_families", "quotient_profile",
                          "save_structure", "verify_labelling")),
    )
    for name in names
}

# the names imported above, and those loaded on first use
__all__ = sorted(
    [name for name, value in globals().items()
     if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    + list(_ON_FIRST_USE))


def __getattr__(name):
    """Import the module of a metric-space name and keep the name here, so
    later reads are plain attribute lookups (PEP 562)."""
    module = _ON_FIRST_USE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted(globals().keys() | _ON_FIRST_USE.keys())


__version__ = "0.1.0"
