"""Boundary expressions of groups as dense amalgams, their normal-form
algebra, and finite metric approximations of the amalgam construction.

Every module loads on first use.  ``import denseamalgam`` imports none of
them; reading an exported name (``denseamalgam.nerve``) or a submodule
(``denseamalgam.coxeter``) imports the module that defines it.  So code
that uses only the group-theory layers (boundary, simplicial, coxeter,
graphs_of_groups) never imports numpy, and code that uses only the
metric-space layers (metric, approx, characterize) never imports the
group-theory ones.
"""

import importlib

# exported name -> (module, attribute) that defines it
_EXPORTS = {
    name: (module, name)
    for module, names in (
        ("boundary", ("Amalgam", "Atom", "BoundaryExpr", "CANTOR", "Cantor",
                      "EMPTY", "Empty", "POINT_PAIR", "PointPair",
                      "format_expr", "normalize", "parse_expr")),
        ("simplicial", ("SimplicialComplex",)),
        ("coxeter", ("CoxeterSystem", "EndednessClass", "classify_endedness",
                     "is_finite_type", "nerve", "parse_coxeter")),
        ("graphs_of_groups", ("BassSerreBall", "GraphOfGroups",
                              "GroupDescriptor", "ball_counts",
                              "bass_serre_ball", "check_separation",
                              "is_non_elementary", "reduce")),
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
} | {
    "coxeter_boundary_expression": ("coxeter", "boundary_expression"),
    "gog_boundary_expression": ("graphs_of_groups", "boundary_expression"),
}

_SUBMODULES = frozenset((
    "_json", "_kernels", "approx", "boundary", "characterize", "cli",
    "coxeter", "graphs_of_groups", "metric", "simplicial", "tree"))

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    """Import a submodule, or the module of an exported name and keep the
    name here, so later reads are plain attribute lookups (PEP 562)."""
    if name in _SUBMODULES:
        # the import sets the package attribute, so this runs once per name
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attribute = _EXPORTS[name]
    value = globals()[name] = getattr(
        importlib.import_module(f".{module}", __name__), attribute)
    return value


def __dir__():
    return sorted(globals().keys() | _EXPORTS.keys() | _SUBMODULES)


__version__ = "0.1.0"
