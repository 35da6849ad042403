"""whiteprod: a symbolic calculator for classical and higher-order
Whitehead products in homotopy groups of spheres and projective spaces.

The package evaluates Toda-notation expressions through a relation-driven
rewrite engine over exact finitely generated abelian group tables,
computes indeterminacy subgroups and coset constraints for triple
products, and models the integral cohomology of sphere-product filtration
quotients with its cup product.

``import whiteprod`` loads the expression engine only.  Two submodules
load on first use, through the module ``__getattr__`` below: ``fatwedge``
(the cohomology of the filtration quotients) and ``scenarios`` (the pinned
computations, which read their fixtures with ``json``).  The first use of
any of their exported names, or of the module itself, imports it and binds
all of its exported names here, so later uses are plain attribute reads.
"""

from .errors import CalcError
from .expr import (Bracket, Compose, Gen, HigherBracket, Power, Scalar,
                   Signature, Sum, Susp, ZERO, expand_powers, format_expr,
                   gen, typecheck)
from .groups import (Coset, GeneratorDecl, GroupElement, GroupTable,
                     INFINITE, Space, Subgroup, TableGen, TableKey, add,
                     coset_eq, enumerate_elements, order_of, sphere,
                     subgroup_generated, torsion_family)
from .parser import parse
from .relations import RelationDB, load_relations, load_relations_text
from .rewrite import NormalForm, TraceStep, normalize, smash, suspend
from .whitehead import (ProductSpec, ProductStatus, bracket, evaluate,
                        indeterminacy, known_results, lower_products_vanish,
                        permutation_pullback, product_spec,
                        triple_coset_constraints, whitehead_projective)

__version__ = "0.1.0"

# the names each submodule that loads on first use exports here
_LAZY = {
    "fatwedge": ("CohomClass", "QuotientRing", "SphereTuple", "Witness",
                 "cup", "omega_nontriviality", "retraction_obstruction",
                 "ring", "sphere_tuple"),
    "scenarios": ("ScenarioResult", "run_scenario", "scenario_names"),
}
_LAZY_HOME = {name: mod for mod, names in _LAZY.items()
              for name in (mod, *names)}


def __getattr__(name):
    mod = _LAZY_HOME.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    module = import_module(f".{mod}", __name__)  # binds whiteprod.<mod>
    g = globals()
    g.update((n, getattr(module, n)) for n in _LAZY[mod])
    return g[name]


def __dir__():
    return sorted({*globals(), *_LAZY_HOME})


__all__ = [
    "Bracket", "CalcError", "CohomClass", "Compose", "Coset", "Gen",
    "GeneratorDecl", "GroupElement", "GroupTable", "HigherBracket",
    "INFINITE", "NormalForm", "Power", "ProductSpec", "ProductStatus",
    "QuotientRing", "RelationDB", "Scalar", "ScenarioResult", "Signature",
    "Space", "SphereTuple", "Subgroup", "Sum", "Susp", "TableGen",
    "TableKey", "TraceStep", "Witness", "ZERO", "add", "bracket",
    "coset_eq", "cup", "enumerate_elements", "evaluate", "expand_powers",
    "format_expr", "gen", "indeterminacy", "known_results",
    "load_relations", "load_relations_text", "lower_products_vanish",
    "normalize", "omega_nontriviality", "order_of", "parse",
    "permutation_pullback", "product_spec", "retraction_obstruction",
    "ring", "run_scenario", "scenario_names", "smash", "sphere",
    "sphere_tuple", "subgroup_generated", "suspend", "torsion_family",
    "triple_coset_constraints", "typecheck", "whitehead_projective",
]
