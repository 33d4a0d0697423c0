"""Graph-induced nilpotent Lie algebras over exact rationals, certified
Anosov-automorphism synthesis, and derivation-algebra tooling."""

from .graphs import (
    CoherentPartition,
    Graph,
    GraphParseError,
    coherent_components,
    graph_from_edges,
    parse_graph,
)
from .intpoly import IntPolynomial, cyclotomic
from .liealg import GradedLieAlgebra, build_graded_quotient, quotient_algebra
from .lyndon import lyndon_basis, witt_number
from .spectra import (
    UnitRootCertificate,
    char_poly,
    compound_matrix,
    products_off_circle,
    unit_root_free,
)
from .anosov import (
    AnosovVerdict,
    AutomorphismCertificate,
    ExtensionError,
    LadderExhaustedError,
    NotAdmissibleError,
    decide_anosov,
    extend_to_algebra,
    find_component_matrix,
    synthesize,
    verify_certificate,
)
from .derivations import (
    DerivationAlgebra,
    QuotientSpec,
    SpecError,
    build_quotient,
    derivation_algebra,
    hyperbolic_search,
    lift_check,
    span_report,
)

__all__ = [
    "AnosovVerdict",
    "AutomorphismCertificate",
    "CoherentPartition",
    "DerivationAlgebra",
    "ExtensionError",
    "GradedLieAlgebra",
    "Graph",
    "GraphParseError",
    "IntPolynomial",
    "LadderExhaustedError",
    "NotAdmissibleError",
    "QuotientSpec",
    "SpecError",
    "UnitRootCertificate",
    "build_graded_quotient",
    "build_quotient",
    "char_poly",
    "coherent_components",
    "compound_matrix",
    "cyclotomic",
    "decide_anosov",
    "derivation_algebra",
    "extend_to_algebra",
    "find_component_matrix",
    "graph_from_edges",
    "hyperbolic_search",
    "lift_check",
    "lyndon_basis",
    "parse_graph",
    "products_off_circle",
    "quotient_algebra",
    "span_report",
    "synthesize",
    "unit_root_free",
    "verify_certificate",
    "witt_number",
]

__version__ = "0.1.0"
