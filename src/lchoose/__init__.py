"""Exact desk-scale laboratory for list-choosability of complete
multipartite graphs under quota multisets."""

from .assignment import (
    AssignmentEnumerator,
    ColourPartition,
    ListAssignment,
    assignment_from_dict,
    assignment_to_dict,
    canonical_key,
    is_lambda_assignment,
    trim_to_exact,
)
from .budget import Budget
from .constructions import (
    GadgetInstance,
    StructureError,
    ThreesBadCandidate,
    ThreesFamilyEnumerator,
    build_bad_k42,
    build_gadget,
    exception_graphs,
    parity_obstruction_check,
    random_threes_candidate,
    verify_gadget,
)
from .graphs import MultipartiteGraph, part_vectors
from .lam import INFINITE, Lambda, phi_bounds, phi_exact, precedes, refines
from .reduction import (
    FourTuple,
    Recipe,
    find_reducible_4tuple,
    peel_recipes,
    subgraph_from_tuple,
)
from .search import (
    BelowReport,
    CellResult,
    PhiSearchReport,
    phi_search,
    verify_choosable_below,
)
from .solver import (
    CHOOSABLE,
    INCONCLUSIVE,
    NOT_CHOOSABLE,
    Colouring,
    Verdict,
    find_colouring,
    is_choosable,
    make_colourability_oracle,
)

__version__ = "0.1.0"

__all__ = [
    "AssignmentEnumerator",
    "BelowReport",
    "Budget",
    "CHOOSABLE",
    "CellResult",
    "Colouring",
    "ColourPartition",
    "FourTuple",
    "GadgetInstance",
    "INCONCLUSIVE",
    "INFINITE",
    "Lambda",
    "ListAssignment",
    "MultipartiteGraph",
    "NOT_CHOOSABLE",
    "PhiSearchReport",
    "Recipe",
    "StructureError",
    "ThreesBadCandidate",
    "ThreesFamilyEnumerator",
    "Verdict",
    "assignment_from_dict",
    "assignment_to_dict",
    "build_bad_k42",
    "build_gadget",
    "canonical_key",
    "exception_graphs",
    "find_colouring",
    "find_reducible_4tuple",
    "is_choosable",
    "is_lambda_assignment",
    "make_colourability_oracle",
    "parity_obstruction_check",
    "part_vectors",
    "peel_recipes",
    "phi_bounds",
    "phi_exact",
    "phi_search",
    "precedes",
    "random_threes_candidate",
    "refines",
    "subgraph_from_tuple",
    "trim_to_exact",
    "verify_choosable_below",
    "verify_gadget",
]
