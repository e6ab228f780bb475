"""Three-way decision rule induction from complete and incomplete
information tables, with exact rational arithmetic throughout."""

from .errors import (
    DomainInferenceWarning,
    EmptyResolutionError,
    GuardExceededError,
    IncompleteTableError,
    ResolutionError,
    TableParseError,
    ThreeWayError,
    UnknownIdError,
    UnresolvedReferenceError,
)
from .fuzzy import Degree, TNorm, format_decimal, format_exact, implication, negate, parse_degree, tnorm
from .language import (
    Atom,
    EXTENDED,
    Formula,
    STRICT,
    enumerate_cdl,
    make_formula,
    meaning_set,
    object_description,
    parse_formula,
    render_formula,
    satisfies,
)
from .table import (
    NA,
    AttributeSchema,
    Cell,
    ClassSpecific,
    DoNotCare,
    IncompleteTable,
    Known,
    NotApplicable,
    Partial,
    SetValuedTable,
    is_complete,
    parse_table,
    possible_worlds,
    resolve_class_specific,
    to_set_valued,
    world_count,
)
from .complete import (
    DescribedSet,
    Partition,
    StructuredRegions,
    boolean_algebra,
    cdef_family,
    description_regions_complete,
    partition,
    regions_computational,
    regions_conceptual,
    regions_general,
)
from .similarity import (
    Approximability,
    SimilarityMatrix,
    alpha_similarity_class,
    approximability,
    approximability_closed,
    cdes,
    description_regions_alpha_sim,
    description_regions_approx,
    similarity,
    similarity_matrix,
    similarity_single,
)
from .satisfiability import (
    Confidence,
    SatProfile,
    alpha_meaning_set,
    confidence,
    confidence_closed,
    description_regions_alpha_meaning,
    description_regions_confidence,
    sat_degree,
    sat_profile,
)
from .rules import Decision, Provenance, Rule, RuleSet, apply_rules, derive_rules, merge, render

__version__ = "0.1.0"

#: The names of ``oracle``, which is imported on their first use (PEP 562):
#: of the commands, only ``oracle-check`` needs it.
_ORACLE = {"OracleReport", "oracle_classical_reduction", "oracle_closure_equality",
           "oracle_sat_degree", "oracle_similarity", "run_all_checks"}


def __getattr__(name: str):
    if name not in _ORACLE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    return getattr(oracle, name)
