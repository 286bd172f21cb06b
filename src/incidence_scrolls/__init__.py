"""Exact-arithmetic engine for classifying incidence scrolls.

Ruled surfaces swept by the lines in P^n meeting a prescribed set of linear
subspaces in general position: Schubert-calculus degrees, base validation
and normalization, the join/separate degeneration calculus, and the
classification of the rational and elliptic cases.
"""

from .base import (
    BaseValidationError,
    IncidenceBase,
    InternalConsistencyError,
    ScrollInvariants,
    SpecialityError,
    UnrealizableBaseError,
    ValidationReport,
    degree,
    directrix_degree,
    formula_genus,
    min_directrix_degree,
    normalize,
    validate,
)
from .classify import (
    AuditReport,
    TableRow,
    audit,
    base_candidates,
    build_tables,
    enumerate_bases,
    render_table,
)
from .degeneration import (
    DegenerationSplit,
    genus_by_degeneration,
    join,
    separate,
    speciality,
    verified_invariants,
)
from .ruled import (
    RuledSurfaceModel,
    base_structure_constraints,
    embedding_invariants,
    h0_rational,
    is_incidence,
    min_directrix_count,
    predicted_base,
    very_ample,
)
from .schubert import (
    DimensionMismatchError,
    intersection_number,
    oracle_intersection_number,
)

__version__ = "0.1.0"
