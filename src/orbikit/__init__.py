"""Exact Chen-Ruan orbifold Hodge diamonds and derived-equivalence invariants.

Everything is exact integer/rational arithmetic.  The core objects are
`HodgeDiamond` (sparse, possibly rationally graded), `InertiaComponent`
and `OrbifoldPresentation` (sector data), and operations assembling
diamonds, computing Hochschild column sums, checking the numeric
constraints derived equivalence imposes, and reconstructing integer
diamonds in dimension up to three.
"""

from .diamond import (
    ColumnVector,
    Grade,
    HodgeDiamond,
    StringyPolynomial,
    SymmetryReport,
    as_grade,
    check_symmetries,
    columns,
    format_grade,
    serre_dual,
)
from .errors import (
    DimensionMismatchError,
    DimensionTooSmallError,
    GroupTooLargeError,
    InconsistentError,
    NonGorensteinOrbifoldError,
    OrbikitError,
    OutOfRangeError,
    ParityError,
    ParseError,
    PseudoReflectionError,
    ScalarActionError,
    UnsupportedDimensionError,
    ValidationError,
)
from .inertia import (
    InertiaComponent,
    OrbifoldPresentation,
    assemble_diamond,
    extract_h0q,
    is_gorenstein,
    stringy_e,
)
from .invariants import (
    McKayReport,
    Mismatch,
    PartnerReport,
    Verdict,
    check_partners,
    extract_hn0,
    extract_hn10,
    hochschild_via_sectors,
    mckay_compare,
    reconstruct_gorenstein,
)
from .quotient import (
    KummerSpec,
    ProjectiveQuotientSpec,
    build_kummer,
    build_projective_quotient,
    torus_invariant_diamond,
)

__version__ = "0.1.0"

__all__ = [
    "ColumnVector",
    "Grade",
    "HodgeDiamond",
    "StringyPolynomial",
    "SymmetryReport",
    "as_grade",
    "check_symmetries",
    "columns",
    "format_grade",
    "serre_dual",
    "stringy_e",
    "InertiaComponent",
    "OrbifoldPresentation",
    "assemble_diamond",
    "extract_h0q",
    "is_gorenstein",
    "KummerSpec",
    "ProjectiveQuotientSpec",
    "build_kummer",
    "build_projective_quotient",
    "torus_invariant_diamond",
    "McKayReport",
    "Mismatch",
    "PartnerReport",
    "Verdict",
    "check_partners",
    "extract_hn0",
    "extract_hn10",
    "hochschild_via_sectors",
    "mckay_compare",
    "reconstruct_gorenstein",
    "OrbikitError",
    "ParseError",
    "ValidationError",
    "PseudoReflectionError",
    "ScalarActionError",
    "GroupTooLargeError",
    "DimensionTooSmallError",
    "OutOfRangeError",
    "ParityError",
    "NonGorensteinOrbifoldError",
    "DimensionMismatchError",
    "InconsistentError",
    "UnsupportedDimensionError",
    "__version__",
]
