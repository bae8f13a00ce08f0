"""The public names that callers, the CLI and the benchmark import."""

import orbikit
from orbikit import catalog, cli, formats

PUBLIC_NAMES = [
    "ColumnVector", "Grade", "HodgeDiamond", "StringyPolynomial", "SymmetryReport",
    "as_grade", "check_symmetries", "columns", "format_grade", "serre_dual", "stringy_e",
    "InertiaComponent", "OrbifoldPresentation", "assemble_diamond", "extract_h0q",
    "is_gorenstein", "KummerSpec", "ProjectiveQuotientSpec", "build_kummer",
    "build_projective_quotient", "torus_invariant_diamond", "McKayReport", "Mismatch",
    "PartnerReport", "Verdict", "check_partners", "extract_hn0", "extract_hn10",
    "hochschild_via_sectors", "mckay_compare", "reconstruct_gorenstein", "OrbikitError",
    "ParseError", "ValidationError", "PseudoReflectionError", "ScalarActionError",
    "GroupTooLargeError", "DimensionTooSmallError", "OutOfRangeError", "ParityError",
    "NonGorensteinOrbifoldError", "DimensionMismatchError", "InconsistentError",
    "UnsupportedDimensionError", "__version__",
]


def test_all_is_pinned():
    assert orbikit.__all__ == PUBLIC_NAMES
    assert all(hasattr(orbikit, name) for name in PUBLIC_NAMES)


def test_module_entry_points_stay_importable():
    for module, names in [
        (formats, ["loads", "dumps", "presentation_from_obj", "presentation_to_obj",
                   "diamond_from_obj", "diamond_to_obj", "grade_from_json", "grade_to_json"]),
        (cli, ["render_diamond", "main"]),
        (catalog, ["catalog_entries", "load_catalog_presentation"]),
    ]:
        for name in names:
            assert callable(getattr(module, name)), f"{module.__name__}.{name}"
