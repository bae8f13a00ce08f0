"""Exact Chen-Ruan orbifold Hodge diamonds and derived-equivalence invariants.

Everything is exact integer/rational arithmetic.  The core objects are `HodgeDiamond` (sparse, possibly rationally
graded), `InertiaComponent` and `OrbifoldPresentation` (sector data), and operations assembling diamonds, computing
Hochschild column sums, checking the numeric constraints derived equivalence imposes, and reconstructing integer
diamonds in dimension up to three.  `_HOMES` says which module defines each public name; a name loads only that
module on first use, so each CLI command and each library call imports only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each public name, in `__all__` order, and its home: the module that defines it.
_HOMES = {
    "ColumnVector": "diamond", "Grade": "grades", "HodgeDiamond": "diamond", "StringyPolynomial": "diamond",
    "SymmetryReport": "diamond", "as_grade": "grades", "check_symmetries": "diamond", "columns": "diamond",
    "format_grade": "grades", "serre_dual": "diamond",
    "stringy_e": "inertia", "InertiaComponent": "inertia", "OrbifoldPresentation": "inertia",
    "assemble_diamond": "inertia", "extract_h0q": "inertia", "is_gorenstein": "inertia",
    "KummerSpec": "quotient", "ProjectiveQuotientSpec": "projective", "build_kummer": "quotient",
    "build_projective_quotient": "projective", "torus_invariant_diamond": "quotient",
    "McKayReport": "invariants", "Mismatch": "invariants", "PartnerReport": "invariants", "Verdict": "invariants",
    "check_partners": "invariants", "extract_hn0": "invariants", "extract_hn10": "invariants",
    "hochschild_via_sectors": "invariants", "mckay_compare": "invariants", "reconstruct_gorenstein": "invariants",
    "OrbikitError": "errors", "ParseError": "errors", "ValidationError": "errors", "PseudoReflectionError": "errors",
    "ScalarActionError": "errors", "GroupTooLargeError": "errors", "DimensionTooSmallError": "errors",
    "OutOfRangeError": "errors", "ParityError": "errors", "NonGorensteinOrbifoldError": "errors",
    "DimensionMismatchError": "errors", "InconsistentError": "errors", "UnsupportedDimensionError": "errors",
}
_SUBMODULES = {*_HOMES.values(), "formats", "catalog", "cli"}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    """A public name from its home module, then bound here as a plain attribute; a submodule name, that module."""
    if name in _HOMES:
        value = globals()[name] = getattr(import_module(f".{_HOMES[name]}", __name__), name)
        return value
    if name in _SUBMODULES:
        return import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOMES, *_SUBMODULES})
