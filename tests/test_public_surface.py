"""The public names that callers, the CLI and the benchmark import, and the README example that uses them."""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

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


def test_readme_library_example_runs_and_prints_what_its_comments_say():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"^## Library example\n\n```python\n(.*?)^```$", readme, re.M | re.S)[1]
    expected = [line.split("# ", 1)[1].strip() for line in block.splitlines() if line.startswith("print(")]
    assert expected == ["20", "{-2: 1, 0: 22, 2: 1}"]
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})  # the block's own `assert` runs too
    assert out.getvalue().splitlines() == expected
