"""Which orbikit modules each entry point loads, each checked in a fresh interpreter."""

import subprocess
import sys

import pytest


def _python(*args):
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


# `python -m orbikit ARGV`, run by `runpy` as `-m` runs it, then the name of every module in `sys.modules` at exit,
# one a line on standard error.  `-X importtime` would miss a module loaded through `importlib.import_module`.
RUN_AND_LIST_MODULES = """\
import atexit, runpy, sys
atexit.register(lambda: print(*sys.modules, sep="\\n", file=sys.stderr))
runpy.run_module("orbikit", run_name="__main__", alter_sys=True)
"""


def cli_imports(*argv):
    """Every module loaded when `python -m orbikit ARGV` exits, however it was imported."""
    return set(_python("-c", RUN_AND_LIST_MODULES, *argv).stderr.splitlines())


# No command imports `dataclasses`, or `inspect`, `ast` and `dis` with it: the records are plain `__slots__` classes.
NEVER_IMPORTED = {"dataclasses", "inspect"}


@pytest.mark.parametrize("argv", [["diamond", "kummer2"], ["check", "p2_mu3", "--gorenstein"], ["catalog"], ["--help"]])
def test_commands_without_invariants_never_import_it(argv):
    imported = cli_imports(*argv)
    assert {"orbikit.cli", "orbikit.diamond"} <= imported
    assert "orbikit.invariants" not in imported
    assert not NEVER_IMPORTED & imported


@pytest.mark.parametrize("argv", [["partners", "kummer2", "kummer2"], ["reconstruct", "--dim", "2", "--columns", "2:1,1:0,0:22"]])
def test_commands_with_invariants_import_it(argv):
    imported = cli_imports(*argv)
    assert "orbikit.invariants" in imported
    assert not NEVER_IMPORTED & imported


# A catalog name is read by `catalog` and `quotient`, and printed without `formats`: neither it nor `json` loads.
@pytest.mark.parametrize(
    "argv", [["diamond", "kummer2"], ["check", "p2_mu3", "--gorenstein"], ["partners", "kummer2", "kummer2"], ["catalog"]]
)
def test_catalog_names_import_neither_formats_nor_json(argv):
    imported = cli_imports(*argv)
    assert "orbikit.catalog" in imported
    assert not {"orbikit.formats", "json"} & imported


@pytest.fixture
def kummer_file(tmp_path):
    path = tmp_path / "k2.json"
    path.write_text('{"family": "kummer", "params": {"torus_dim_n": 2}, "name": "kummer2"}')
    return str(path)


def test_a_generator_file_imports_json_but_not_formats(kummer_file):
    imported = cli_imports("diamond", kummer_file, "--format", "json")
    assert "json" in imported and "orbikit.formats" not in imported


# A grade leaves the lattice as a `Fraction` only in the library and in `formats`: these commands make none, so
# neither `fractions` nor the `decimal` and `numbers` it imports loads.  A Kummer input needs neither the grade
# codec nor the projective family.
@pytest.mark.parametrize("argv, kummer", [
    (["diamond", "kummer2"], True),
    (["diamond", "{kummer_file}", "--format", "json"], True),
    (["check", "p2_mu3", "--gorenstein"], False),
    (["partners", "kummer2", "kummer2"], False),
])
def test_catalog_names_and_generator_files_load_no_fractions(kummer_file, argv, kummer):
    imported = cli_imports(*(arg.format(kummer_file=kummer_file) for arg in argv))
    assert not {"fractions", "decimal", "numbers"} & imported
    if kummer:
        assert not {"orbikit.grades", "orbikit.projective"} & imported


def test_a_projective_quotient_loads_its_family_module():
    assert "orbikit.projective" in cli_imports("diamond", "p2_mu3")


@pytest.mark.parametrize("argv", [["diamond", "{explicit}"], ["catalog", "--format", "json"]])
def test_explicit_files_and_canonical_output_import_formats(tmp_path, argv):
    from orbikit import build_kummer
    from orbikit.formats import dumps, presentation_to_obj

    path = tmp_path / "explicit.json"
    path.write_text(dumps(presentation_to_obj(build_kummer(2))))
    assert "orbikit.formats" in cli_imports(*(arg.format(explicit=path) for arg in argv))


def run_fresh(code):
    """The standard output of `code` run after `import orbikit` in a fresh interpreter."""
    return _python("-c", f"import sys, orbikit\n{code}").stdout


def test_a_bare_import_loads_no_submodule():
    assert run_fresh("print(*sorted(m for m in sys.modules if m.startswith('orbikit')))") == "orbikit\n"


def test_dir_lists_every_public_name_before_first_use():
    out = run_fresh("names = dir(orbikit)\nprint(len(orbikit.__all__), sorted(set(orbikit.__all__) - set(names)))")
    assert out == "45 []\n"


def test_a_submodule_still_resolves_as_a_module():
    assert run_fresh("print(orbikit.inertia is sys.modules['orbikit.inertia'], orbikit.inertia.__name__)") == (
        "True orbikit.inertia\n"
    )


def test_a_missing_name_raises_attribute_error():
    out = run_fresh("try:\n    orbikit.nope\nexcept AttributeError as exc:\n    print(exc)")
    assert out == "module 'orbikit' has no attribute 'nope'\n"


def test_formats_catalog_and_cli_resolve_by_attribute():
    """The benchmark reaches these modules as attributes after `import orbikit, orbikit.cli`."""
    out = run_fresh(
        "import orbikit.cli\n"
        "print('orbikit.formats' in sys.modules, callable(orbikit.formats.loads), orbikit.catalog.__name__, "
        "orbikit.cli is sys.modules['orbikit.cli'])\n"
        "try:\n    orbikit.nope\nexcept AttributeError as exc:\n    print(exc)"
    )
    assert out == "False True orbikit.catalog True\nmodule 'orbikit' has no attribute 'nope'\n"


# Names that `diamond` and `quotient` load on first use, each case in its own fresh interpreter.
LAZY_NAMES = {
    "package_grade": "import fractions\nprint(orbikit.Grade is fractions.Fraction)",
    "diamond_names": (
        "from orbikit.diamond import Grade, as_grade, format_grade\nimport fractions\n"
        "print(Grade is fractions.Fraction and format_grade(as_grade('-1/3')) == '-1/3')"
    ),
    "quotient_names": (
        "from orbikit.quotient import build_projective_quotient, ProjectiveQuotientSpec\n"
        "print(build_projective_quotient(ProjectiveQuotientSpec(2, (3,), ((0, 1, 2),))).name == 'p2_z3')"
    ),
    "dir_before_use": (
        "import orbikit.diamond as d, orbikit.quotient as q\n"
        "print({'Grade', 'as_grade', 'format_grade'} <= set(dir(d)), "
        "{'build_projective_quotient', 'ProjectiveQuotientSpec'} <= set(dir(q)), "
        "not {'fractions', 'orbikit.grades', 'orbikit.projective'} & set(sys.modules))"
    ),
    "fraction_keys": (
        "from fractions import Fraction\n"
        "print({type(x) for key in orbikit.HodgeDiamond(2, {(1, 1): 1}).entries for x in key} == {Fraction})"
    ),
    "missing_names": (
        "import orbikit.diamond as d, orbikit.quotient as q\n"
        "for m in (d, q):\n"
        "    try:\n        m.nope\n    except AttributeError as exc:\n        print(exc)"
    ),
}
LAZY_OUT = {
    "dir_before_use": "True True True\n",
    "missing_names": "module 'orbikit.diamond' has no attribute 'nope'\nmodule 'orbikit.quotient' has no attribute 'nope'\n",
}


@pytest.mark.parametrize("case", LAZY_NAMES)
def test_lazy_names_resolve_in_a_fresh_interpreter(case):
    assert run_fresh(LAZY_NAMES[case]) == LAZY_OUT.get(case, "True\n")
