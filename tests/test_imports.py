"""Which orbikit modules each entry point loads, each checked in a fresh interpreter."""

import subprocess
import sys

import pytest


def _python(*args):
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def cli_imports(*argv):
    """Every module that `python -m orbikit ARGV` imports, read from `-X importtime`."""
    lines = _python("-X", "importtime", "-m", "orbikit", *argv).stderr.splitlines()
    return {line.rsplit("|", 1)[-1].strip() for line in lines if line.startswith("import time:")}


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


def test_a_generator_file_imports_json_but_not_formats(tmp_path):
    path = tmp_path / "k2.json"
    path.write_text('{"family": "kummer", "params": {"torus_dim_n": 2}, "name": "kummer2"}')
    imported = cli_imports("diamond", str(path), "--format", "json")
    assert "json" in imported and "orbikit.formats" not in imported


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
