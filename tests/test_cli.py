import argparse
import errno
import io
import json
import os
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from orbikit import (
    ColumnVector,
    GroupTooLargeError,
    HodgeDiamond,
    ParseError,
    ValidationError,
    assemble_diamond,
    build_kummer,
    check_partners,
    reconstruct_gorenstein,
)
from orbikit.catalog import catalog_entries, load_catalog_presentation
from orbikit.cli import RENDERERS, _build_parser, main, render_diamond, render_partners
from orbikit.formats import (
    diamond_from_obj,
    diamond_to_obj,
    dumps,
    loads,
    presentation_from_obj,
    presentation_to_obj,
    read_json,
)
from support import (
    K3_DIAMOND,
    P2_MU3_DIAMOND,
    random_fractional_diamonds,
    random_symmetric_diamond,
    render_table_per_cell,
    render_tex_per_cell,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
UPDATE_GOLDEN = os.environ.get("ORBIKIT_UPDATE_GOLDEN") == "1"


def run_cli(*args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def check_golden(name, text):
    path = GOLDEN_DIR / name
    if UPDATE_GOLDEN:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
    assert path.read_text(encoding="utf-8") == text


GOLDEN_CASES = [
    ("diamond_kummer2_table.txt", ["diamond", "kummer2"]),
    ("diamond_kummer3_table.txt", ["diamond", "kummer3"]),
    ("diamond_p2_mu3_table.txt", ["diamond", "p2_mu3"]),
    ("diamond_pn_trivial_table.txt", ["diamond", "pn_trivial"]),
    ("diamond_kummer2.json", ["diamond", "kummer2", "--format", "json"]),
    ("diamond_kummer3.json", ["diamond", "kummer3", "--format", "json"]),
    ("diamond_p2_mu3.json", ["diamond", "p2_mu3", "--format", "json"]),
    ("diamond_kummer3.csv", ["diamond", "kummer3", "--format", "csv"]),
    ("diamond_kummer2.tex", ["diamond", "kummer2", "--format", "tex"]),
    ("check_kummer2.txt", ["check", "kummer2"]),
    ("check_p2_mu3_gorenstein.txt", ["check", "p2_mu3", "--gorenstein"]),
    ("partners_kummer2_kummer2.txt", ["partners", "kummer2", "kummer2"]),
    ("partners_kummer2_kummer2.json", ["partners", "kummer2", "kummer2", "--format", "json"]),
    ("reconstruct_quintic_table.txt", ["reconstruct", "--dim", "3", "--columns", "3:1,2:0,1:101,0:4", "--h01", "0"]),
    ("reconstruct_quintic.json", ["reconstruct", "--dim", "3", "--columns", "3:1,2:0,1:101,0:4", "--h01", "0", "--format", "json"]),
    ("reconstruct_k3_table.txt", ["reconstruct", "--dim", "2", "--columns", "2:1,1:0,0:22"]),
    ("catalog.txt", ["catalog"]),
    ("catalog.json", ["catalog", "--format", "json"]),
]


@pytest.mark.parametrize("name,args", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden(name, args, monkeypatch):
    monkeypatch.delenv("ORBIKIT_CATALOG_DIR", raising=False)
    code, out, err = run_cli(*args)
    assert code == 0 and err == ""
    check_golden(name, out)


MISMATCH_GOLDEN_CASES = [
    ("partners_kummer2_p2_mu3_strict.txt", ["partners", "kummer2", "p2_mu3", "--strict-dim3"]),
    ("partners_kummer2_p2_mu3_strict.json", ["partners", "kummer2", "p2_mu3", "--strict-dim3", "--format", "json"]),
]

DIM4_PAIR_TEXT = """\
columns: MISMATCH
h01: MISMATCH
hn0: equal
hn10: MISMATCH
  columns[-3]: 0 vs 2
  columns[-2]: 1 vs 0
  columns[-1]: 0 vs 1
  columns[3]: 2 vs 0
  h01[0,1]: 0 vs 1
  hn10[3,0]: 2 vs 0
info: h0q[0,2]: 1 vs 0 (not verdict-affecting)
info: h0q[0,3]: 0 vs 2 (not verdict-affecting)
verdict: Incompatible
"""


class TestMismatchRendering:
    """Failure and informational lines, pinned before any change to how they are built."""

    @pytest.mark.parametrize("name,args", MISMATCH_GOLDEN_CASES, ids=[c[0] for c in MISMATCH_GOLDEN_CASES])
    def test_golden(self, name, args, monkeypatch):
        monkeypatch.delenv("ORBIKIT_CATALOG_DIR", raising=False)
        code, out, err = run_cli(*args)
        assert code == 1 and err == ""
        check_golden(name, out)

    def test_dim4_pair_with_informational_line_and_fractional_entry(self, tmp_path):
        a, b = tmp_path / "a4.json", tmp_path / "b4.json"
        a.write_text(json.dumps({"name": "a4", "dim": 4, "entries": [
            {"p": 0, "q": 0, "h": 1}, {"p": 0, "q": 2, "h": 1}, {"p": 3, "q": 0, "h": 2},
            {"p": "3/2", "q": "3/2", "h": 2}, {"p": 4, "q": 4, "h": 1},
        ]}))
        b.write_text(json.dumps({"name": "b4", "dim": 4, "entries": [
            {"p": 0, "q": 0, "h": 1}, {"p": 0, "q": 1, "h": 1}, {"p": 0, "q": 3, "h": 2},
            {"p": 2, "q": 2, "h": 2}, {"p": 4, "q": 4, "h": 1},
        ]}))
        code, out, err = run_cli("partners", str(a), str(b))
        assert (code, out, err) == (1, DIM4_PAIR_TEXT, "")
        code, out, err = run_cli("partners", str(a), str(b), "--format", "json", "--strict-dim3")
        assert code == 1 and err == ""
        payload = json.loads(out)
        assert [payload[f"{k}_equal"] for k in ("columns", "h01", "hn0", "hn10", "strict")] == [
            False, False, True, False, None,
        ]
        assert payload["verdict"] == "Incompatible"
        assert [(m["constraint"], m["index"], m["left"], m["right"]) for m in payload["failures"]] == [
            ("columns", -3, 0, 2), ("columns", -2, 1, 0), ("columns", -1, 0, 1), ("columns", 3, 2, 0),
            ("h01", [0, 1], 0, 1), ("hn10", [3, 0], 2, 0),
        ]
        assert [(m["constraint"], m["index"], m["left"], m["right"]) for m in payload["informational"]] == [
            ("h0q", [0, 2], 1, 0), ("h0q", [0, 3], 0, 2),
        ]
        assert list(payload) == [
            "columns_equal", "h01_equal", "hn0_equal", "hn10_equal", "strict_equal",
            "verdict", "failures", "informational",
        ]


class TestExitCodes:
    def test_check_failure_is_one(self):
        code, out, _ = run_cli("check", "kummer3", "--gorenstein")
        assert code == 1 and "gorenstein: FAIL" in out

    def test_check_passes(self):
        code, out, _ = run_cli("check", "kummer2", "--serre", "--hodge")
        assert code == 0
        assert out == "serre: PASS\nhodge: PASS\n"

    def test_unknown_catalog_entry_is_two(self):
        code, _, err = run_cli("diamond", "no_such_entry")
        assert code == 2 and "unknown catalog entry" in err

    def test_wrong_kind_catalog_entry_is_two(self):
        code, _, err = run_cli("diamond", "quintic_columns")
        assert code == 2 and "not an orbifold" in err

    def test_validation_error_is_three(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "name": "bad",
                    "dim": 2,
                    "sectors": [
                        {"order": 1, "exponents": [0, 0], "diamond": [{"p": 0, "q": 0, "h": 1}, {"p": 1, "q": 1, "h": 1}, {"p": 2, "q": 2, "h": 1}]},
                        {"order": 2, "exponents": [1, 0], "diamond": [{"p": 0, "q": 0, "h": 1}]},
                    ],
                }
            )
        )
        code, _, err = run_cli("diamond", str(bad))
        assert code == 3 and "PseudoReflection" in err

    def test_dimension_mismatch_is_four(self):
        code, _, err = run_cli("partners", "kummer2", "kummer3")
        assert code == 4 and "DimensionMismatch" in err

    def test_unsupported_dimension_is_five(self):
        code, _, err = run_cli("reconstruct", "--dim", "4", "--columns", "0:2")
        assert code == 5

    def test_inconsistent_reconstruct_is_one(self):
        code, _, err = run_cli("reconstruct", "--dim", "3", "--columns", "3:1,2:1,1:0,0:4", "--h01", "0")
        assert code == 1 and "Inconsistent" in err

    def test_out_of_range_column_is_named_as_given(self):
        code, out, err = run_cli("reconstruct", "--dim", "2", "--columns", "7:1")
        assert (code, out) == (3, "") and "column index 7 outside" in err

    def test_malformed_json_is_two(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{")
        code, _, err = run_cli("diamond", str(bad))
        assert code == 2

    #: name -> (file bytes, exit code, part of the one-line error)
    HOSTILE_JSON = {
        "duplicate_keys": (b'{"name": "a", "name": "b", "dim": 2, "sectors": []}', 2, "duplicate key 'name'"),
        "non_utf8": (b'{"name": "\xff\xfe", "dim": 2}', 2, "not UTF-8"),
        "deep_nesting": (b"[" * 100_000 + b"]" * 100_000, 2, "nested too deeply"),
        # Past Python's int-to-string digit limit: in the JSON parser, in a grade string, and in a
        # sector's count times its coarse h (two 4 200-digit integers that each read fine).
        "huge_integer": (b'{"name": "a", "dim": ' + b"9" * 5000 + b', "sectors": []}', 2, "invalid JSON"),
        "huge_grade": (
            b'{"name": "a", "dim": 0, "sectors": [{"order": 1, "exponents": [], "diamond": [{"p": "'
            + b"9" * 5000 + b'", "q": 0, "h": 1}]}]}',
            2,
            "not an exact rational grade",
        ),
        "huge_product": (
            b'{"name": "a", "dim": 2, "sectors": [{"order": 1, "exponents": [0, 0], "diamond": '
            b'[{"p": 0, "q": 0, "h": 1}, {"p": 1, "q": 1, "h": 1}, {"p": 2, "q": 2, "h": 1}]}, '
            b'{"order": 2, "exponents": [1, 1], "diamond": [{"p": 0, "q": 0, "h": ' + b"9" * 4200 + b'}], '
            b'"count": ' + b"9" * 4200 + b"}]}",
            3,
            "more than 4300 decimal digits",
        ),
        "sectors_object": (b'{"name": "a", "dim": 0, "sectors": {}}', 2, "ParseError: sectors: expected a list\n"),
        "order_zero": (
            b'{"name": "a", "dim": 0, "sectors": [{"order": 0, "exponents": [], "diamond": [{"p": 0, "q": 0, "h": 1}]}]}',
            3,
            "ValidationError: sector order must be a positive integer, got 0\n",
        ),
    }

    @pytest.mark.parametrize("name", [name for name, (_, code, _) in HOSTILE_JSON.items() if code == 2])
    def test_hostile_json_is_two(self, tmp_path, monkeypatch, name):
        data, _, message = self.HOSTILE_JSON[name]
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        code, out, err = run_cli("diamond", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ParseError: ") and message in err
        # A user catalog entry is read by the same strict reader.
        monkeypatch.setenv("ORBIKIT_CATALOG_DIR", str(tmp_path))
        assert run_cli("diamond", name)[:2] == (2, "")

    @pytest.mark.parametrize("name", [name for name, (_, code, _) in HOSTILE_JSON.items() if code == 3])
    def test_hostile_json_past_parsing_is_three(self, tmp_path, name):
        data, _, message = self.HOSTILE_JSON[name]
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        calls = [("diamond", str(path), "--format", fmt) for fmt in RENDERERS]
        calls.append(("partners", str(path), "kummer2"))
        for argv in calls:
            code, out, err = run_cli(*argv)
            assert (code, out) == (3, ""), argv
            assert err.count("\n") == 1 and err.startswith("error: ValidationError: ") and message in err, argv

    #: name -> (command, file object, field): a JSON \u escape of a lone surrogate, which UTF-8 cannot encode.
    SURROGATE_FILES = {
        "orbifold_name": ("diamond", {"name": "bad\ud800name", "dim": 0, "sectors": [
            {"order": 1, "exponents": [], "diamond": [{"p": 0, "q": 0, "h": 1}]}]}, "name"),
        "generator_name": ("diamond", {"family": "kummer", "params": {"torus_dim_n": 2}, "name": "bad\ud800name"}, "name"),
        "sector_label": ("diamond", {"name": "a", "dim": 0, "sectors": [
            {"order": 1, "exponents": [], "diamond": [{"p": 0, "q": 0, "h": 1}], "label": "\udfffx"}]}, "sectors[0].label"),
        "diamond_file_name": ("partners", {"name": "bad\ud800name", "dim": 0, "entries": [{"p": 0, "q": 0, "h": 1}]}, "name"),
    }

    @pytest.mark.parametrize("name", SURROGATE_FILES)
    def test_lone_surrogate_in_a_string_is_two(self, tmp_path, name):
        command, doc, field = self.SURROGATE_FILES[name]
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc), encoding="ascii")
        assert "\\ud" in path.read_text(encoding="ascii")
        inputs = [str(path)] * (2 if command == "partners" else 1)
        for fmt in RENDERERS if command == "diamond" else ("text", "json"):
            code, out, err = run_cli(command, *inputs, "--format", fmt)
            assert (code, out) == (2, ""), fmt
            assert err.count("\n") == 1 and err.startswith(f"error: ParseError: {field}: not UTF-8 text"), fmt

    def test_directory_path_is_two(self, tmp_path):
        code, _, err = run_cli("diamond", str(tmp_path))
        assert code == 2 and err == f"error: ParseError: {tmp_path}: not a regular file\n"

    def test_directory_catalog_entry_is_two(self, tmp_path, monkeypatch):
        (tmp_path / "x.json").mkdir()
        monkeypatch.setenv("ORBIKIT_CATALOG_DIR", str(tmp_path))
        code, out, err = run_cli("diamond", "x")
        assert (code, out, err) == (2, "", f"error: ParseError: {tmp_path / 'x.json'}: not a regular file\n")

    def test_overlong_source_name_is_two(self):
        code, out, err = run_cli("diamond", "a" * 5000)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ParseError: ")

    def test_partners_incompatible_is_one(self, tmp_path, k3_diamond):
        entries = dict(k3_diamond.items())
        entries[(1, 1)] = 19
        from orbikit import HodgeDiamond

        perturbed = HodgeDiamond(2, entries)
        path = tmp_path / "perturbed.json"
        path.write_text(dumps(diamond_to_obj("perturbed", perturbed)))
        code, out, _ = run_cli("partners", "kummer2", str(path), "--format", "json")
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "Incompatible"
        assert {"constraint": "columns", "index": 0, "left": 22, "right": 21} in payload["failures"]


def _kummer_file(**params):
    return {"family": "kummer", "params": params}


def _pquot_file(n=2, orders=(3,), weights=((0, 1, 2),)):
    return {"family": "projective_quotient",
            "params": {"proj_dim_n": n, "cyclic_orders": orders, "weights": weights}}


GENERATOR_ERRORS = [
    ("torus_dim_n_string", _kummer_file(torus_dim_n="2"), 2, "ParseError: params.torus_dim_n: "),
    ("torus_dim_n_list", _kummer_file(torus_dim_n=[2]), 2, "ParseError: params.torus_dim_n: "),
    ("torus_dim_n_bool", _kummer_file(torus_dim_n=True), 2, "ParseError: params.torus_dim_n: "),
    ("params_missing_field", _kummer_file(), 2, "ParseError: params: missing field(s) ['torus_dim_n']"),
    ("params_unknown_field", _kummer_file(torus_dim_n=2, x=1), 2, "ParseError: params: unknown field(s) ['x']"),
    ("params_list", {"family": "kummer", "params": [2]}, 2, "ParseError: params: "),
    ("cyclic_orders_int", _pquot_file(orders=3), 2, "ParseError: params.cyclic_orders: "),
    ("cyclic_orders_float", _pquot_file(orders=[3.0]), 2, "ParseError: params.cyclic_orders: "),
    ("weights_flat", _pquot_file(weights=[0, 1, 2]), 2, "ParseError: params.weights"),
    ("weights_string_entry", _pquot_file(weights=[[0, "1", 2]]), 2, "ParseError: params.weights"),
    ("weights_nested_entry", _pquot_file(weights=[[[0], 1, 2]]), 2, "ParseError: params.weights"),
    ("params_absent", {"family": "kummer"}, 2, "ParseError: generator file: missing field(s) ['params']"),
    ("family_unknown_before_params", {"family": "weighted", "params": [2]}, 2, "ParseError: unknown generator family"),
    ("family_int", {"family": 3, "params": {"torus_dim_n": 2}}, 2, "ParseError: family: "),
    ("family_unknown", {"family": "weighted", "params": {}}, 2, "ParseError: unknown generator family 'weighted'"),
    ("name_int", {**_kummer_file(torus_dim_n=2), "name": 3}, 2, "ParseError: name: "),
    ("torus_dim_n_one", _kummer_file(torus_dim_n=1), 3, "DimensionTooSmallError: "),
    ("torus_dim_n_negative", _kummer_file(torus_dim_n=-1), 3, "ValidationError: torus dimension "),
    ("weight_row_short", _pquot_file(weights=[[0, 1]]), 3, "ValidationError: weight row "),
    ("weight_row_missing", _pquot_file(weights=[]), 3, "ValidationError: 1 generators but 0 weight rows"),
    ("scalar_action", _pquot_file(weights=[[1, 1, 1]]), 3, "ScalarActionError: "),
    ("order_over_budget", _pquot_file(orders=[10_001]), 3, "GroupTooLargeError: group order 10001 "),
    ("proj_dim_n_zero", _pquot_file(n=0, weights=[[0]]), 3, "ValidationError: projective dimension "),
    ("cyclic_order_zero", _pquot_file(orders=[0]), 3, "ValidationError: cyclic orders must be positive integers, got 0\n"),
]


@pytest.mark.parametrize("doc,code,prefix", [c[1:] for c in GENERATOR_ERRORS], ids=[c[0] for c in GENERATOR_ERRORS])
def test_malformed_generator_file(tmp_path, doc, code, prefix):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(doc))
    got, out, err = run_cli("diamond", str(path))
    assert (got, out) == (code, "")
    assert err.count("\n") == 1 and err.startswith(f"error: {prefix}")


class TestRenderers:
    def test_unknown_format_is_a_key_error(self, k3_diamond):
        with pytest.raises(KeyError):
            render_diamond("k3", k3_diamond, "html")

    def test_dense_grid_budget_boundary(self):
        # Kummer n = 99 has the 101 grades 0..99 and 99/2 (10 201 cells); n = 98 has 99 (9 801 cells).
        refused = assemble_diamond(build_kummer(99))
        for fmt in ("table", "tex"):
            with pytest.raises(GroupTooLargeError, match="a dense grid of 10201 cells"):
                render_diamond("kummer99", refused, fmt)
        assert render_diamond("kummer99", refused, "csv").count("\n") == len(refused.entries)
        rendered = render_diamond("kummer98", assemble_diamond(build_kummer(98)), "table")
        assert rendered.count("\n") == 1 + 99


def assert_dense_renders_match_the_per_cell_oracle(name: str, d: HodgeDiamond) -> None:
    assert render_diamond(name, d, "table") == render_table_per_cell(name, d)
    assert render_diamond(name, d, "tex") == render_tex_per_cell(d)


class TestDenseRendersFromStoredEntries:
    """Grids filled from the stored entries alone equal the renders that looked up every cell."""

    def test_random_symmetric_diamonds(self, rng):
        for _ in range(40):
            max_entry = rng.choice([1, 4, 10**6])
            assert_dense_renders_match_the_per_cell_oracle("sym", random_symmetric_diamond(rng, rng.randint(0, 7), max_entry))

    def test_fractional_diamonds(self, rng):
        for d in random_fractional_diamonds(rng, 30):
            assert_dense_renders_match_the_per_cell_oracle("frac", d)

    @pytest.mark.parametrize("d", [HodgeDiamond.point(), HodgeDiamond(0, {}), HodgeDiamond(0, {(0, 0): 123456})],
                             ids=["point", "empty", "wide"])
    def test_dimension_zero(self, d):
        assert_dense_renders_match_the_per_cell_oracle("0", d)

    def test_a_value_wider_than_its_column_header(self):
        d = reconstruct_gorenstein(ColumnVector(2, {2: 1, 0: 10**40, -2: 1}), n=2)
        assert len(str(d.entry(1, 1))) == 40
        for fmt, oracle in [("table", render_table_per_cell("reconstruction", d)), ("tex", render_tex_per_cell(d))]:
            code, out, err = run_cli("reconstruct", "--dim", "2", "--columns", f"2:1,1:0,0:{10**40}", "--format", fmt)
            assert (code, out, err) == (0, oracle + "\n", "")


class TestJsonWriterAgainstStdlib:
    """Partners and catalog JSON equal `json.dumps(..., indent=2, ensure_ascii=True)` of the same values."""

    @pytest.mark.parametrize("a,b,strict,expected", [
        (K3_DIAMOND, K3_DIAMOND, False, None),
        (K3_DIAMOND, K3_DIAMOND, True, True),
        (K3_DIAMOND, P2_MU3_DIAMOND, True, False),
    ], ids=["strict_none", "strict_true", "strict_false"])
    def test_partners_json(self, a, b, strict, expected):
        text = render_partners(check_partners(a, b, strict_dim3=strict), "json")
        obj = json.loads(text)
        assert obj["strict_equal"] is expected and isinstance(obj["columns_equal"], bool)
        assert text == json.dumps(obj, indent=2, ensure_ascii=True)

    def test_catalog_json_with_escaped_user_entries(self, tmp_path, monkeypatch):
        for stem in ["café", 'quote"d', "back\\slash"]:
            (tmp_path / f"{stem}.json").write_text(json.dumps({"family": "kummer", "params": {"torus_dim_n": 2}}))
        monkeypatch.setenv("ORBIKIT_CATALOG_DIR", str(tmp_path))
        code, out, err = run_cli("catalog", "--format", "json")
        assert (code, err) == (0, "") and out.isascii()
        assert out == json.dumps(json.loads(out), indent=2, ensure_ascii=True) + "\n"
        assert {"café", 'quote"d', "back\\slash"} <= {e["name"] for e in json.loads(out)["entries"]}


class TestJsonRoundTrip:
    @pytest.mark.parametrize("entry", ["kummer2", "kummer3", "p2_mu3", "pn_trivial"])
    def test_diamond_json_reparses_bit_exactly(self, entry):
        code, out, _ = run_cli("diamond", entry, "--format", "json")
        assert code == 0
        name, diamond = diamond_from_obj(loads(out))
        assert dumps(diamond_to_obj(name, diamond)) + "\n" == out


class TestExplicitFileOfAGenerator:
    """P^2/(Z/2003) with weights (0,1,5) written out sector by sector: 6 007 sectors, 2 distinct coarse diamonds."""

    def test_explicit_file_matches_its_generator_and_its_diamond_file(self, tmp_path):
        generator = tmp_path / "gen2003.json"
        generator.write_text(json.dumps(_pquot_file(orders=[2003], weights=[[0, 1, 5]])))
        text = dumps(presentation_to_obj(presentation_from_obj(read_json(generator))))
        assert len(json.loads(text)["sectors"]) == 6007
        assert text == json.dumps(json.loads(text), indent=2, ensure_ascii=True)
        explicit = tmp_path / "explicit2003.json"
        explicit.write_text(text)
        code, diamond_json, err = run_cli("diamond", str(generator), "--format", "json")
        assert (code, err) == (0, "")
        assert run_cli("diamond", str(explicit), "--format", "json") == (0, diamond_json, "")
        # Its diamond file holds about 3 000 fractional entries.
        diamond_file = tmp_path / "diamond2003.json"
        diamond_file.write_text(diamond_json)
        code, out, err = run_cli("partners", str(explicit), str(diamond_file), "--format", "json")
        assert (code, err) == (0, "") and json.loads(out)["verdict"] == "CompatibleSoFar"


class TestInputs:
    def test_diamond_file_input_for_partners(self, tmp_path, k3_diamond):
        path = tmp_path / "k3.json"
        path.write_text(dumps(diamond_to_obj("k3", k3_diamond)))
        code, out, _ = run_cli("partners", "kummer2", str(path))
        assert code == 0 and "CompatibleSoFar" in out

    def test_orbifold_file_input(self, tmp_path, p2_mu3):
        path = tmp_path / "p2.json"
        path.write_text(dumps(presentation_to_obj(p2_mu3)))
        code, out, _ = run_cli("diamond", str(path), "--format", "json")
        assert code == 0 and json.loads(out)["name"] == "p2_mu3"

    def test_diamond_file_rejected_by_diamond_command(self, tmp_path, k3_diamond):
        path = tmp_path / "k3.json"
        path.write_text(dumps(diamond_to_obj("k3", k3_diamond)))
        code, _, err = run_cli("diamond", str(path))
        assert code == 2 and "orbifold" in err

    def test_generator_file_input(self, tmp_path):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"family": "kummer", "params": {"torus_dim_n": 2}}))
        code, out, _ = run_cli("diamond", str(path), "--format", "json")
        assert code == 0 and json.loads(out)["name"] == "kummer2"

    def test_huge_kummer_generator_is_refused_before_building(self, tmp_path):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps({"family": "kummer", "params": {"torus_dim_n": 3000}}))
        start = time.perf_counter()
        code, out, err = run_cli("diamond", str(path))
        assert time.perf_counter() - start < 1
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: GroupTooLargeError: torus dimension 3000 ")

    def test_huge_projective_generator_is_refused_before_building(self, tmp_path):
        path = tmp_path / "gen.json"
        path.write_text(json.dumps(_pquot_file(n=10**5, orders=[], weights=[])))
        start = time.perf_counter()
        code, out, err = run_cli("diamond", str(path), "--format", "csv")
        assert time.perf_counter() - start < 1
        assert code == 3 and out == ""
        assert err == ("error: GroupTooLargeError: projective dimension 100000 has 100001 coordinates, "
                       "which exceeds the limit 10000\n")

    def test_table_refuses_a_level_it_cannot_print(self, tmp_path):
        # P^2 plus 90 point sectors of distinct 50-digit prime orders: 8 649 cells, but a level of over 4 400 digits.
        primes, x = [], 10**49 + 1
        while len(primes) < 90:
            if all(pow(a, x - 1, x) == 1 for a in (2, 3, 5, 7)):
                primes.append(x)
            x += 2
        point = [{"p": 0, "q": 0, "h": 1}]
        path = tmp_path / "primes.json"
        path.write_text(json.dumps({"name": "primes", "dim": 2, "sectors": [
            {"order": 1, "exponents": [0, 0], "diamond": [{"p": i, "q": i, "h": 1} for i in range(3)]},
            *({"order": m, "exponents": [1, 1], "diamond": point} for m in primes),
        ]}))
        code, out, err = run_cli("diamond", str(path))
        assert code == 3 and out == "" and err.count("\n") == 1
        assert err.startswith("error: ValidationError: the level has more than ") and "--format json or csv" in err
        for fmt in ("json", "csv"):
            code, out, err = run_cli("diamond", str(path), "--format", fmt)
            assert code == 0 and err == "" and out.count("/") == 2 * 90  # p and q of each sector
        with pytest.raises(ValidationError, match="--format json or csv"):
            render_diamond("big", HodgeDiamond(0, {(0, 0): 1}, level=10**4301), "table")

    def test_empty_coarse_diamond_is_refused(self, tmp_path):
        # Without h^{0,0} the sectors of age 2/3 and 4/3 left no fractional grade for `check --gorenstein` to see.
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"name": "empty", "dim": 2, "sectors": [
            {"order": 1, "exponents": [0, 0], "diamond": [{"p": i, "q": i, "h": 1} for i in range(3)]},
            {"order": 3, "exponents": [1, 1], "diamond": []},
            {"order": 3, "exponents": [2, 2], "diamond": []},
        ]}))
        for command in ("check", "diamond"):
            code, out, err = run_cli(command, str(path))
            assert code == 3 and out == "" and err.count("\n") == 1
            assert err.startswith("error: ValidationError: coarse-space diamond must have h^{0,0} >= 1")

    def test_dense_formats_refuse_a_grid_over_budget(self, tmp_path):
        # P^3/(Z/9999) has 13 334 grades on each axis; JSON and CSV stay linear.
        path = tmp_path / "p3.json"
        path.write_text(json.dumps({"family": "projective_quotient", "params": {
            "proj_dim_n": 3, "cyclic_orders": [9999], "weights": [[0, 1, 2, 3]]}}))
        for fmt in ("table", "tex"):
            start = time.perf_counter()
            code, out, err = run_cli("diamond", str(path), "--format", fmt)
            assert time.perf_counter() - start < 5
            assert code == 3 and out == ""
            assert err.count("\n") == 1 and err.startswith("error: GroupTooLargeError: a dense grid of 177795556 cells")
            assert "--format json or csv" in err

    def test_trivial_action_on_a_huge_projective_space_builds_one_diamond(self, tmp_path):
        # Only P^9999, the largest within the budget, is a fixed component; no P^k below it is built.
        path = tmp_path / "p9999.json"
        path.write_text(json.dumps(_pquot_file(n=9_999, orders=[], weights=[])))
        code, out, err = run_cli("diamond", str(path), "--format", "csv")
        assert code == 0 and err == "" and len(out.splitlines()) == 10_001
        code, out, err = run_cli("diamond", str(path))
        assert code == 3 and out == "" and err.startswith("error: GroupTooLargeError: a dense grid of ")

    def test_user_catalog_dir(self, tmp_path, monkeypatch):
        entry = tmp_path / "myorb.json"
        entry.write_text(json.dumps({"family": "kummer", "params": {"torus_dim_n": 2}, "name": "myorb"}))
        monkeypatch.setenv("ORBIKIT_CATALOG_DIR", str(tmp_path))
        code, out, _ = run_cli("catalog")
        assert code == 0 and "myorb" in out
        code, out, _ = run_cli("diamond", "myorb", "--format", "json")
        assert code == 0 and json.loads(out)["name"] == "myorb"

    @pytest.mark.parametrize("directory", ["missing", "a" * 5000], ids=["missing", "name_too_long"])
    def test_a_catalog_dir_the_os_cannot_list_adds_no_entries(self, tmp_path, directory):
        # In a subprocess, so that an OSError reaching `main` would show as a standard-output failure.
        env = {**os.environ, "ORBIKIT_CATALOG_DIR": str(tmp_path / directory)}
        for golden, argv in [("catalog.txt", ["catalog"]), ("diamond_kummer2_table.txt", ["diamond", "kummer2"])]:
            proc = subprocess.run([sys.executable, "-m", "orbikit", *argv], capture_output=True, text=True, env=env,
                                  timeout=60)
            assert (proc.returncode, proc.stderr) == (0, "")
            assert proc.stdout == (GOLDEN_DIR / golden).read_text(encoding="utf-8")

    def test_catalog_entries_that_are_not_regular_files_are_refused_like_their_paths(self, tmp_path):
        # A FIFO blocks a reader and /dev/zero never ends: each call runs in a subprocess with a timeout
        # and an address-space limit, so that a regression fails here instead of hanging or swapping.
        if hasattr(os, "mkfifo"):
            os.mkfifo(tmp_path / "f.json")
        if os.path.exists("/dev/zero"):
            (tmp_path / "z.json").symlink_to("/dev/zero")
        names = sorted(path.stem for path in tmp_path.iterdir())
        if not names:
            pytest.skip("neither os.mkfifo nor /dev/zero")

        resource = pytest.importorskip("resource")

        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        def run(*argv):
            return subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=15,
                                  env={**os.environ, "ORBIKIT_CATALOG_DIR": str(tmp_path)},
                                  preexec_fn=limit_address_space)

        for name in names:
            message = f"{tmp_path / name}.json: not a regular file"
            for source in (name, f"{tmp_path / name}.json"):
                proc = run("-m", "orbikit", "diamond", source)
                assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: ParseError: {message}\n")
            proc = run("-c", f"from orbikit.catalog import *; load_catalog_presentation(catalog_entries()[{name!r}])")
            assert proc.returncode == 1 and proc.stderr.endswith(f"orbikit.errors.ParseError: {message}\n")
        proc = run("-m", "orbikit", "catalog", "--format", "json")
        kinds = {e["name"]: e["kind"] for e in json.loads(proc.stdout)["entries"]}
        assert proc.returncode == 0 and [kinds[name] for name in names] == ["file"] * len(names)

    def test_user_catalog_entry_replaces_a_builtin(self, tmp_path, monkeypatch):
        path = tmp_path / "kummer2.json"
        path.write_text(json.dumps({"family": "kummer", "params": {"torus_dim_n": 3}}))
        monkeypatch.setenv("ORBIKIT_CATALOG_DIR", str(tmp_path))
        code, out, _ = run_cli("catalog", "--format", "json")
        kinds = {e["name"]: e["kind"] for e in json.loads(out)["entries"]}
        assert code == 0 and kinds["kummer2"] == "file"
        assert load_catalog_presentation(catalog_entries()["kummer2"]) == build_kummer(3)
        code, out, err = run_cli("diamond", "kummer2")
        assert (code, out, err) == run_cli("diamond", str(path)) and code == 0
        assert out == run_cli("diamond", "kummer3")[1]

    def test_user_catalog_diamond_file_behaves_like_its_path(self, tmp_path, monkeypatch, k3_diamond):
        path = tmp_path / "k3d.json"
        path.write_text(dumps(diamond_to_obj("k3", k3_diamond)))
        monkeypatch.setenv("ORBIKIT_CATALOG_DIR", str(tmp_path))
        for source in ("k3d", str(path)):
            code, out, err = run_cli("partners", "kummer2", source)
            assert code == 0 and "CompatibleSoFar" in out and err == ""
            code, out, err = run_cli("diamond", source)
            assert (code, out) == (2, "")
            assert err == f"error: ParseError: {source}: expected an orbifold file, got a bare diamond file\n"

    def test_user_diamond_file_entry_is_a_file_for_the_library_too(self, tmp_path, monkeypatch, k3_diamond):
        (tmp_path / "k3d.json").write_text(dumps(diamond_to_obj("k3", k3_diamond)))
        (tmp_path / "myorb.json").write_text(json.dumps({"family": "kummer", "params": {"torus_dim_n": 2}}))
        monkeypatch.setenv("ORBIKIT_CATALOG_DIR", str(tmp_path))
        message = "k3d: expected an orbifold file, got a bare diamond file"
        with pytest.raises(ParseError) as info:
            load_catalog_presentation(catalog_entries()["k3d"])
        assert str(info.value) == message
        assert run_cli("diamond", "k3d") == (2, "", f"error: ParseError: {message}\n")
        assert load_catalog_presentation(catalog_entries()["myorb"]) == build_kummer(2)
        code, out, _ = run_cli("catalog", "--format", "json")
        kinds = {e["name"]: e["kind"] for e in json.loads(out)["entries"]}
        assert code == 0
        assert kinds == {"k3d": "file", "myorb": "file", "kummer2": "orbifold", "kummer3": "orbifold",
                         "p2_mu3": "orbifold", "pn_trivial": "orbifold", "quintic_columns": "columns"}
        code, _, err = run_cli("diamond", "quintic_columns")
        assert code == 2 and "not an orbifold" in err

    def test_partners_in_a_huge_dimension_is_bounded(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"name": "big", "dim": 10**12, "entries": [{"p": 0, "q": 0, "h": 1}]}))
        code, out, err = run_cli("partners", str(path), str(path))
        assert code == 0 and err == "" and "verdict: CompatibleSoFar" in out

    def test_huge_count_is_not_expanded(self, tmp_path):
        torus = [{"p": 0, "q": 0, "h": 1}, {"p": 2, "q": 0, "h": 1}, {"p": 0, "q": 2, "h": 1},
                 {"p": 1, "q": 1, "h": 4}, {"p": 2, "q": 2, "h": 1}]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"name": "huge", "dim": 2, "sectors": [
            {"order": 1, "exponents": [0, 0], "diamond": torus},
            {"order": 2, "exponents": [1, 1], "diamond": [{"p": 0, "q": 0, "h": 1}], "count": 10**9},
        ]}))
        code, out, err = run_cli("diamond", str(path), "--format", "json")
        assert code == 0 and err == ""
        assert {"p": 1, "q": 1, "h": 4 + 10**9} in json.loads(out)["entries"]

    def test_strict_flag(self):
        code, out, _ = run_cli("partners", "p2_mu3", "p2_mu3", "--strict-dim3")
        assert code == 0 and "strict: equal" in out


class TestParserBuiltOnce:
    """`main` reuses one parser per process; no call sees the options of an earlier one."""

    def test_the_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    @pytest.mark.parametrize(
        "earlier,later,golden",
        [
            (["check", "kummer2", "--serre"], ["check", "kummer2"], "check_kummer2.txt"),
            (["diamond", "kummer2", "--format", "csv"], ["diamond", "kummer2"], "diamond_kummer2_table.txt"),
            (["partners", "kummer2", "p2_mu3", "--strict-dim3"], ["partners", "kummer2", "kummer2"],
             "partners_kummer2_kummer2.txt"),
        ],
        ids=["check_flag", "diamond_format", "partners_flag"],
    )
    def test_options_do_not_carry_over(self, earlier, later, golden, monkeypatch):
        monkeypatch.delenv("ORBIKIT_CATALOG_DIR", raising=False)
        run_cli(*earlier)
        code, out, err = run_cli(*later)
        assert code == 0 and err == ""
        check_golden(golden, out)

    def test_a_usage_error_leaves_the_parser_working(self, monkeypatch, capsys):
        monkeypatch.delenv("ORBIKIT_CATALOG_DIR", raising=False)
        with pytest.raises(SystemExit) as exc:
            main(["diamond", "kummer2", "--format", "pdf"])
        assert exc.value.code == 2 and "invalid choice: 'pdf'" in capsys.readouterr().err
        code, out, err = run_cli("diamond", "kummer2")
        assert code == 0 and err == ""
        check_golden("diamond_kummer2_table.txt", out)


def test_quintic_fixture_entries():
    code, out, _ = run_cli(
        "reconstruct", "--dim", "3", "--columns", "3:1,2:0,1:101,0:4", "--h01", "0",
        "--format", "json",
    )
    assert code == 0
    entries = json.loads(out)["entries"]
    assert {"p": 1, "q": 1, "h": 1} in entries
    assert {"p": 2, "q": 1, "h": 101} in entries


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "orbikit", "check", "p2_mu3", "--gorenstein"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "gorenstein: PASS\n"


class _ClosedStdout(io.TextIOBase):
    """A standard output whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self._fd


class _FullStdout(_ClosedStdout):
    """A standard output on a full device: every write raises OSError(ENOSPC)."""

    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


class TestClosedStdout:
    @staticmethod
    def run_in_process(stdout_type, tmp_path, monkeypatch, argv=("diamond", "kummer2")):
        with open(tmp_path / "out", "wb") as target:
            monkeypatch.setattr(sys, "stdout", stdout_type(target.fileno()))
            err = io.StringIO()
            with redirect_stderr(err):
                code = main(list(argv))
        return code, err.getvalue()

    def test_broken_pipe_is_one_line_and_exit_two(self, tmp_path, monkeypatch):
        code, err = self.run_in_process(_ClosedStdout, tmp_path, monkeypatch)
        assert code == 2 and err == "error: BrokenPipeError: standard output closed early\n"

    def test_a_full_device_is_one_line_and_exit_two(self, tmp_path, monkeypatch):
        code, err = self.run_in_process(_FullStdout, tmp_path, monkeypatch)
        assert code == 2 and err == "error: OSError: standard output failed (No space left on device)\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_output_to_dev_full(self):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "orbikit", "diamond", "kummer2"], stdout=full,
                                  stderr=subprocess.PIPE, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.decode().splitlines() == ["error: OSError: standard output failed (No space left on device)"]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize("argv", [["--help"], ["diamond", "--help"]], ids=["top", "subcommand"])
    def test_help_to_dev_full(self, argv, unbuffered):
        # argparse drops an OSError of its own help write. Unbuffered, that write is the one that fails;
        # buffered, only a flush fails, which must come before the interpreter's own flush at exit.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "wb") as full:
            proc = subprocess.run([sys.executable, "-m", "orbikit", *argv], stdout=full, stderr=subprocess.PIPE,
                                  env=env, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.decode().splitlines() == ["error: OSError: standard output failed (No space left on device)"]

    @pytest.mark.parametrize("stdout_type, message", [
        (_ClosedStdout, "BrokenPipeError: standard output closed early"),
        (_FullStdout, "OSError: standard output failed (No space left on device)"),
    ], ids=["closed", "full"])
    def test_help_on_a_failing_stdout_in_process(self, stdout_type, message, tmp_path, monkeypatch):
        code, err = self.run_in_process(stdout_type, tmp_path, monkeypatch, argv=["partners", "--help"])
        assert code == 2 and err == f"error: {message}\n"

    def test_help_text_is_argparses_own(self, capsys):
        argparse.ArgumentParser.print_help(_build_parser())
        expected = capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0 and capsys.readouterr() == (expected, "")

    def test_pipe_closed_after_the_first_line(self, tmp_path):
        # About 220 KB of JSON, more than a pipe holds, so the writer must meet the closed end.
        path = tmp_path / "gen2003.json"
        path.write_text(json.dumps(_pquot_file(orders=[2003], weights=[[0, 1, 5]])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "orbikit", "diamond", str(path), "--format", "json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert err.splitlines() == ["error: BrokenPipeError: standard output closed early"]

    def test_stdout_and_stderr_on_one_closed_pipe(self, tmp_path):
        # `2>&1 | head -c 100`: the error line meets the same closed pipe, and the exit code stays 2.
        path = tmp_path / "gen2003.json"
        path.write_text(json.dumps(_pquot_file(orders=[2003], weights=[[0, 1, 5]])))
        proc = subprocess.Popen([sys.executable, "-m", "orbikit", "diamond", str(path), "--format", "json"],
                                stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        assert proc.wait(timeout=60) == 2

    @pytest.mark.parametrize("argv, code", [
        (["diamond", "no-such-entry"], 2),
        (["partners", "kummer2", "kummer3"], 4),
        (["reconstruct", "--dim", "4", "--columns", "0:2"], 5),
    ], ids=["parse", "mismatch", "unsupported"])
    def test_error_line_on_a_closed_pipe_keeps_the_exit_code(self, argv, code):
        # Standard error is a pipe with no reader left (e.g. `2>&1 | true`): the line is dropped, the code kept.
        proc = subprocess.Popen([sys.executable, "-m", "orbikit", *argv], stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT)
        proc.stdout.close()
        assert proc.wait(timeout=60) == code


class TestUnencodableOutput:
    """Text that standard output's encoding cannot write exits 2 with one line, not with a traceback."""

    @staticmethod
    def run(argv, **env):
        proc = subprocess.run([sys.executable, "-m", "orbikit", *argv], capture_output=True, env={**os.environ, **env},
                              timeout=60)
        return proc.returncode, proc.stdout, proc.stderr.decode("ascii").splitlines()

    def test_a_name_under_an_ascii_stdout(self, tmp_path):
        path = tmp_path / "cafe.json"
        path.write_text(json.dumps({"family": "kummer", "params": {"torus_dim_n": 2}, "name": "café"}), encoding="utf-8")
        code, out, err = self.run(["diamond", str(path)], PYTHONIOENCODING="ascii")
        assert (code, out) == (2, b"")
        assert err == ["error: UnicodeEncodeError: standard output cannot encode the output (ascii)"]

    def test_an_undecodable_catalog_file_name(self, tmp_path):
        try:
            (tmp_path / os.fsdecode(b"\xff.json")).write_text("{}")
        except (OSError, UnicodeError):
            pytest.skip("the file system refuses a file name that is not UTF-8")
        code, out, err = self.run(["catalog"], PYTHONIOENCODING="utf-8", ORBIKIT_CATALOG_DIR=str(tmp_path))
        assert code == 2 and out.decode("ascii").startswith("kummer2 ")
        assert err == ["error: UnicodeEncodeError: standard output cannot encode the output (utf-8)"]


class TestElementCoordinateBudget:
    def test_a_large_group_on_a_large_projective_space_is_refused_before_building(self, tmp_path):
        # Each budget alone admits Z/10000 and P^99; together they are 10^6 (element, coordinate) pairs.
        path = tmp_path / "p99.json"
        path.write_text(json.dumps(_pquot_file(n=99, orders=[10_000], weights=[list(range(100))])))
        start = time.perf_counter()
        code, out, err = run_cli("diamond", str(path), "--format", "csv")
        assert time.perf_counter() - start < 1
        assert (code, out) == (3, "")
        assert err == "error: GroupTooLargeError: group order 10000 times 100 coordinates exceeds the limit 40000\n"


def _point_sectors_file(orders):
    """P^2 plus one point sector of exponents (1, 1) for each order: ages 2/order, so the level is lcm(orders)."""
    return {"name": "points", "dim": 2, "sectors": [
        {"order": 1, "exponents": [0, 0], "diamond": [{"p": i, "q": i, "h": 1} for i in range(3)]},
        *({"order": m, "exponents": [1, 1], "diamond": [{"p": 0, "q": 0, "h": 1}]} for m in orders),
    ]}


class TestLatticeBudget:
    """Keys times the bits of their common denominator past 2^24 exit 3 with one line, before a key is built."""

    ORDERS_31_DIGITS = [10**30 + 2 * k + 1 for k in range(800)]

    def refused(self, *args):
        start = time.perf_counter()
        code, out, err = run_cli(*args)
        assert time.perf_counter() - start < 1
        assert (code, out, err.count("\n")) == (3, "", 1)
        assert err.startswith("error: GroupTooLargeError: ") and err.endswith(" exceeds the limit 16777216\n")
        return err

    def test_explicit_file_of_800_distinct_31_digit_orders(self, tmp_path):
        path = tmp_path / "points.json"
        path.write_text(json.dumps(_point_sectors_file(self.ORDERS_31_DIGITS)))
        assert " 803 grades times " in self.refused("diamond", str(path), "--format", "csv")

    def test_diamond_file_of_800_distinct_31_digit_denominators(self, tmp_path):
        path = tmp_path / "entries.json"
        entries = [{"p": f"1/{b}", "q": f"1/{b}", "h": 1} for b in self.ORDERS_31_DIGITS]
        path.write_text(json.dumps({"name": "entries", "dim": 1, "entries": entries}))
        assert " 800 grades times " in self.refused("partners", str(path), str(path))

    def test_explicit_file_of_250_orders_of_4200_digits(self, tmp_path):
        # lcm of all 250 orders alone would take seconds: it is taken one order at a time and stops at the limit.
        rng = random.Random(2003)
        path = tmp_path / "digits.json"
        path.write_text(json.dumps(_point_sectors_file([rng.getrandbits(14_000) | 1 << 13_999 | 1 for _ in range(250)])))
        assert len(str(json.loads(path.read_text())["sectors"][1]["order"])) == 4215  # under the 4 300-digit read limit
        assert " 253 grades times " in self.refused("diamond", str(path), "--format", "json")


class TestReconstructFlagRefusals:
    """Each refusal of a `reconstruct` flag, with its exit code and its one stderr line."""

    @pytest.mark.parametrize("columns,message", [
        ("2:1,x", "--columns: expected 'i:v', got 'x'"),
        ("a:b", "--columns: expected integers in 'a:b'"),
        ("0:1,0:2", "--columns: column 0 given twice with different values"),
    ])
    def test_malformed_columns_flag(self, columns, message):
        assert run_cli("reconstruct", "--dim", "2", "--columns", columns) == (2, "", f"error: ParseError: {message}\n")

    def test_an_empty_columns_part_is_skipped(self):
        # The golden's "2:1,1:0,0:22" names the same columns: a zero column is not stored.
        golden = (GOLDEN_DIR / "reconstruct_k3_table.txt").read_text(encoding="utf-8")
        assert run_cli("reconstruct", "--dim", "2", "--columns", "2:1,,0:22") == (0, golden, "")

    def test_negative_h01(self):
        got = run_cli("reconstruct", "--dim", "2", "--columns", "2:1,0:22", "--h01", "-1")
        assert got == (3, "", "error: ValidationError: h01 must be a nonnegative integer, got -1\n")
