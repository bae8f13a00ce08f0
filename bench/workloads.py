"""The three workloads and the ROADMAP ladder they all contain.

Every case is a pipeline, timed as a whole, and a check against oracles
that do not use orbikit, run after the timed region.  `ok` is the orbikit
package as imported by the run; its submodules are reached through it.
"""

from __future__ import annotations

import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import oracles
import specs
from recorder import REFERENCE_PYTHON_STARTUP_NS, CaseFailure

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"

#: Largest table/tex grid (axis^2 cells) rendered.  render_table and
#: render_tex fill every cell of a dense grid, which does not finish in
#: minutes for P^3/(Z/9999); larger diamonds are counted as skipped.
CELL_BUDGET = 10_000

#: Hostile cases that fail on the seed.  They are probed once per run,
#: outside the workload's cases, and counted in `known_defects`.
KNOWN_DEFECTS = ("duplicate_keys", "non_utf8", "deep_nesting", "directory_path")

#: Subprocess calls of `python -m orbikit` in the ladder.
LADDER_CLI_CALLS = 20
#: Repeats of the files_cli subprocess set.
FILES_CLI_REPEATS = 3

# The golden CLI outputs of tests/golden/ and the arguments producing them.
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


def golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


# -- expected values --------------------------------------------------------


@dataclass
class Expected:
    name: str
    n: int
    entries: dict
    euler: int  # E_st(1, 1), also the total of the diamond here
    sectors: int
    distinct: int
    gorenstein: bool

    @cached_property
    def axis(self) -> int:
        return oracles.grade_axis(self.entries, self.n)

    @property
    def dense_ok(self) -> bool:
        return self.axis**2 <= CELL_BUDGET


def expect_kummer(n: int, name: str | None = None) -> Expected:
    entries = oracles.kummer_diamond(n)
    return Expected(name or f"kummer{n}", n, entries, oracles.kummer_stringy_euler(n), 4**n + 1, 2, n % 2 == 0)


def expect_quotient(spec: specs.Spec) -> Expected:
    q = oracles.QuotientOracle(spec.n, spec.orders, spec.weights)
    return Expected(spec.name, spec.n, q.entries, q.group_order * (spec.n + 1), q.sectors, q.distinct_sectors, q.gorenstein)


def need(ok: bool, layer: str, message: str) -> None:
    if not ok:
        raise CaseFailure(layer, message)


def render_ok(exp: Expected, fmt: str, text: str) -> bool:
    """`render_diamond` output in `fmt` agrees with the oracle diamond."""
    if fmt == "json":
        doc = json.loads(text)
        return doc["dim"] == exp.n and oracles.entries_from_json(doc) == exp.entries
    if fmt == "csv":
        return oracles.entries_from_csv(text) == exp.entries
    return len(text.split("\n")) == exp.axis + (2 if fmt == "table" else 4)


def printed_ok(exp: Expected, fmt: str):
    """A check of CLI output: the rendering and the newline `print` adds."""
    return lambda out: out.endswith("\n") and render_ok(exp, fmt, out[:-1])


# -- diamond pipeline (ladder, kummer_repeated, pquot_distinct) -----------


def analyse(rec, ok, p, exp: Expected, partner) -> dict:
    """Assemble, compute every invariant and render: the steps after build."""
    d = rec.call("inertia.assemble_diamond", ok.assemble_diamond, p)
    out = {"d": d}
    out["gorenstein"] = rec.call("inertia.is_gorenstein", ok.is_gorenstein, p)
    out["stringy"] = rec.call("diamond.stringy_e", ok.stringy_e, p)
    out["hh"] = rec.call("invariants.hochschild_via_sectors", ok.hochschild_via_sectors, p)
    cols = out["cols"] = rec.call("diamond.columns", ok.columns, d)
    out["sym"] = rec.call("diamond.check_symmetries", ok.check_symmetries, d)
    out["partners"] = rec.call("invariants.check_partners", ok.check_partners, d, d if partner is None else partner[0])
    resolution = d
    if exp.gorenstein and exp.n <= 3:
        h01 = exp.entries.get((0, 1), 0)
        resolution = out["rebuilt"] = rec.call(
            "invariants.reconstruct_gorenstein", ok.reconstruct_gorenstein, cols, h01, exp.n
        )
    try:
        out["mckay"] = rec.call("invariants.mckay_compare", ok.mckay_compare, d, resolution)
    except ok.NonGorensteinOrbifoldError:
        out["mckay"] = None
    formats = ("json", "csv", "table", "tex") if exp.dense_ok else ("json", "csv")
    for fmt in formats:
        out[fmt] = rec.call(f"cli.render_{fmt}", ok.cli.render_diamond, exp.name, d, fmt)
    return out


def check_analysis(ok, out: dict, exp: Expected, partner) -> None:
    n = exp.n
    got = dict(out["d"].items())
    need(got == exp.entries, "inertia", f"{exp.name}: assembled diamond differs from the oracle")
    need(sum(got.values()) == exp.euler, "inertia", f"{exp.name}: total is not {exp.euler}")
    need(got.get((0, 0)) == 1 and got.get((n, n)) == 1, "inertia", f"{exp.name}: h00 or hnn is not 1")
    need(out["gorenstein"] == exp.gorenstein, "inertia", f"{exp.name}: is_gorenstein is {out['gorenstein']}")
    euler = sum(c for _, c in out["stringy"].items())
    need(euler == exp.euler, "diamond", f"{exp.name}: stringy Euler sum {euler}, expected {exp.euler}")
    cols = oracles.columns(exp.entries)
    need(dict(out["cols"].items()) == cols, "diamond", f"{exp.name}: columns differ from the oracle")
    need(dict(out["hh"].items()) == cols, "invariants", f"{exp.name}: hochschild_via_sectors differs from columns")
    sym = out["sym"]
    need(sym.serre and sym.hodge and oracles.symmetric(got, n), "diamond", f"{exp.name}: symmetry fails")
    partner_entries = exp.entries if partner is None else partner[1].entries
    verdict = out["partners"].verdict is ok.Verdict.COMPATIBLE_SO_FAR
    need(verdict == oracles.compatible(exp.entries, partner_entries, n), "invariants", f"{exp.name}: partner verdict")
    if "rebuilt" in out:
        need(dict(out["rebuilt"].items()) == got, "invariants", f"{exp.name}: reconstruction differs")
    mckay = out["mckay"]
    need((mckay is not None and mckay.equal) == exp.gorenstein, "invariants", f"{exp.name}: mckay_compare")
    for fmt in ("json", "csv", "table", "tex"):
        if fmt in out:
            need(render_ok(exp, fmt, out[fmt]), "cli", f"{exp.name}: {fmt} render")


def count_diamond(rec, exp: Expected) -> None:
    c = rec.counts
    c["quotient.sectors"] += exp.sectors
    c["quotient.distinct_sectors"] += exp.distinct
    c["diamond.entries"] += len(exp.entries)
    c["diamond.level"] = max(c["diamond.level"], math.lcm(*(k[0].denominator for k in exp.entries)))
    c["diamond.grade_axis"] = max(c["diamond.grade_axis"], exp.axis)
    if not exp.dense_ok:
        c["cli.dense_render_skipped"] += 2


def diamond_case(rec, ok, label, build, exp: Expected, partner=None, extra_check=None) -> None:
    """One presentation through build, assemble, invariants and render."""

    def pipeline(rec):
        return analyse(rec, ok, build(rec), exp, partner)

    def check(out):
        check_analysis(ok, out, exp, partner)
        if extra_check:
            extra_check(out)

    count_diamond(rec, exp)
    rec.run_case(label, pipeline, check, sectors=exp.sectors)


def kummer_build(ok, n):
    return lambda rec: rec.call("quotient.build_kummer", ok.build_kummer, n)


def quotient_build(ok, spec: specs.Spec):
    return lambda rec: rec.call(
        "quotient.build_projective_quotient",
        ok.build_projective_quotient,
        ok.ProjectiveQuotientSpec(spec.n, spec.orders, spec.weights),
        name=spec.name,
    )


# -- CLI helpers -------------------------------------------------------------


def cli_call(ok, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = ok.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_cli(label: str, result, code: int, stdout=None, stderr=None) -> None:
    got_code, out, err = result
    need(got_code == code, "cli", f"{label}: exit {got_code}, expected {code}: {err.strip()[:120]}")
    if code == 0 or (code == 1 and not err):
        need(err == "", "cli", f"{label}: unexpected stderr {err[:120]!r}")
    else:
        lines = err.rstrip("\n").split("\n")
        need(len(lines) == 1 and lines[0].startswith("error: "), "cli", f"{label}: not a one-line error: {err[:120]!r}")
    if stdout is not None:
        need(stdout(out), "cli", f"{label}: wrong output")
    if stderr is not None:
        need(stderr(err), "cli", f"{label}: misleading message {err.strip()[:120]!r}")


def cli_case(rec, ok, label, argv, code, stdout=None, stderr=None, sectors=0, replay=None, layer=None) -> None:
    rec.run_case(
        label,
        lambda rec: rec.call("cli.main", cli_call, ok, argv),
        lambda result: check_cli(label, result, code, stdout, stderr),
        sectors=sectors,
        replay=replay,
        layer=layer,
    )


def probe_known_defect(rec, ok, label, argv, code, stderr, layer) -> None:
    """Run a known-defect input once, untimed and not as a case of the
    workload, and record whether the defect still shows."""
    try:
        check_cli(label, cli_call(ok, argv), code, stderr=stderr)
    except Exception as exc:  # CaseFailure, or an exception escaping main
        message = str(exc) if isinstance(exc, CaseFailure) else f"{type(exc).__name__}: {exc}"
        rec.known_defects.append((label, layer, message.splitlines()[0][:200] if message else ""))
    else:
        rec.fixed_defects.append(label)


def subprocess_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("ORBIKIT_CATALOG_DIR", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


def subprocess_calls(rec, calls, cwd) -> list[float]:
    """Run `python -m orbikit` calls one at a time, each between two bare
    `python -c pass` calls.  `calls` holds (label, argv, stdout check).

    Returns each call's time at reference speed: its wall time times
    REFERENCE_PYTHON_STARTUP_NS / the mean of the pass calls around it.
    """
    env = subprocess_env()

    def run(args):
        start = time.perf_counter_ns()
        proc = subprocess.run(args, env=env, cwd=cwd, capture_output=True, timeout=150)
        return time.perf_counter_ns() - start, proc

    pass_args = [sys.executable, "-c", "pass"]
    before, _ = run(pass_args)
    rec.pass_ns.append(before)
    times = []
    for label, argv, stdout in calls:
        rec.start_case(slice_before=False)
        try:
            cli_ns, proc = run([sys.executable, "-m", "orbikit", *argv])
            after, _ = run(pass_args)
        except subprocess.TimeoutExpired as exc:
            rec.fail(label, "cli", f"timed out after {exc.timeout} s")
            continue
        rec.pass_ns.append(after)
        times.append(cli_ns * 2 * REFERENCE_PYTHON_STARTUP_NS / (before + after))
        rec.cli_ns.append(times[-1])
        before = after
        if proc.returncode != 0 or proc.stderr or not stdout(proc.stdout.decode("utf-8", "replace")):
            rec.fail(label, "cli", f"exit {proc.returncode}: {proc.stderr.decode('utf-8', 'replace')[-200:]}")
    return times


def reserialize(rec, F, text: str, dtext: str) -> tuple[str, str]:
    """Read an explicit file and a diamond file and write each back out."""
    p = rec.call("formats.presentation_from_obj", F.presentation_from_obj, rec.call("formats.loads", F.loads, text))
    again = rec.call("formats.dumps", F.dumps, rec.call("formats.presentation_to_obj", F.presentation_to_obj, p))
    name, d = rec.call("formats.diamond_from_obj", F.diamond_from_obj, rec.call("formats.loads", F.loads, dtext))
    dagain = rec.call("formats.dumps", F.dumps, F.diamond_to_obj(name, d))
    return again, dagain


# -- replays: the public steps of a CLI call, for the traced run ----------------


def replay_load(rec, ok, source: str):
    """What the CLI does to turn a source into a presentation or a diamond."""
    path = Path(source)
    if not path.is_file():
        return rec.call("catalog.load", load_catalog, ok, source), None
    obj = rec.call("formats.loads", ok.formats.loads, path.read_text(encoding="utf-8"))
    if "entries" in obj:
        return None, rec.call("formats.diamond_from_obj", ok.formats.diamond_from_obj, obj)[1]
    return rec.call("formats.presentation_from_obj", ok.formats.presentation_from_obj, obj), None


def load_catalog(ok, name: str):
    return ok.catalog.load_catalog_presentation(ok.catalog.catalog_entries()[name])


def replay_diamond(ok, source, fmt):
    def replay(rec, _):
        p, _ = replay_load(rec, ok, source)
        d = rec.call("inertia.assemble_diamond", ok.assemble_diamond, p)
        rec.call(f"cli.render_{fmt}", ok.cli.render_diamond, p.name, d, fmt)

    return replay


def replay_check(ok, source):
    def replay(rec, _):
        p, _ = replay_load(rec, ok, source)
        d = rec.call("inertia.assemble_diamond", ok.assemble_diamond, p)
        rec.call("diamond.check_symmetries", ok.check_symmetries, d)
        rec.call("inertia.is_gorenstein", ok.is_gorenstein, p)

    return replay


def replay_partners(ok, a, b):
    def replay(rec, _):
        sides = []
        for source in (a, b):
            p, d = replay_load(rec, ok, source)
            sides.append(d if p is None else rec.call("inertia.assemble_diamond", ok.assemble_diamond, p))
        if sides[0].dim_n == sides[1].dim_n:
            rec.call("invariants.check_partners", ok.check_partners, *sides)

    return replay


def replay_reconstruct(ok, n, cols, h01, fmt):
    def replay(rec, _):
        vector = ok.ColumnVector(n, cols)
        d = rec.call("invariants.reconstruct_gorenstein", ok.reconstruct_gorenstein, vector, h01, n)
        rec.call(f"cli.render_{fmt}", ok.cli.render_diamond, "reconstruction", d, fmt)

    return replay


# -- the ladder ----------------------------------------------------------------


class Ladder:
    """ROADMAP baseline rows: kummer2 (catalog), Kummer n=6, n=8, P^5/(Z/20)^2, P^3/(Z/9999)."""

    def __init__(self):
        self.kummer = {n: expect_kummer(n) for n in specs.LADDER_KUMMER}
        self.kummer2 = expect_kummer(2)
        self.quotients = [expect_quotient(s) for s in (specs.P5_Z20_SQ, specs.P3_Z9999)]

    def run(self, rec, ok, workdir: Path) -> None:
        k2 = self.kummer2
        goldens = {fmt: golden(f) for fmt, f in [("table", "diamond_kummer2_table.txt"), ("json", "diamond_kummer2.json"), ("tex", "diamond_kummer2.tex")]}

        def same_as_golden(out):
            for fmt, text in goldens.items():
                need(out[fmt] + "\n" == text, "cli", f"kummer2 {fmt} render differs from tests/golden")

        rows = [("kummer2", lambda rec: rec.call("catalog.load", load_catalog, ok, "kummer2"), k2, same_as_golden)]
        rows += [(f"kummer{n}", kummer_build(ok, n), exp, None) for n, exp in self.kummer.items()]
        rows += [(s.name, quotient_build(ok, s), exp, None) for s, exp in zip((specs.P5_Z20_SQ, specs.P3_Z9999), self.quotients)]
        for label, build, exp, extra in rows:
            diamond_case(rec, ok, f"ladder.{label}", build, exp, extra_check=extra)
            rec.ladder[label] = {"sectors": exp.sectors, "distinct": exp.distinct, "case_id": rec.case_id}
        self.round_trip(rec, ok)
        cli_case(
            rec, ok, "ladder.cli_main_kummer2", ["diamond", "kummer2"], 0,
            stdout=lambda out: out == goldens["table"], sectors=k2.sectors,
            replay=replay_diamond(ok, "kummer2", "table"),
        )
        # Six calls in twenty are the slower Kummer n=6.  The 90th
        # percentile of the call times then falls near the middle of them,
        # at the fourth of six, here and among the 30 calls of files_cli
        # (whose only slower call is one Kummer n=8), instead of in the
        # upper tail of either kind of call.
        kummer6 = workdir / "gen_kummer6.json"
        kummer6.write_text(json.dumps(generator_obj("kummer", {"torus_dim_n": 6}, "kummer6")), encoding="utf-8")
        exp6 = self.kummer[6]
        calls = [
            ("ladder.subprocess_kummer6", ["diamond", str(kummer6), "--format", "json"], printed_ok(exp6, "json"))
            if i % 10 in (1, 4, 7) else
            ("ladder.subprocess_kummer2", ["diamond", "kummer2"], lambda out: out == goldens["table"])
            for i in range(LADDER_CLI_CALLS)
        ]
        times = subprocess_calls(rec, calls, workdir)
        kummer2 = [t for t, (label, *_) in zip(times, calls) if label.endswith("kummer2")]
        rec.ladder["kummer2"]["cli_ns"] = statistics.median(kummer2)

    def round_trip(self, rec, ok) -> None:
        """kummer2 written and read back through formats, as orbifold file and diamond file."""
        F = ok.formats
        p = ok.build_kummer(2)
        d = ok.assemble_diamond(p)

        def pipeline(rec):
            text = rec.call("formats.dumps", F.dumps, rec.call("formats.presentation_to_obj", F.presentation_to_obj, p))
            dtext = rec.call("formats.dumps", F.dumps, F.diamond_to_obj("kummer2", d))
            return (text, dtext), reserialize(rec, F, text, dtext)

        def check(out):
            written, again = out
            need(written == again, "formats", "kummer2 re-serialization changed bytes")
            text, dtext = written
            need(oracles.entries_from_json(json.loads(dtext)) == self.kummer2.entries, "formats", "kummer2 diamond file")
            need(dtext + "\n" == golden("diamond_kummer2.json"), "formats", "kummer2 diamond file differs from golden")
            rec.counts["formats.bytes_written"] += 2 * (len(text) + len(dtext))
            rec.counts["formats.bytes_read"] += len(text) + len(dtext)

        rec.run_case("ladder.formats_round_trip", pipeline, check)


# -- kummer_repeated -----------------------------------------------------------


class KummerRepeated:
    def __init__(self, ok, seed: int, workdir: Path):
        self.rounds = specs.kummer_rounds(seed)

    def prepare(self) -> None:
        self.expected = {n: expect_kummer(n) for n in specs.KUMMER_ROUND}

    def fixed(self, rec, ok, workdir) -> None:
        pass

    def round(self, rec, ok, k: int) -> None:
        for n in self.rounds[k % len(self.rounds)]:
            diamond_case(rec, ok, f"kummer{n}", kummer_build(ok, n), self.expected[n])


# -- pquot_distinct -------------------------------------------------------------


class PquotDistinct:
    def __init__(self, ok, seed: int, workdir: Path):
        self.rounds = specs.pquot_rounds(seed)
        self.partners: dict[int, tuple] = {}

    def prepare(self) -> None:
        pass

    def fixed(self, rec, ok, workdir) -> None:
        pass

    def round(self, rec, ok, k: int) -> None:
        for spec in self.rounds[k % len(self.rounds)]:
            exp = expect_quotient(spec)
            diamond_case(rec, ok, spec.name, quotient_build(ok, spec), exp, self.partners.get(spec.n))
            # The next case of this dimension is compared with this one.
            self.partners[spec.n] = (ok.HodgeDiamond(exp.n, exp.entries), exp)


# -- files_cli -----------------------------------------------------------------


def generator_obj(family: str, params: dict, name: str) -> dict:
    return {"family": family, "params": params, "name": name}


def count_file_obj(n: int) -> dict:
    """Kummer n as two explicit sectors, the twisted one with "count": 4^n."""
    entries = oracles.kummer_diamond(n)
    entries[(Fraction(n, 2), Fraction(n, 2))] -= 4**n  # the 4^n points leave the torus
    untwisted = [{"p": int(p), "q": int(q), "h": h} for (p, q), h in entries.items() if h]
    return {
        "name": f"kummer{n}",
        "dim": n,
        "sectors": [
            {"order": 1, "exponents": [0] * n, "diamond": untwisted, "label": "untwisted"},
            {"order": 2, "exponents": [1] * n, "diamond": [{"p": 0, "q": 0, "h": 1}], "count": 4**n, "label": "2-torsion point"},
        ],
    }


def hostile_files(workdir: Path) -> list[tuple[str, list[str], int, str]]:
    """(name, argv, expected exit code, layer) of inputs the CLI must refuse cleanly."""
    h = workdir / "hostile"
    h.mkdir()
    k2 = {
        "name": "k2",
        "dim": 2,
        "sectors": [
            {"order": 1, "exponents": [0, 0], "diamond": [{"p": 0, "q": 0, "h": 1}, {"p": 1, "q": 1, "h": 4}, {"p": 2, "q": 0, "h": 1}, {"p": 0, "q": 2, "h": 1}, {"p": 2, "q": 2, "h": 1}]},
            {"order": 2, "exponents": [1, 1], "diamond": [{"p": 0, "q": 0, "h": 1}], "count": 16},
        ],
    }
    p3_line = [{"p": 0, "q": 0, "h": 1}, {"p": 1, "q": 1, "h": 1}]
    p3 = [{"p": k, "q": k, "h": 1} for k in range(4)]
    files = {
        "bad_json.json": '{"name": "k2", "dim": 2,',
        "unknown_field.json": json.dumps({**k2, "colour": "red"}),
        "float_grade.json": json.dumps({**k2, "sectors": [{**k2["sectors"][0], "diamond": [{"p": 0.0, "q": 0, "h": 1}]}]}),
        "pseudo_reflection.json": json.dumps({"name": "pr", "dim": 2, "sectors": [k2["sectors"][0], {"order": 2, "exponents": [0, 1], "diamond": [{"p": 0, "q": 0, "h": 1}, {"p": 1, "q": 1, "h": 1}]}]}),
        # The order-2 sector fixing a line in P^3/(Z/4), written with the
        # inverse's exponents l - a_k, as the 1-based convention would.
        "swapped_inverse.json": json.dumps({"name": "si", "dim": 3, "sectors": [{"order": 1, "exponents": [0, 0, 0], "diamond": p3}, {"order": 2, "exponents": [2, 1, 1], "diamond": p3_line}]}),
        "duplicate_keys.json": '{"name": "a", "name": "b", "dim": 2, "sectors": ' + json.dumps(k2["sectors"]) + "}",
        "deep_nesting.json": "[" * 100_000 + "]" * 100_000,
    }
    for name, text in files.items():
        (h / name).write_text(text, encoding="utf-8")
    (h / "non_utf8.json").write_bytes(b'{"name": "\xff\xfe", "dim": 2}')
    (h / "a_directory.json").mkdir()
    cases = [(Path(f).stem, ["diamond", str(h / f)], code, layer) for f, code, layer in [
        ("bad_json.json", 2, "formats"),
        ("unknown_field.json", 2, "formats"),
        ("float_grade.json", 2, "formats"),
        ("pseudo_reflection.json", 3, "inertia"),
        ("swapped_inverse.json", 3, "inertia"),
        ("duplicate_keys.json", 2, "formats"),
        ("non_utf8.json", 2, "cli"),
        ("deep_nesting.json", 2, "formats"),
    ]]
    cases.append(("directory_path", ["diamond", str(h / "a_directory.json")], 2, "cli"))
    cases.append(("unknown_entry", ["diamond", "no_such_entry"], 2, "cli"))
    cases.append(("reconstruct_dim4", ["reconstruct", "--dim", "4", "--columns", "0:6"], 5, "cli"))
    cases.append(("partners_dimension_mismatch", ["partners", "kummer2", "kummer3"], 4, "cli"))
    return cases


def run_hostile(rec, ok, hostile) -> None:
    """The hostile inputs as cases, except the known defects, which are probed."""
    for name, argv, code, layer in hostile:
        # A directory is a path, not an unknown catalog name.
        stderr = (lambda err: "unknown catalog entry" not in err) if name == "directory_path" else None
        if name in KNOWN_DEFECTS:
            probe_known_defect(rec, ok, f"hostile.{name}", argv, code, stderr, layer)
        else:
            cli_case(rec, ok, f"hostile.{name}", argv, code, stderr=stderr, layer=layer)


@dataclass
class Entry:
    """One presentation of the files_cli corpus and its three files."""

    name: str
    exp: Expected | None
    gen: str
    explicit: str
    diamond: str


class FilesCli:
    def __init__(self, ok, seed: int, workdir: Path):
        F = ok.formats
        self.ok = ok
        self.seed = seed
        corpus = specs.files_corpus(seed)
        self.entries: list[Entry] = []
        presentations = [(f"kummer{n}", "kummer", {"torus_dim_n": n}, lambda n=n: ok.build_kummer(n), n) for n in corpus["kummer"]]
        presentations += [
            (s.name, "projective_quotient", s.params(), lambda s=s: ok.build_projective_quotient(ok.ProjectiveQuotientSpec(s.n, s.orders, s.weights), name=s.name), s)
            for s in corpus["specs"]
        ]
        self.sources = {}
        for name, family, params, build, source in presentations:
            p = build()
            files = []
            for kind, obj in [
                ("gen", generator_obj(family, params, name)),
                ("exp", F.presentation_to_obj(p)),
                ("dia", F.diamond_to_obj(name, ok.assemble_diamond(p))),
            ]:
                path = workdir / f"{kind}_{name}.json"
                path.write_text(F.dumps(obj), encoding="utf-8")
                files.append(str(path))
            self.entries.append(Entry(name, None, *files))
            self.sources[name] = source
        self.count_files = []
        for n in corpus["count_kummer"]:
            path = workdir / f"cnt_kummer{n}.json"
            path.write_text(json.dumps(count_file_obj(n), indent=2), encoding="utf-8")
            self.count_files.append((n, str(path)))
        kummer8 = workdir / "gen_kummer8.json"
        kummer8.write_text(json.dumps(generator_obj("kummer", {"torus_dim_n": 8}, "kummer8")), encoding="utf-8")
        self.kummer8 = str(kummer8)
        self.hostile = hostile_files(workdir)

    def prepare(self) -> None:
        for e in self.entries:
            source = self.sources[e.name]
            e.exp = expect_kummer(source) if isinstance(source, int) else expect_quotient(source)
        self.cases = self.build_cases()
        self.order = specs.files_round_order(self.seed, len(self.cases))

    def build_cases(self) -> list:
        """Every case of one round, as (label, function running it)."""
        cases = []
        by_dim: dict[int, list[Entry]] = {}
        for e in self.entries:
            by_dim.setdefault(e.exp.n, []).append(e)
        for i, e in enumerate(self.entries):
            cases += self.entry_cases(e, by_dim, i)
        for n, path in self.count_files:
            cases.append((f"count.kummer{n}", self.count_case(n, path)))
        for name, argv in GOLDEN_CASES:
            cases.append((f"golden.{name}", self.golden_case(name, argv)))
        return cases

    def entry_cases(self, e: Entry, by_dim, i: int) -> list:
        exp, n = e.exp, e.exp.n
        out = []

        def diamond(source, fmt):
            def run(rec, ok):
                if fmt in ("table", "tex") and not exp.dense_ok:
                    rec.counts["cli.dense_render_skipped"] += 1
                    return
                cli_case(rec, ok, f"{e.name}.diamond.{fmt}", ["diamond", source, "--format", fmt], 0,
                         stdout=printed_ok(exp, fmt), sectors=exp.sectors,
                         replay=replay_diamond(ok, source, fmt))
                self.count_read(rec, source)
            return run

        out.append((f"{e.name}.gen.json", diamond(e.gen, "json")))
        for fmt in ("csv", "table", "tex"):
            out.append((f"{e.name}.explicit.{fmt}", diamond(e.explicit, fmt)))

        def check(rec, ok):
            code = 0 if exp.gorenstein else 1
            expected = f"serre: PASS\nhodge: PASS\ngorenstein: {'PASS' if exp.gorenstein else 'FAIL'}\n"
            cli_case(rec, ok, f"{e.name}.check", ["check", e.explicit], code, stdout=lambda text: text == expected,
                     sectors=exp.sectors, replay=replay_check(ok, e.explicit))
            self.count_read(rec, e.explicit)

        out.append((f"{e.name}.check", check))
        others = [o for o in by_dim[n] if o is not e]
        other_dim = next(o for o in self.entries[i + 1:] + self.entries[:i] if o.exp.n != n)
        pairs = [(e.explicit, e.diamond, exp), (e.gen, other_dim.diamond, None)]
        if others:
            pairs.append((e.explicit, others[0].diamond, others[0].exp))
        for a, b, b_exp in pairs:
            def partners(rec, ok, a=a, b=b, b_exp=b_exp):
                if b_exp is None:
                    code = 4
                else:
                    code = 0 if oracles.compatible(exp.entries, b_exp.entries, n) else 1
                verdict = {0: "CompatibleSoFar", 1: "Incompatible", 4: None}[code]
                cli_case(rec, ok, f"{e.name}.partners.{Path(b).stem}", ["partners", a, b, "--format", "json"], code,
                         stdout=lambda text: verdict is None or json.loads(text)["verdict"] == verdict,
                         sectors=exp.sectors, replay=replay_partners(ok, a, b))
            out.append((f"{e.name}.partners.{Path(b).stem}", partners))
        out.append((f"{e.name}.round_trip", self.round_trip_case(e)))
        if exp.gorenstein and n <= 3:
            out.append((f"{e.name}.reconstruct", self.reconstruct_case(e)))
        return out

    @staticmethod
    def count_read(rec, path: str) -> None:
        if Path(path).is_file():
            rec.counts["formats.bytes_read"] += os.path.getsize(path)

    def round_trip_case(self, e: Entry):
        def run(rec, ok):
            F = ok.formats
            texts = {kind: Path(path).read_text(encoding="utf-8") for kind, path in [("exp", e.explicit), ("dia", e.diamond)]}

            def pipeline(rec):
                return reserialize(rec, F, texts["exp"], texts["dia"])

            def check(out):
                need(out == (texts["exp"], texts["dia"]), "formats", f"{e.name}: re-serialization changed bytes")
                need(oracles.entries_from_json(json.loads(texts["dia"])) == e.exp.entries, "formats", f"{e.name}: diamond file")

            rec.counts["formats.bytes_read"] += sum(map(len, texts.values()))
            rec.counts["formats.bytes_written"] += sum(map(len, texts.values()))
            rec.run_case(f"{e.name}.round_trip", pipeline, check, sectors=e.exp.sectors)

        return run

    def reconstruct_case(self, e: Entry):
        exp = e.exp
        cols = oracles.columns(exp.entries)
        flag = ",".join(f"{i}:{v}" for i, v in sorted(cols.items()) if i >= 0)
        h01 = exp.entries.get((0, 1), 0)
        argv = ["reconstruct", "--dim", str(exp.n), "--columns", flag, "--h01", str(h01), "--format", "json"]

        def run(rec, ok):
            cli_case(rec, ok, f"{e.name}.reconstruct", argv, 0, stdout=printed_ok(exp, "json"),
                     replay=replay_reconstruct(ok, exp.n, cols, h01, "json"))

        return run

    def count_case(self, n: int, path: str):
        exp = expect_kummer(n)
        F = self.ok.formats
        # The canonical file of the generator's presentation: what the count
        # file must expand to.
        canonical = F.dumps(F.presentation_to_obj(self.ok.build_kummer(n)))

        def run(rec, ok):
            text = Path(path).read_text(encoding="utf-8")

            def pipeline(rec):
                p = rec.call("formats.presentation_from_obj", F.presentation_from_obj, rec.call("formats.loads", F.loads, text))
                d = rec.call("inertia.assemble_diamond", ok.assemble_diamond, p)
                expanded = rec.call("formats.dumps", F.dumps, rec.call("formats.presentation_to_obj", F.presentation_to_obj, p))
                return d, expanded

            def check(out):
                d, expanded = out
                need(dict(d.items()) == exp.entries, "formats", f"count file kummer{n}: diamond differs from the oracle")
                need(expanded == canonical, "formats", f"count file kummer{n}: expansion differs from the generator's file")

            rec.counts["formats.sectors_expanded"] += 4**n + 1
            rec.counts["formats.bytes_read"] += len(text)
            rec.run_case(f"count.kummer{n}", pipeline, check, sectors=exp.sectors)

        return run

    def golden_case(self, name: str, argv: list[str]):
        text = golden(name)

        def run(rec, ok):
            command = argv[0]
            replay = None
            if command == "diamond":
                fmt = argv[argv.index("--format") + 1] if "--format" in argv else "table"
                replay = replay_diamond(ok, argv[1], fmt)
            elif command == "check":
                replay = replay_check(ok, argv[1])
            elif command == "partners":
                replay = replay_partners(ok, argv[1], argv[2])
            cli_case(rec, ok, f"golden.{name}", argv, 0, stdout=lambda out: out == text, replay=replay)

        return run

    def fixed(self, rec, ok, workdir) -> None:
        run_hostile(rec, ok, self.hostile)
        goldens = {name: golden(name) for name in ("diamond_kummer2_table.txt", "check_p2_mu3_gorenstein.txt", "partners_kummer2_kummer2.txt")}
        calls = [
            (["diamond", "kummer2"], "diamond_kummer2_table.txt"),
            (["check", "p2_mu3", "--gorenstein"], "check_p2_mu3_gorenstein.txt"),
            (["partners", "kummer2", "kummer2"], "partners_kummer2_kummer2.txt"),
        ]
        exp8 = expect_kummer(8)
        calls = [
            (f"subprocess.{argv[0]}", argv, lambda out, name=name: out == goldens[name])
            for _ in range(FILES_CLI_REPEATS)
            for argv, name in calls
        ] + [("subprocess.kummer8", ["diamond", self.kummer8, "--format", "json"], printed_ok(exp8, "json"))]
        times = subprocess_calls(rec, calls, workdir)
        if len(times) == len(calls):
            rec.ladder["kummer8"]["cli_ns"] = times[-1]

    def round(self, rec, ok, k: int) -> None:
        for index in self.order[k % len(self.order)]:
            self.cases[index][1](rec, ok)


WORKLOADS = {
    "kummer_repeated": KummerRepeated,
    "pquot_distinct": PquotDistinct,
    "files_cli": FilesCli,
}
