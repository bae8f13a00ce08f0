"""Command-line interface: diamond, check, partners, reconstruct, catalog.

Exit codes (the error types' `exit_code`) are stable: 0 success/compatible,
1 a requested check failed or the inputs are incompatible/inconsistent, 2
parse error (including unknown catalog entries and unreadable or non-file
paths) or standard output closed early, failing or unable to encode, 3
validation error, 4 dimension mismatch, 5 unsupported dimension range.
Machine output is exact: integers and "a/b" strings, never floats.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from functools import cache

from .catalog import catalog_entries, document_from_obj, source_document
from .diamond import ColumnVector, HodgeDiamond, check_printable, check_symmetries, format_grade
from .errors import OrbikitError, ParseError
from .inertia import assemble_diamond, is_gorenstein
from .quotient import MAX_GROUP_ORDER, check_budget

PARTNER_NOTE = "note: necessary conditions only; this never certifies derived equivalence"


def _load_any_diamond(source: str) -> HodgeDiamond:
    """Orbifold sources are assembled; diamond files are taken as-is."""
    loaded = document_from_obj(source_document(source), source, diamond_files=True)
    return loaded[1] if isinstance(loaded, tuple) else assemble_diamond(loaded)


def _grid(d: HodgeDiamond, corner: str, pad: bool = False) -> list[list[str]]:
    """The dense text grid of `d`: `corner` and the p grades, then each q (top down) and its row.

    Both axes hold [0, n] and every stored grade.  Rows start as "0" cells and only the stored entries
    are written; `pad` right-aligns each column to the widest of its header and its stored values.
    More than `MAX_GROUP_ORDER` cells raise GroupTooLargeError before any is built.
    """
    unit, m = d.lattice()
    fractional = {x for key in m for x in key if x % unit}
    cells = (d.dim_n + 1 + len(fractional)) ** 2
    check_budget(cells, f"a dense grid of {cells} cells exceeds the limit {MAX_GROUP_ORDER}; use --format json or csv")
    axis = sorted(fractional.union(range(0, d.dim_n * unit + 1, unit)))
    text = d.grade_text(axis)
    at = {x: j for j, x in enumerate(axis, 1)}  # a grade's column, and its row counted from the bottom
    stored = [(at[c], at[a], str(h)) for (a, c), h in m.items()]
    head = [corner] + [text[a] for a in axis]
    widths = [max(map(len, head)), *map(len, head[1:])] if pad else [0] * len(head)  # column 0: the same grades
    for _, j, cell in stored if pad else ():
        widths[j] = max(widths[j], len(cell))
    zeros = ["0".rjust(w) for w in widths[1:]]
    rows = [[cell.rjust(w) for cell, w in zip(head, widths)]]
    rows += [[text[c].rjust(widths[0])] + zeros for c in reversed(axis)]
    for i, j, cell in stored:
        rows[-i][j] = cell.rjust(widths[j])
    return rows


def render_table(name: str, d: HodgeDiamond) -> str:
    check_printable(d.level, "the level", "; use --format json or csv")
    return "\n".join([f"{name}  (dim {d.dim_n}, level {d.level})", *map("  ".join, _grid(d, r"q\p", pad=True))])


def render_csv(d: HodgeDiamond) -> str:
    text = d.grade_text()
    return "\n".join(["p,q,h"] + [f"{text[a]},{text[c]},{h}" for (a, c), h in d.lattice()[1].items()])


def render_tex(d: HodgeDiamond) -> str:
    rows = _grid(d, r"q \backslash p")
    head, *body = ["$" + "$ & $".join(row) + r"$ \\" for row in rows]
    return "\n".join([rf"\begin{{tabular}}{{r|{'c' * (len(rows) - 1)}}}", head, r"\hline", *body, r"\end{tabular}"])


def render_json(name: str, d: HodgeDiamond) -> str:
    """`formats.dumps(formats.diamond_to_obj(name, d))` byte for byte, written entry by entry.

    No object is built, so this is 2-4x faster than `dumps` on a diamond (P^2/(Z/2003) to kummer3).
    """
    import json
    grade = d.grade_text(quote='"')
    entries = ",\n".join(
        f'    {{\n      "p": {grade[a]},\n      "q": {grade[c]},\n      "h": {h}\n    }}'
        for (a, c), h in d.lattice()[1].items()
    )
    body = f"[\n{entries}\n  ]" if entries else "[]"
    return f'{{\n  "name": {json.dumps(name)},\n  "dim": {d.dim_n},\n  "entries": {body}\n}}'


#: Diamond output formats, the first the default: each renders (name, diamond) as text.
RENDERERS = {
    "table": render_table,
    "json": render_json,
    "csv": lambda name, d: render_csv(d),
    "tex": lambda name, d: render_tex(d),
}


def render_diamond(name: str, d: HodgeDiamond, fmt: str) -> str:
    """`d` rendered in the format `fmt`; a KeyError for a name not in `RENDERERS`."""
    return RENDERERS[fmt](name, d)


def _format_index(index, grade, join=list):
    """A column index as is; a (p, q) index as its two grades through `grade`, then `join`."""
    return join(grade(Fraction(x)) for x in index) if isinstance(index, tuple) else index


def _mismatch_to_json(m) -> dict:
    """The fields of the `Mismatch` `m` in order, with the index in JSON form."""
    from .formats import grade_to_json
    return {"constraint": m.constraint, "index": _format_index(m.index, grade_to_json), "left": m.left, "right": m.right}


def render_partners(report, fmt: str) -> str:
    from .invariants import Verdict
    flags = {name: getattr(report, f"{name}_equal") for name in ("columns", "h01", "hn0", "hn10")}
    if fmt == "json":
        from .formats import dumps
        return dumps(
            {
                **{f"{name}_equal": ok for name, ok in flags.items()},
                "strict_equal": report.strict_equal,
                "verdict": report.verdict.value,
                "failures": [_mismatch_to_json(m) for m in report.failures],
                "informational": [_mismatch_to_json(m) for m in report.informational],
            }
        )
    lines = [f"{name}: {'equal' if ok else 'MISMATCH'}" for name, ok in flags.items()]
    if report.strict_equal is not None:
        lines.append(f"strict: {'equal' if report.strict_equal else 'MISMATCH'}")
    for head, found, tail in (("  ", report.failures, ""), ("info: ", report.informational, " (not verdict-affecting)")):
        for m in found:
            index = _format_index(m.index, format_grade, ",".join)
            lines.append(f"{head}{m.constraint}[{index}]: {m.left} vs {m.right}{tail}")
    lines.append(f"verdict: {report.verdict.value}")
    if report.verdict is Verdict.COMPATIBLE_SO_FAR:
        lines.append(PARTNER_NOTE)
    return "\n".join(lines)


def _parse_columns_flag(text: str, n: int) -> ColumnVector:
    given: dict[int, int] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        i_str, sep, v_str = part.partition(":")
        if not sep:
            raise ParseError(f"--columns: expected 'i:v', got {part!r}")
        try:
            i, v = int(i_str), int(v_str)
        except ValueError as exc:
            raise ParseError(f"--columns: expected integers in {part!r}") from exc
        if i in given and given[i] != v:
            raise ParseError(f"--columns: column {i} given twice with different values")
        given[i] = v
    # Given keys first, so a bad one is reported as typed; reconstruct_gorenstein rejects contradictions.
    return ColumnVector(n, {**given, **{-i: v for i, v in given.items() if -i not in given}})


def cmd_diamond(args) -> int:
    p = document_from_obj(source_document(args.input), args.input)
    d = assemble_diamond(p)
    print(render_diamond(p.name, d, args.format))
    return 0


def cmd_check(args) -> int:
    p = document_from_obj(source_document(args.input), args.input)
    symmetries = check_symmetries(assemble_diamond(p))
    results = {
        "serre": symmetries.serre,
        "hodge": symmetries.hodge,
        "gorenstein": is_gorenstein(p),
    }
    # Each name is also the flag that requests it; no flag requests all.
    requested = [name for name in results if getattr(args, name)] or list(results)
    for name in requested:
        print(f"{name}: {'PASS' if results[name] else 'FAIL'}")
    return 0 if all(results[name] for name in requested) else 1


def cmd_partners(args) -> int:
    from .invariants import Verdict, check_partners
    da = _load_any_diamond(args.a)
    db = _load_any_diamond(args.b)
    report = check_partners(da, db, strict_dim3=args.strict_dim3)
    print(render_partners(report, args.format))
    return 0 if report.verdict is Verdict.COMPATIBLE_SO_FAR else 1


def cmd_reconstruct(args) -> int:
    from .invariants import reconstruct_gorenstein
    cols = _parse_columns_flag(args.columns, args.dim)
    d = reconstruct_gorenstein(cols, h01=args.h01, n=args.dim)
    print(render_diamond("reconstruction", d, args.format))
    return 0


def cmd_catalog(args) -> int:
    entries = catalog_entries()
    if args.format == "json":
        from .formats import dumps
        print(dumps({"entries": [
            {"name": e.name, "kind": e.kind, "description": e.description}
            for e in sorted(entries.values(), key=lambda e: e.name)
        ]}))
        return 0
    width = max(len(name) for name in entries)
    for name in sorted(entries):
        e = entries[name]
        print(f"{name.ljust(width)}  {e.kind:<8}  {e.description}")
    return 0


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # argparse's own writer drops an OSError, so failed help text would exit 0
        print(self.format_help(), end="", file=file or sys.stdout, flush=True)


@cache  # built once per process: parsing keeps no state, each call gets a new Namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="orbikit",
        description="Exact orbifold Hodge diamonds and derived-equivalence invariant checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    d = sub.add_parser("diamond", help="assemble and print an orbifold Hodge diamond")
    d.add_argument("input", help="orbifold file path or catalog name")
    d.set_defaults(func=cmd_diamond)

    c = sub.add_parser("check", help="check symmetries and Gorenstein integrality")
    c.add_argument("input", help="orbifold file path or catalog name")
    c.add_argument("--serre", action="store_true", help="check Serre duality of the diamond")
    c.add_argument("--hodge", action="store_true", help="check conjugation symmetry of the diamond")
    c.add_argument("--gorenstein", action="store_true", help="check that all sector ages are integers")
    c.set_defaults(func=cmd_check)

    p = sub.add_parser("partners", help="compare derived-equivalence invariants of two inputs")
    p.add_argument("a", help="orbifold/diamond file path or catalog name")
    p.add_argument("b", help="orbifold/diamond file path or catalog name")
    p.add_argument("--strict-dim3", action="store_true", dest="strict_dim3",
                   help="require full equality when both sides are integer-graded of dimension <= 3")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_partners)

    r = sub.add_parser("reconstruct", help="rebuild an integer diamond (dim <= 3) from its column sums")
    r.add_argument("--dim", type=int, required=True)
    r.add_argument("--columns", required=True, help='e.g. "3:1,2:0,1:101,0:4"')
    r.add_argument("--h01", type=int, default=None, help="h^{0,1}; required for --dim 3")
    r.set_defaults(func=cmd_reconstruct)

    for diamond_output in (d, r):
        diamond_output.add_argument("--format", choices=list(RENDERERS), default=next(iter(RENDERERS)))

    cat = sub.add_parser("catalog", help="list built-in and user catalog entries")
    cat.add_argument("--format", choices=["text", "json"], default="text")
    cat.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except OrbikitError as exc:
        message, code = f"{type(exc).__name__}: {exc}", exc.exit_code
    except OSError as exc:
        # The reader left (e.g. `| head`) or the device is full.  Point stdout at devnull so that
        # the interpreter's flush at exit finds nothing left to fail on.
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        reason = "closed early" if isinstance(exc, BrokenPipeError) else f"failed ({exc.strerror})"
        message, code = f"{type(exc).__name__}: standard output {reason}", 2
    except UnicodeEncodeError:  # e.g. a non-ASCII name under an ASCII locale
        message, code = f"UnicodeEncodeError: standard output cannot encode the output ({sys.stdout.encoding})", 2
    try:
        print(f"error: {message}", file=sys.stderr)
    except OSError:  # standard error is a closed pipe too (e.g. `2>&1 | head`): drop the line, keep the code
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stderr.fileno())
    return code


if __name__ == "__main__":
    raise SystemExit(main())
