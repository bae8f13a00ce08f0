"""JSON file formats for orbifold presentations and bare diamonds.

Two document kinds, both a single top-level JSON object:

* orbifold file, either explicit inertia data::

      {"name": "...", "dim": 2,
       "sectors": [{"order": 2, "exponents": [1, 1],
                    "diamond": [{"p": 0, "q": 0, "h": 1}],
                    "count": 16, "label": "..."}, ...]}

  or a generator request, "params" holding the fields of its family's spec::

      {"family": "kummer", "params": {"torus_dim_n": 2}, "name": "..."}
      {"family": "projective_quotient",
       "params": {"proj_dim_n": 2, "cyclic_orders": [3], "weights": [[0, 1, 2]]}}

* diamond file::

      {"name": "...", "dim": 2, "entries": [{"p": 0, "q": 0, "h": 1}, ...]}

Grades are JSON integers or exact strings "a/b" in lowest terms, never
decimals; they are read and written through the grade codec `grades`,
whose `as_grade` is the one parser.  An int pair is read as it is,
and each distinct string is parsed once per entry list.  The optional sector
field "count" is the sector's multiplicity: it is kept, not expanded, as the
count of a (component, count) pair, and canonical output writes it back when
it is above 1.  A coarse diamond repeated across sectors is read once and
shared, as the count is; every sector is still checked in full.  The parser
is strict: unknown fields, duplicate keys, non-UTF-8 input or strings,
overdeep nesting and overlong integers are errors.  A field that fails a
plain type test goes to the helper that names it, so strictness, messages
and exit codes do not depend on the fast path.  Serialization is canonical
(sectors sorted by order, exponents, label, never merged; entries sorted by
p, q), so output re-parses and re-serializes to identical bytes.  This module
reads explicit orbifold and diamond files and writes canonical output; `quotient`
reads generator requests, and `catalog` reads JSON text and picks the reader.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _quote
from typing import Any, Callable

from .catalog import loads, read_json  # re-exported: the strict text reader lives in `catalog`
from .diamond import HodgeDiamond, _format_pair
from .errors import ParseError, ValidationError
from .grades import Grade, as_grade, format_grade, grade_form
from .inertia import InertiaComponent, OrbifoldPresentation
from .quotient import _from_json_shape, _presentation_from_generator, _require_int, _require_keys, _require_str

_EXPONENTS = tuple[int, ...]  # a sector's exponents as a `_from_json_shape` shape, built once, not per sector
_SECTOR_REQUIRED = {"order", "exponents", "diamond"}
_SECTOR_FIELDS = _SECTOR_REQUIRED | {"count", "label"}
_ENTRY_FIELDS = {"p", "q", "h"}


def grade_to_json(g: Grade) -> int | str:
    """A JSON integer for an integral grade, else its `format_grade` string."""
    return g.numerator if g.denominator == 1 else format_grade(g)


def grade_from_json(value: Any, where: str) -> Grade:
    """`as_grade` of a JSON value, failing with a ParseError that names `where`."""
    try:
        return as_grade(value)
    except ValidationError as exc:
        raise ParseError(f"{where}: {exc}") from None


def _grade(value: Any, memo: dict, where: Callable[[], str], k: int) -> tuple[int, int]:
    """A grade as (numerator, denominator) in lowest terms, each distinct string parsed once per `memo`."""
    if type(value) is str:
        if (form := memo.get(value)) is None:
            form = memo[value] = grade_form(value)
        if form is not None:
            return form
    g = grade_from_json(value, f"{where()}[{k}]")
    return g.numerator, g.denominator


def _entries_from_json(raw: Any, where: Callable[[], str]) -> tuple[tuple[tuple[int, int, int, int], int], ...]:
    """The checked entries in order, as integer forms ((p numerator, p denominator, q numerator, q denominator), h).

    Plain type tests pass every valid entry; `where()`, the list's name, is built only for a message.
    """
    if not isinstance(raw, list):
        raise ParseError(f"{where()}: expected a list of {{p, q, h}} objects")
    seen: dict[tuple[int, int, int, int], int] = {}  # integer forms of the keys: no Fraction is hashed
    memo: dict[str, tuple[int, int] | None] = {}  # each distinct grade string parsed once
    for k, item in enumerate(raw):
        if not (type(item) is dict and item.keys() == _ENTRY_FIELDS):
            _require_keys(item, _ENTRY_FIELDS, set(), f"{where()}[{k}]")
        p, q = item["p"], item["q"]
        if type(p) is int and type(q) is int:
            key = (p, 1, q, 1)
        else:
            key = (*_grade(p, memo, where, k), *_grade(q, memo, where, k))
        h = item["h"]
        if type(h) is not int:
            _require_int(h, f"{where()}[{k}]")
        if key in seen:
            raise ParseError(f"{where()}[{k}]: duplicate entry at {_format_pair(*key)}")
        seen[key] = h
    return tuple(seen.items())


def _entries_to_json(d: HodgeDiamond) -> list[dict]:
    grade = d.grade_text(whole=int)
    return [{"p": grade[a], "q": grade[c], "h": h} for (a, c), h in d.lattice()[1].items()]


def presentation_from_obj(obj: Any) -> OrbifoldPresentation:
    """Read an orbifold file object (inertia data or generator request)."""
    if not isinstance(obj, dict):
        raise ParseError(f"orbifold file: expected a top-level object, got {type(obj).__name__}")
    if "family" in obj:
        return _presentation_from_generator(obj)
    _require_keys(obj, {"name", "dim", "sectors"}, set(), "orbifold file")
    name = _require_str(obj["name"], "name")
    dim = _require_int(obj["dim"], "dim")
    raw_sectors = obj["sectors"]
    if not isinstance(raw_sectors, list):
        raise ParseError("sectors: expected a list")
    sectors: list[tuple[InertiaComponent, int]] = []
    coarse: dict[tuple, HodgeDiamond] = {}  # (coarse dim, integer forms of the entries): built once
    for k, sector in enumerate(raw_sectors):
        # Plain type tests pass every valid sector; a failed one calls the helper that names it, in field order.
        if not (type(sector) is dict and _SECTOR_REQUIRED <= sector.keys() <= _SECTOR_FIELDS):
            _require_keys(sector, _SECTOR_REQUIRED, _SECTOR_FIELDS - _SECTOR_REQUIRED, f"sectors[{k}]")
        order, exponents = sector["order"], sector["exponents"]
        if type(order) is not int:
            _require_int(order, f"sectors[{k}].order")
        if not (type(exponents) is list and all(type(a) is int for a in exponents)):
            exponents = _from_json_shape(exponents, _EXPONENTS, f"sectors[{k}].exponents")
        forms = _entries_from_json(sector["diamond"], lambda: f"sectors[{k}].diamond")
        count, label = sector.get("count", 1), sector.get("label", "")
        if (type(count) is not int or count < 1) and _require_int(count, f"sectors[{k}].count") < 1:
            raise ParseError(f"sectors[{k}].count: must be >= 1, got {count}")
        if not (type(label) is str and label.isascii()):
            _require_str(label, f"sectors[{k}].label")
        key = (exponents.count(0), forms)
        if key not in coarse:
            coarse[key] = HodgeDiamond._from_forms(*key)
        component = InertiaComponent(order, exponents, coarse[key], label=label)
        sectors.append((component, count))
    return OrbifoldPresentation(dim, sectors, name=name)


def presentation_to_obj(p: OrbifoldPresentation) -> dict:
    """Canonical orbifold file object: explicit sectors, canonically sorted.

    Sectors sharing one coarse diamond share one entry list in the returned object, encoded once.
    """
    sectors = []
    encoded: dict[int, list[dict]] = {}  # id of a coarse diamond -> its entry list; p holds every one alive
    for c, count in sorted(p.sectors, key=lambda s: s[0].sort_key()):
        d = c.coarse_diamond
        if id(d) not in encoded:
            encoded[id(d)] = _entries_to_json(d)
        sector: dict = {"order": c.order_l, "exponents": list(c.exponents), "diamond": encoded[id(d)]}
        if count > 1:
            sector["count"] = count
        if c.label:
            sector["label"] = c.label
        sectors.append(sector)
    return {"name": p.name, "dim": p.dim_n, "sectors": sectors}


def diamond_from_obj(obj: Any) -> tuple[str, HodgeDiamond]:
    """Read a diamond file object; returns (name, diamond)."""
    _require_keys(obj, {"name", "dim", "entries"}, set(), "diamond file")
    name = _require_str(obj["name"], "name")
    dim = _require_int(obj["dim"], "dim")
    return name, HodgeDiamond._from_forms(dim, _entries_from_json(obj["entries"], lambda: "entries"))


def diamond_to_obj(name: str, d: HodgeDiamond) -> dict:
    return {"name": name, "dim": d.dim_n, "entries": _entries_to_json(d)}


def dumps(obj: dict) -> str:
    """Canonical JSON text: `json.dumps(obj, indent=2, ensure_ascii=True)` byte for byte, for string keys.  `indent`
    puts `json` on its pure-Python encoder, so the layout is written here, strings by its C encoder.  A list met again
    at the same depth (a shared coarse entry list) is written once, keyed by its `id`, which `obj` keeps alive."""
    written: dict[tuple[int, int], str] = {}

    def encode(value: Any, depth: int) -> str:
        if type(value) is int:
            return str(value)
        if type(value) is str:
            return _quote(value)
        indent = "\n" + "  " * depth
        if isinstance(value, dict):
            items = [f"{_quote(k)}: {encode(v, depth + 1)}" for k, v in value.items()]
            return f"{{{indent}  {f',{indent}  '.join(items)}{indent}}}" if items else "{}"
        if not isinstance(value, (list, tuple)):
            return json.dumps(value)  # bool, None and any other scalar, as `json` writes them
        if (id(value), depth) not in written:
            items = [encode(v, depth + 1) for v in value]
            written[id(value), depth] = f"[{indent}  {f',{indent}  '.join(items)}{indent}]" if items else "[]"
        return written[id(value), depth]

    return encode(obj, 0)
