"""Built-in example catalog, extensible via the ORBIKIT_CATALOG_DIR directory, and the reader of CLI inputs.

A user entry NAME.json there is listed with kind "file" and read like its
path, so it may hold an orbifold file or a diamond file.  `read_json` reads any file strictly, and
`document_from_obj` picks each document's reader: `quotient` for a generator request, `formats` for an
explicit orbifold or diamond file.  So reading a catalog name loads neither `formats` nor `json`.
"""

from __future__ import annotations

import os
from collections import Counter
from pathlib import Path
from typing import Any

from .diamond import HodgeDiamond, _Record, _set
from .errors import ParseError
from .inertia import OrbifoldPresentation
from .quotient import _presentation_from_generator

#: Environment variable naming a directory of extra NAME.json catalog entries.
CATALOG_DIR_ENV = "ORBIKIT_CATALOG_DIR"


class CatalogEntry(_Record):
    __slots__ = ("name", "kind", "description", "payload")

    def __init__(self, name: str, kind: str, description: str, payload: dict | Path):
        _set(self, "name", name)
        _set(self, "kind", kind)  # "orbifold", "columns" or "file" (a user entry)
        _set(self, "description", description)
        _set(self, "payload", payload)  # the document itself, or the file of a "file" entry

    def __hash__(self) -> int:  # not the payload: a built-in entry's is its document, a dict
        return hash((self.name, self.kind, self.description))

    def document(self) -> Any:
        """The JSON document this entry loads as; a "columns" entry loads as none."""
        if self.kind == "file":  # a FIFO may block a reader and a device never end: refused like a path
            if os.path.exists(self.payload) and not os.path.isfile(self.payload):
                raise ParseError(f"{self.payload}: not a regular file")
            return read_json(self.payload)
        if self.kind != "orbifold":
            raise ParseError(f"catalog entry {self.name!r} is not an orbifold (kind: {self.kind})")
        return self.payload


BUILTINS: dict[str, CatalogEntry] = {
    "kummer2": CatalogEntry(
        "kummer2",
        "orbifold",
        "Kummer surface: abelian surface mod negation; assembles to the K3 diamond",
        {"family": "kummer", "params": {"torus_dim_n": 2}, "name": "kummer2"},
    ),
    "kummer3": CatalogEntry(
        "kummer3",
        "orbifold",
        "Kummer threefold: 3-torus mod negation; fractional (3/2,3/2) grading, non-Gorenstein",
        {"family": "kummer", "params": {"torus_dim_n": 3}, "name": "kummer3"},
    ),
    "p2_mu3": CatalogEntry(
        "p2_mu3",
        "orbifold",
        "P^2 mod Z/3 with weights (0,1,2); Gorenstein, matches its crepant resolution",
        {
            "family": "projective_quotient",
            "params": {"proj_dim_n": 2, "cyclic_orders": [3], "weights": [[0, 1, 2]]},
            "name": "p2_mu3",
        },
    ),
    "pn_trivial": CatalogEntry(
        "pn_trivial",
        "orbifold",
        "trivial group acting on P^2; identity case",
        {
            "family": "projective_quotient",
            "params": {"proj_dim_n": 2, "cyclic_orders": [], "weights": []},
            "name": "pn_trivial",
        },
    ),
    "quintic_columns": CatalogEntry(
        "quintic_columns",
        "columns",
        'quintic-threefold column sums; run: reconstruct --dim 3 --columns "3:1,2:0,1:101,0:4" --h01 0',
        {"dim": 3, "columns": "3:1,2:0,1:101,0:4", "h01": 0},
    ),
}


def catalog_entries() -> dict[str, CatalogEntry]:
    """Built-in entries plus any NAME.json files from ORBIKIT_CATALOG_DIR, if the OS lists it as a directory."""
    entries = dict(BUILTINS)
    directory = os.environ.get(CATALOG_DIR_ENV)
    if directory and os.path.isdir(directory):  # False, not OSError, for a name too long to look up
        for path in sorted(Path(directory).glob("*.json")):
            entries[path.stem] = CatalogEntry(path.stem, "file", f"user catalog entry ({path})", path)
    return entries


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise ParseError(f"invalid JSON: duplicate key {key!r}")
    return obj


def loads(text: str) -> Any:
    """Parse JSON text strictly: duplicate keys, overdeep nesting and overlong integers are ParseErrors."""
    import json
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise ParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("invalid JSON: nested too deeply") from None


def read_json(path: Path) -> Any:
    """`loads` of a UTF-8 file; other encodings and unreadable paths are ParseErrors."""
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    except OSError as exc:
        raise ParseError(f"{path}: cannot read ({exc.strerror})") from None
    return loads(text)


def source_document(source: str) -> Any:
    """The JSON document a file path or catalog name stands for; a regular file wins."""
    path = Path(source)
    try:
        is_file = path.is_file()
    except OSError as exc:  # e.g. a name too long for the file system
        raise ParseError(f"{source}: not a usable path ({exc.strerror})") from None
    if is_file:
        return read_json(path)
    entry = catalog_entries().get(source)
    if entry is None and path.exists():
        raise ParseError(f"{source}: not a regular file")
    if entry is None:
        raise ParseError(f"unknown catalog entry: {source}")
    return entry.document()


def document_from_obj(obj: Any, source: str, diamond_files: bool = False) -> OrbifoldPresentation | tuple[str, HodgeDiamond]:
    """The presentation an orbifold file object holds, read for `source`.

    An object with "entries" is a diamond file: a ParseError naming
    `source`, or with `diamond_files` the (name, diamond) pair it holds.
    """
    entries = isinstance(obj, dict) and "entries" in obj
    if entries and not diamond_files:
        raise ParseError(f"{source}: expected an orbifold file, got a bare diamond file")
    if not entries and isinstance(obj, dict) and "family" in obj:
        return _presentation_from_generator(obj)
    from .formats import diamond_from_obj, presentation_from_obj
    return diamond_from_obj(obj) if entries else presentation_from_obj(obj)


def load_catalog_presentation(entry: CatalogEntry) -> OrbifoldPresentation:
    """The presentation of a catalog entry, read as the CLI reads its name."""
    return document_from_obj(entry.document(), entry.name)
