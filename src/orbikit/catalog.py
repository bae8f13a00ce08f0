"""Built-in example catalog, extensible via the ORBIKIT_CATALOG_DIR directory."""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError
from .formats import presentation_from_obj, read_json
from .inertia import OrbifoldPresentation

#: Environment variable naming a directory of extra NAME.json catalog entries.
CATALOG_DIR_ENV = "ORBIKIT_CATALOG_DIR"


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    kind: str  # "orbifold" or "columns"
    description: str
    payload: dict


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


def catalog_entries(env: dict | None = None) -> dict[str, CatalogEntry]:
    """Built-in entries plus any NAME.json files from ORBIKIT_CATALOG_DIR."""
    if env is None:
        env = dict(os.environ)
    entries = dict(BUILTINS)
    directory = env.get(CATALOG_DIR_ENV)
    if directory:
        for path in sorted(Path(directory).glob("*.json")):
            name = path.stem
            entries[name] = CatalogEntry(
                name,
                "orbifold",
                f"user catalog entry ({path})",
                {"__path__": str(path)},
            )
    return entries


def load_catalog_presentation(entry: CatalogEntry) -> OrbifoldPresentation:
    if entry.kind != "orbifold":
        raise ParseError(f"catalog entry {entry.name!r} is not an orbifold (kind: {entry.kind})")
    payload = entry.payload
    if "__path__" in payload:
        return presentation_from_obj(read_json(Path(payload["__path__"])))
    return presentation_from_obj(payload)
