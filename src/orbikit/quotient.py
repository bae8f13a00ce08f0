"""Automated inertia presentations for two global-quotient families.

* Diagonal actions of finite abelian groups on projective space P^n: the
  module `projective`, whose spec and builder are served here and imported
  on the family's first request, so a Kummer input never loads it.

* Kummer involutions: a complex torus of dimension n modulo negation.
  The untwisted sector carries the (-1)-invariant part of the torus
  cohomology and the twisted data is one order-2 point sector per
  2-torsion point, 2^{2n} in total, each of age n/2.

Anything outside these two families (non-abelian groups, non-diagonal
actions) must be entered as raw inertia data instead.  Generator request
documents are read here, so neither catalog names nor generator files load `formats`,
and with it the grade codec `grades`: no family reads a grade.
"""

__all__ = [
    "KummerSpec",
    "ProjectiveQuotientSpec",
    "build_kummer",
    "build_projective_quotient",
    "torus_invariant_diamond",
]

# No `from __future__ import annotations`: a generator request's "params" shapes are the spec `__init__` annotations.
import math
import sys

from .diamond import HodgeDiamond, _lazy_names, _Record, _set, is_int
from .errors import DimensionTooSmallError, GroupTooLargeError, ParseError, ValidationError
from .inertia import InertiaComponent, OrbifoldPresentation

#: The one enumeration budget: the group order and the n + 1 coordinates of P^n, whose product
#: `build_projective_quotient` bounds by 4 times it; the (p, q) pairs of a Kummer torus diamond; the cells of a dense grid.
MAX_GROUP_ORDER = 10_000


def check_budget(size: int, message: str) -> None:
    """Raise GroupTooLargeError(message) when `size` exceeds `MAX_GROUP_ORDER`."""
    if size > MAX_GROUP_ORDER:
        raise GroupTooLargeError(message)


class KummerSpec(_Record):
    """A complex torus of dimension n >= 2 modulo the negation involution."""

    __slots__ = ("torus_dim_n",)

    def __init__(self, torus_dim_n: int):
        if not is_int(torus_dim_n) or torus_dim_n < 1:
            raise ValidationError(f"torus dimension must be a positive integer, got {torus_dim_n!r}")
        if torus_dim_n < 2:
            raise DimensionTooSmallError(
                "negation on a 1-torus fixes points in codimension one; need dimension >= 2"
            )
        _set(self, "torus_dim_n", torus_dim_n)


def torus_invariant_diamond(n: int) -> HodgeDiamond:
    """Negation-invariant Hodge numbers of an n-torus.

    Negation acts by (-1)^{p+q} on H^{p,q}, so the invariants are the
    binomial numbers C(n,p) C(n,q) at even p + q and zero at odd p + q:
    one row of n + 1 binomials, and q stepping by 2 from p % 2.
    """
    row = [math.comb(n, p) for p in range(n + 1)]
    return HodgeDiamond(n, {(p, q): row[p] * row[q] for p in range(n + 1) for q in range(p % 2, n + 1, 2)})


def build_kummer(spec: KummerSpec | int, name: str | None = None) -> OrbifoldPresentation:
    """Inertia presentation of an n-torus modulo negation, n >= 2.

    The 2^{2n} two-torsion points are the fixed locus of the involution;
    each gives an order-2 point sector with exponents (1, ..., 1) and age
    n/2, stored once with count 4^n.  Accepts either a KummerSpec or the
    dimension n directly.  Raises GroupTooLargeError, before building,
    when the (n + 1)^2 pairs (p, q) exceed `MAX_GROUP_ORDER`.
    """
    if isinstance(spec, int):
        spec = KummerSpec(spec)
    n = spec.torus_dim_n
    pairs = (n + 1) ** 2
    check_budget(pairs, f"torus dimension {n} has {pairs} Hodge pairs, which exceeds the limit {MAX_GROUP_ORDER}")
    components = [
        InertiaComponent(1, (0,) * n, torus_invariant_diamond(n), label="untwisted"),
        (InertiaComponent(2, (1,) * n, HodgeDiamond.point(), label="2-torsion point"), 4**n),
    ]
    return OrbifoldPresentation(n, components, name=name if name is not None else f"kummer{n}")


#: Generator files' families: the names of the spec type (its `__init__` parameters are the "params") and of the
#: builder, read from this module, which loads a family defined elsewhere through `__getattr__` on first request.
GENERATORS = {
    "kummer": ("KummerSpec", "build_kummer"),
    "projective_quotient": ("ProjectiveQuotientSpec", "build_projective_quotient"),
}
__getattr__, __dir__ = _lazy_names(__name__, dict.fromkeys(GENERATORS["projective_quotient"], ".projective"))


def _require_int(value: object, where: str) -> int:
    if not is_int(value):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return value


def _require_str(value: object, where: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{where}: expected a string, got {value!r}")
    if not value.isascii() and any("\ud800" <= ch <= "\udfff" for ch in value):  # a JSON \u escape allows these
        raise ParseError(f"{where}: not UTF-8 text (a lone surrogate in {value!r})")
    return value


def _require_keys(obj: dict, required: set[str], optional: set[str], where: str):
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {type(obj).__name__}")
    keys = set(obj)
    missing = required - keys
    if missing:
        raise ParseError(f"{where}: missing field(s) {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise ParseError(f"{where}: unknown field(s) {sorted(unknown)}")


def _from_json_shape(value: object, shape: object, where: str) -> object:
    """`value` as a field of type `shape` (a generator spec field, a sector's exponents): an int, or a tuple."""
    if shape is int:
        return _require_int(value, where)
    item = shape.__args__[0]
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list of {'integers' if item is int else 'integer rows'}")
    return tuple([_require_int(v, where) if item is int else _from_json_shape(v, item, where) for v in value])


def _presentation_from_generator(obj: dict) -> OrbifoldPresentation:
    _require_keys(obj, {"family", "params"}, {"name"}, "generator file")
    family = _require_str(obj["family"], "family")
    params = obj["params"]
    name = _require_str(obj["name"], "name") if "name" in obj else None
    if family not in GENERATORS:
        raise ParseError(f"unknown generator family {family!r}")
    spec_type, build = (getattr(sys.modules[__name__], n) for n in GENERATORS[family])
    shapes = spec_type.__init__.__annotations__  # real types: this module does not postpone its annotations
    _require_keys(params, set(shapes), set(), "params")
    spec = spec_type(*(_from_json_shape(params[name], shape, f"params.{name}") for name, shape in shapes.items()))
    return build(spec, name=name)
