"""Automated inertia presentations for two global-quotient families.

* Diagonal actions of finite abelian groups on projective space P^n.
  Sectors are enumerated per group element from the eigenspace
  decomposition of the homogeneous coordinates; for diagonal abelian
  actions the conjugation-invariants step of the global-quotient formula
  is trivial (conjugation is trivial and the action on each fixed
  component's cohomology preserves the hyperplane class), so sectors and
  ages can be listed mechanically.

* Kummer involutions: a complex torus of dimension n modulo negation.
  The untwisted sector carries the (-1)-invariant part of the torus
  cohomology and the twisted data is one order-2 point sector per
  2-torsion point, 2^{2n} in total, each of age n/2.

Anything outside these two families (non-abelian groups, non-diagonal
actions) must be entered as raw inertia data instead.  Generator request
documents are read here, so neither catalog names nor generator files load `formats`.
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
from functools import cache
from itertools import product

from .diamond import HodgeDiamond, _Record, _set, is_int
from .errors import DimensionTooSmallError, GroupTooLargeError, ParseError, ScalarActionError, ValidationError
from .inertia import InertiaComponent, OrbifoldPresentation

#: The one enumeration budget: the group order and the n + 1 coordinates of P^n, whose product
#: `build_projective_quotient` bounds by 4 times it; the (p, q) pairs of a Kummer torus diamond; the cells of a dense grid.
MAX_GROUP_ORDER = 10_000


def check_budget(size: int, message: str) -> None:
    """Raise GroupTooLargeError(message) when `size` exceeds `MAX_GROUP_ORDER`."""
    if size > MAX_GROUP_ORDER:
        raise GroupTooLargeError(message)


class ProjectiveQuotientSpec(_Record):
    """Diagonal action of G = Z/m_1 x ... x Z/m_k on P^n.

    Row j of `weights` lists the exponents of generator j acting on the
    n + 1 homogeneous coordinates; entries are reduced mod m_j.
    """

    __slots__ = ("proj_dim_n", "cyclic_orders", "weights")

    def __init__(self, proj_dim_n: int, cyclic_orders: tuple[int, ...], weights: tuple[tuple[int, ...], ...]):
        n = proj_dim_n
        if not is_int(n) or n < 1:
            raise ValidationError(f"projective dimension must be a positive integer, got {n!r}")
        orders = tuple(cyclic_orders)
        for m in orders:
            if not is_int(m) or m < 1:
                raise ValidationError(f"cyclic orders must be positive integers, got {m!r}")
        rows = tuple(tuple(row) for row in weights)
        if len(rows) != len(orders):
            raise ValidationError(
                f"{len(orders)} generators but {len(rows)} weight rows"
            )
        reduced = []
        for m, row in zip(orders, rows):
            if len(row) != n + 1:
                raise ValidationError(
                    f"weight row {row} has {len(row)} entries, expected {n + 1}"
                )
            for w in row:
                if not is_int(w):
                    raise ValidationError(f"weights must be integers, got {w!r}")
            reduced.append(tuple(w % m for w in row))
        _set(self, "proj_dim_n", n)
        _set(self, "cyclic_orders", orders)
        _set(self, "weights", tuple(reduced))

    @property
    def group_order(self) -> int:
        return math.prod(self.cyclic_orders)


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


def build_projective_quotient(spec: ProjectiveQuotientSpec, name: str | None = None) -> OrbifoldPresentation:
    """Inertia presentation of P^n by a diagonal abelian action.

    For every group element g the coordinates split into eigenspaces
    V_chi; each nonzero V_chi contributes the fixed component P(V_chi)
    with the diamond of projective space as coarse data.  Writing l for
    the order of g acting on P^n, the tangent exponents at P(V_chi) are
    the differences (chi' - chi) scaled to [0, l - 1], one per coordinate
    in the other eigenspaces, padded with dim V_chi - 1 zeros along the
    component.  The identity element contributes the untwisted P^n sector.
    The generator power rows are folded once into one eigenvalue row per
    element (a cyclic group's rows are its m power rows), so each element
    sorts its n + 1 eigenvalues once; their turns past the smallest, on
    Z/l, are doubled by one full turn, so each eigenspace's exponents are
    the next n turns less its own, already sorted.

    Raises ScalarActionError if a nonidentity element acts as a scalar
    (the action would not be effective on P^n).  If g fixes a hyperplane
    P(V_chi), that component's PseudoReflectionError names `g=(t) eig=chi`.
    GroupTooLargeError comes first when |G| or n + 1 exceeds `MAX_GROUP_ORDER`
    (10 000), or |G|·(n + 1) exceeds 40 000: no element is enumerated.
    """
    n = spec.proj_dim_n
    order = spec.group_order
    check_budget(order, f"group order {order} exceeds the limit {MAX_GROUP_ORDER}")
    check_budget(n + 1, f"projective dimension {n} has {n + 1} coordinates, which exceeds the limit {MAX_GROUP_ORDER}")
    if order * (n + 1) > 4 * MAX_GROUP_ORDER:  # every order the budget admits still acts on P^3
        raise GroupTooLargeError(f"group order {order} times {n + 1} coordinates exceeds the limit {4 * MAX_GROUP_ORDER}")
    big = math.lcm(1, *spec.cyclic_orders)
    # Per generator, one row per power k: the exponent of zeta_big by which g^k turns each coordinate.
    powers = [[[k * (big // m) * w % big for w in row] for k in range(m)] for m, row in zip(spec.cyclic_orders, spec.weights)]
    # One eigenvalue row per element, in `product` order: each further generator's rows folded into the first's.
    rows = powers[0] if powers else [[0] * (n + 1)]
    for steps in powers[1:]:
        rows = [[(a + b) % big for a, b in zip(r, s)] for r in rows for s in steps]
    # Every fixed component is a P^k, k <= n: one shared diamond per k, built on first use.
    projective = cache(HodgeDiamond.projective_space)

    components: list[tuple[InertiaComponent, int]] = []
    for t, row in zip(product(*(range(m) for m in spec.cyclic_orders)), rows):
        if not any(t):
            components.append((InertiaComponent(1, (0,) * n, projective(n), label="untwisted"), 1))
            continue
        eig = sorted(row)
        turns = [e - eig[0] for e in eig]  # each eigenvalue's turn past eig[0] on Z/big, sorted in [0, big)
        # Projective order l: least d with all pairwise eigenvalue differences killed mod the big order (1 for a scalar).
        g0 = math.gcd(big, *turns)
        if g0 == big:
            raise ScalarActionError(f"element with generator powers {t} acts as a scalar on P^{n}")
        l = big // g0
        if g0 != 1:
            turns = [d // g0 for d in turns]  # now on Z/l
        turns += [x + l for x in turns]  # doubled: the earlier eigenvalues once more, one full turn on
        prefix = f"g=({','.join(map(str, t))}) eig="
        for j, chi in enumerate(eig):
            if j and chi == eig[j - 1]:
                continue
            # Read off sorted: dim V_chi - 1 zeros, the later eigenvalues' turns, then the earlier ones' past a full turn.
            exponents = tuple([x - turns[j] for x in turns[j + 1:j + 1 + n]])
            components.append((InertiaComponent(l, exponents, projective(eig.count(chi) - 1), prefix + str(chi)), 1))
    if name is None:
        if spec.cyclic_orders:
            name = f"p{n}_" + "x".join(f"z{m}" for m in spec.cyclic_orders)
        else:
            name = f"p{n}_trivial"
    return OrbifoldPresentation(n, components, name=name)


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


#: Generator files' families: spec type (its `__init__` parameters are the "params") and builder.
GENERATORS = {
    "kummer": (KummerSpec, build_kummer),
    "projective_quotient": (ProjectiveQuotientSpec, build_projective_quotient),
}


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
    spec_type, build = GENERATORS[family]
    shapes = spec_type.__init__.__annotations__  # real types: this module does not postpone its annotations
    _require_keys(params, set(shapes), set(), "params")
    spec = spec_type(*(_from_json_shape(params[name], shape, f"params.{name}") for name, shape in shapes.items()))
    return build(spec, name=name)
