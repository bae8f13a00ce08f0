"""Inertia sector data and assembly of orbifold Hodge diamonds.

An orbifold is presented here by the components of its inertia stack: one
untwisted sector (the space itself) plus one component per twisted sector.
Each component records the order l of its automorphism, the eigenvalue
exponents a_1..a_n of that automorphism on the ambient tangent space at a
generic point of the component, and the Hodge diamond of the component's
coarse space Z.  Exponents follow the 0-based convention

    eigenvalues = exp(2*pi*i*a_k / l),   0 <= a_k <= l - 1,

with zeros exactly along the directions tangent to the fixed locus, and

    age = (a_1 + ... + a_n) / l.

Convention note (important): some sources state the shift of a sector via
the inverse automorphism, as n' - (1/l) * sum(a_k) over 1-based exponents,
which swaps every sector with its inverse.  The 0-based formula above is
the standard Chen-Ruan age; it is pinned down operationally by two checks
in the test suite: assembled diamonds satisfy Serre duality, and the
Kummer surface assembles to the K3 diamond (h^{1,1} = 4 + 16 = 20).

The orbifold Hodge numbers are assembled once per presentation, which
keeps the diamond: every coarse entry h^{p',q'}(Z) is shifted to
(p' + age, q' + age) and the sectors are summed.  The stringy E-polynomial
is that diamond signed by (-1)^{p-q}.  The ages are all integers exactly
when the quotient singularities are Gorenstein; else grades are fractional.
"""

from __future__ import annotations

__all__ = [
    "stringy_e",
    "InertiaComponent",
    "OrbifoldPresentation",
    "assemble_diamond",
    "extract_h0q",
    "is_gorenstein",
]

import math

from .diamond import HodgeDiamond, StringyPolynomial, _bounded_lcm, _format_pair, _Record, _set, check_dim, is_int
from .errors import OutOfRangeError, PseudoReflectionError, ValidationError


class InertiaComponent(_Record):
    """One sector of the inertia decomposition.

    The one place that states the sector rules: a twisted sector has at
    least two nonzero exponents (no pseudo-reflections, codimension >= 2),
    the coarse diamond is integer graded of dimension equal to the number
    of zero exponents, and gcd(l, a_1, ..., a_n) = 1.  The a_k generate a
    subgroup of Z/l of order l / gcd(l, a_1, ..., a_n), so the last rule is
    faithfulness of the isotropy representation.  A single exponent coprime
    to l is sufficient but not necessary (e.g. exponents (2,2,3,3) at l = 6
    occur at isolated fixed points of diagonal actions on P^4).  A fixed
    component is never empty, so its coarse diamond has h^{0,0} >= 1.
    """

    __slots__ = ("order_l", "exponents", "coarse_diamond", "label")

    def __init__(self, order_l: int, exponents: tuple[int, ...], coarse_diamond: HodgeDiamond, label: str = ""):
        label = str(label)
        if not (type(order_l) is int or is_int(order_l)) or order_l < 1:  # as `_check_form`: `is_int` only past an exact int
            raise ValidationError(f"sector order must be a positive integer, got {order_l!r}")
        exps = tuple(exponents)
        for a in exps:
            if not (type(a) is int and 0 <= a < order_l):
                if not is_int(a):
                    raise ValidationError(f"exponents must be integers, got {a!r}")
                if not 0 <= a < order_l:  # an int subclass in range passes
                    raise ValidationError(f"exponent {a} outside [0, {order_l - 1}] for order {order_l}")
        # At order 1 the range check leaves only zeros, which pass the checks below.
        n_fixed = exps.count(0)
        if len(exps) - n_fixed == 1:
            named = f"sector {label!r}" if label else "sector"
            raise PseudoReflectionError(f"{named} with exponents {exps} fixes a codimension-one locus")
        if math.gcd(order_l, *exps) != 1:
            raise ValidationError(
                f"exponents {exps} do not realize an automorphism of order {order_l}"
            )
        if not isinstance(coarse_diamond, HodgeDiamond):
            raise ValidationError("coarse_diamond must be a HodgeDiamond")
        if coarse_diamond._unit != 1:  # the stored unit, dimension and map: no property or method call
            raise ValidationError("coarse-space diamond must have integer grades only")
        if coarse_diamond._dim_n != n_fixed:
            raise ValidationError(f"coarse space has dimension {coarse_diamond._dim_n} but the exponents fix {n_fixed} directions")
        if (0, 0) not in coarse_diamond._map:  # values are positive, grades integral
            raise ValidationError("coarse-space diamond must have h^{0,0} >= 1: a fixed component is never empty")
        _set_order_l(self, order_l)
        _set_exponents(self, exps)
        _set_coarse_diamond(self, coarse_diamond)
        _set_label(self, label)

    @property
    def is_untwisted(self) -> bool:
        return self.order_l == 1

    def age(self) -> Fraction:
        """Age (shift number) of the sector: sum of exponents over l."""
        from fractions import Fraction
        return Fraction(sum(self.exponents), self.order_l)

    def sort_key(self):
        """Canonical ordering key: (order, exponents, label)."""
        return (self.order_l, self.exponents, self.label)


# The slot descriptors' own setters: one call each, no attribute lookup by name as in `_set`.
_set_order_l, _set_exponents, _set_coarse_diamond, _set_label = (
    getattr(InertiaComponent, name).__set__ for name in InertiaComponent.__slots__
)


class OrbifoldPresentation(_Record):
    """Full inertia data of one orbifold: untwisted sector plus twisted components.

    `sectors` holds (component, count) pairs: `count` isomorphic copies of
    one component, stored once and never expanded.  The constructor takes
    components (count 1) or pairs, kept as given in input order; equality
    and hashing compare the merged multisets, merged on each call, and
    `assemble_diamond` keeps the diamond it computes on first use.  The untwisted
    counts add up to exactly one, and every exponent list has length `dim_n`.
    """

    __slots__ = ("dim_n", "sectors", "name", "_diamond")

    def __init__(self, dim_n: int, sectors: tuple[tuple[InertiaComponent, int], ...], name: str = ""):
        check_dim(dim_n)
        sectors = tuple(s if isinstance(s, tuple) and len(s) == 2 else (s, 1) for s in sectors)
        if not sectors:
            raise ValidationError("a presentation needs at least the untwisted sector")
        untwisted = 0
        for c, count in sectors:
            if not isinstance(c, InertiaComponent):
                raise ValidationError("components must be InertiaComponent instances")
            if not (type(count) is int or is_int(count)) or count < 1:
                raise ValidationError(f"sector count must be a positive integer, got {count!r}")
            if len(c.exponents) != dim_n:
                raise ValidationError(
                    f"component {c.label!r} has {len(c.exponents)} exponents, ambient dimension is {dim_n}"
                )
            if c.order_l == 1:
                untwisted += count
        if untwisted != 1:
            raise ValidationError(f"exactly one untwisted sector required, found {untwisted}")
        _set(self, "dim_n", dim_n)
        _set(self, "sectors", sectors)
        _set(self, "name", str(name))
        _set(self, "_diamond", None)

    @property
    def untwisted(self) -> InertiaComponent:
        return next(c for c, _ in self.sectors if c.is_untwisted)

    def _key(self) -> tuple:
        # Order and splitting of the pairs are presentation-irrelevant.
        merged: dict[InertiaComponent, int] = {}
        for c, count in self.sectors:
            merged[c] = merged.get(c, 0) + count
        return (self.dim_n, self.name, frozenset(merged.items()))

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrbifoldPresentation):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        total = sum(count for _, count in self.sectors)
        return f"OrbifoldPresentation(name={self.name!r}, dim_n={self.dim_n}, {total} components)"


def is_gorenstein(p: OrbifoldPresentation) -> bool:
    """True iff every sector age is an integer.

    Equivalent to all local groups acting through SL, and to the assembled
    diamond having integer grades only: each sector has h^{0,0} >= 1 (a rule
    of `InertiaComponent`), so its age shows as the grade (age, age).
    """
    return all(sum(c.exponents) % c.order_l == 0 for c, _ in p.sectors)


def assemble_diamond(p: OrbifoldPresentation) -> HodgeDiamond:
    """Orbifold Hodge diamond: coarse entries of all sectors, age-shifted.

    h^{p,q}_orb = sum over sectors Z of h^{p - a(Z), q - a(Z)}(Z), realized
    by adding each coarse entry (p', q') times the sector's count at
    (p' + a, q' + a).  The level of the result is the lcm of the sector
    orders.  A coarse diamond object shared by sectors is expanded once per
    distinct shift.  The sums are stored unchecked on (1/unit)Z, unit the
    lcm of the ages' reduced denominators: canonical, as every age is a
    stored grade (h^{0,0} >= 1).
    A presentation keeps its diamond: later calls return that one object.

    Raises OutOfRangeError if a shifted grade leaves [0, n], the one range
    check of assembled grades, made per sector in sector order.  Valid
    components never trigger this (the shift is strictly smaller than the
    codimension), so it signals inconsistent input, e.g. a sector swapped
    with its inverse by hand-edited exponents.
    """
    if (made := p._diamond) is not None:
        return made
    n = p.dim_n
    level = _bounded_lcm((c.order_l for c, _ in p.sectors), lambda: sum(len(c.coarse_diamond._map) for c, _ in p.sectors))
    top = n * level
    groups: dict[int, tuple[HodgeDiamond, dict[int, int]]] = {}  # id(coarse) -> (coarse, {shift: count})
    denominators, reduced = set(), False
    for c, count in p.sectors:
        l, age, coarse = c.order_l, sum(c.exponents), c.coarse_diamond
        if (g := math.gcd(l, age)) != 1:
            reduced = True
        denominators.add(l // g)  # the denominator of the age in lowest terms
        shift = age * (level // l)
        # A stored coordinate lies in [0, dim·unit]: only past this bound can an entry leave [0, top].
        if shift < 0 or shift + level * coarse._dim_n * coarse._unit > top:
            for (i, j), h in coarse.lattice()[1].items():
                kp, kq = i * level + shift, j * level + shift
                if not (0 <= kp <= top and 0 <= kq <= top):
                    raise OutOfRangeError(
                        f"sector {c.label!r} shifts ({i},{j}) to {_format_pair(kp, level, kq, level)} outside [0, {n}]"
                    )
        if (group := groups.get(id(coarse))) is None:
            groups[id(coarse)] = (coarse, {shift: count})
        else:
            group[1][shift] = group[1].get(shift, 0) + count
    unit = math.lcm(*denominators) if reduced else level
    scale = level // unit  # divides every shift, as the unit holds every age's denominator
    acc: dict[tuple[int, int], int] = {}
    for coarse, shifts in groups.values():
        shifts = [(s // scale, count) for s, count in shifts.items()]
        for (i, j), h in coarse.lattice()[1].items():
            i, j = i * unit, j * unit
            for s, count in shifts:
                key = (i + s, j + s)
                acc[key] = acc.get(key, 0) + h * count
    made = HodgeDiamond._from_lattice(n, unit, acc)
    made._level = level  # the lcm of the sector orders, a multiple of the unit
    _set(p, "_diamond", made)
    return made


def extract_h0q(p: OrbifoldPresentation, q: int) -> int:
    """h^{0,q}_orb, read off the untwisted sector.

    Twisted sectors shift by a strictly positive age and therefore never
    reach the p = 0 edge, so h^{0,q}_orb equals h^{0,q} of the untwisted
    coarse space (a birational invariant of it).
    """
    if not is_int(q) or not (0 <= q <= p.dim_n):
        raise ValidationError(f"q must be an integer in [0, {p.dim_n}], got {q!r}")
    return p.untwisted.coarse_diamond.entry(0, q)


def stringy_e(presentation: OrbifoldPresentation) -> StringyPolynomial:
    """Stringy E-polynomial of an orbifold presentation.

    Each sector with age a and coarse-space Hodge numbers h^{p',q'}
    contributes (-1)^{p'+q'} h^{p',q'} at (p'+a, q'+a), once per copy.
    Since p - q = p' - q' has the parity of p' + q', that sign is (-1)^{p-q}
    (an integer power even at fractional grades), so no two contributions
    to one key cancel: the result is the kept `assemble_diamond` of the
    presentation signed by (-1)^{p-q}, with no second walk over sectors.
    For Gorenstein quotient singularities it equals Batyrev's invariant.
    """
    unit, m = assemble_diamond(presentation).lattice()
    return StringyPolynomial._from_lattice(None, unit, {
        (a, c): -h if (a - c) // unit % 2 else h for (a, c), h in m.items()
    })
