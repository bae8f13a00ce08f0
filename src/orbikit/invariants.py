"""Numeric constraints that derived equivalence imposes on orbifold diamonds.

Two orbifolds with equivalent derived categories must share:

* all diagonal column sums (Hochschild homology dimensions),
* h^{0,1} (the dimension of the Picard variety),
* h^{n,0} and h^{n-1,0} (twisted sectors have fixed loci of dimension
  at most n - 2 and cannot reach the |p - q| >= n - 1 diagonals).

These conditions are necessary, never sufficient; `check_partners` reports
them without ever certifying an equivalence.  Up to dimension three they fix a
Gorenstein diamond (`reconstruct_gorenstein`): given h^{0,0} and h^{0,1}, each
diagonal has one unknown symmetry orbit at most; in dimension four diagonal 0 has two.
"""

from __future__ import annotations

from enum import Enum
from typing import Mapping, Optional

from .diamond import (
    ColumnVector,
    HodgeDiamond,
    SymmetryReport,
    _column_sums,
    _format_pair,
    _Record,
    _set,
    check_dim,
    check_symmetries,
    columns,
    is_int,
)
from .errors import (
    DimensionMismatchError,
    InconsistentError,
    NonGorensteinOrbifoldError,
    ParityError,
    UnsupportedDimensionError,
    ValidationError,
)
from .inertia import OrbifoldPresentation


class Verdict(Enum):
    COMPATIBLE_SO_FAR = "CompatibleSoFar"
    INCOMPATIBLE = "Incompatible"


class Mismatch(_Record):
    """One failed comparison: which constraint, where, and the two values."""

    __slots__ = ("constraint", "index", "left", "right")

    def __init__(self, constraint: str, index: object, left: int, right: int):
        _set(self, "constraint", constraint)
        _set(self, "index", index)
        _set(self, "left", left)
        _set(self, "right", right)


def _holds(constraint: str) -> property:
    """A read-only flag of a PartnerReport: `failures` has no mismatch of `constraint`."""
    return property(lambda self: all(m.constraint != constraint for m in self.failures))


class PartnerReport(_Record):
    """Outcome of the necessary-condition comparison of two diamonds.

    `failures` holds every verdict-affecting mismatch (columns, h01, hn0,
    hn10, then strict entries); each flag holds when it has no mismatch of
    its constraint, and the verdict is INCOMPATIBLE exactly when it is
    non-empty.  `strict_equal` is None unless strict mode was applicable
    and requested (both diamonds integer-graded, dimension <= 3).
    `informational` lists h^{0,q} mismatches for 2 <= q <= n-1; these never
    affect the verdict since their invariance is not known in general.
    """

    __slots__ = ("failures", "informational", "strict_equal")

    def __init__(self, failures: tuple[Mismatch, ...] = (), informational: tuple[Mismatch, ...] = (),
                 strict_equal: Optional[bool] = None):
        _set(self, "failures", failures)
        _set(self, "informational", informational)
        _set(self, "strict_equal", strict_equal)

    columns_equal = _holds("columns")
    h01_equal = _holds("h01")
    hn0_equal = _holds("hn0")
    hn10_equal = _holds("hn10")

    @property
    def verdict(self) -> Verdict:
        return Verdict.INCOMPATIBLE if self.failures else Verdict.COMPATIBLE_SO_FAR


class McKayReport(_Record):
    __slots__ = ("differences",)

    def __init__(self, differences: tuple[Mismatch, ...] = ()):
        _set(self, "differences", differences)

    @property
    def equal(self) -> bool:
        return not self.differences


def check_partners(a: HodgeDiamond, b: HodgeDiamond, strict_dim3: bool = False) -> PartnerReport:
    """Compare the derived-invariant numbers of two diamonds.

    A CompatibleSoFar verdict means no proved invariant distinguishes the
    two; it never asserts derived equivalence.  With `strict_dim3`, both
    diamonds integer-graded and dimension <= 3, full entrywise equality is
    additionally required (in that range the invariants determine every
    Hodge number).  The constraints are the column sums, h^{0,1}, h^{n,0}
    and h^{n-1,0}; the h^{0,q} edge for 2 <= q < n is informational.
    """
    if a.dim_n != b.dim_n:
        raise DimensionMismatchError(f"dimensions differ: {a.dim_n} vs {b.dim_n}")
    check_dim(n := a.dim_n)  # refuses a StringyPolynomial (dim_n None), as a ColumnVector of its sums would
    failures = _differences("columns", _column_sums(a), _column_sums(b))
    (ua, ma), (ub, mb) = sides = a.lattice(), b.lattice()
    for constraint, (p, q) in (("h01", (0, 1)), ("hn0", (n, 0)), ("hn10", (n - 1, 0))):
        if (left := ma.get((p * ua, q * ua), 0)) != (right := mb.get((p * ub, q * ub), 0)):
            failures.append(Mismatch(constraint, (p, q), left, right))
    # Stored keys only, as in `_differences`: a loop over range(n) would not end for a huge n.
    # On the p = 0 edge q is an integer, since p - q is.
    edges = ({(0, c // unit): h for (x, c), h in m.items() if x == 0 and 2 * unit <= c < n * unit} for unit, m in sides)
    informational = tuple(_differences("h0q", *edges))

    strict_equal: Optional[bool] = None
    if strict_dim3 and n <= 3 and a.is_integer_graded() and b.is_integer_graded():
        diffs = _entry_differences(a, b)
        failures.extend(diffs)
        strict_equal = not diffs

    return PartnerReport(tuple(failures), informational, strict_equal)


def _differences(constraint: str, a: Mapping, b: Mapping) -> list[Mismatch]:
    """Mismatches over the stored keys of either map, in key order, absent keys holding 0: none for two equal
    maps, after one comparison and no walk over the keys."""
    if a == b:
        return []
    return [Mismatch(constraint, key, left, right) for key in sorted(a.keys() | b.keys())
            if (left := a.get(key, 0)) != (right := b.get(key, 0))]


def _entry_differences(a: HodgeDiamond, b: HodgeDiamond) -> list[Mismatch]:
    """`_differences` of the entries of two integer-graded diamonds, read on their lattices (unit 1)."""
    from fractions import Fraction
    return [Mismatch(m.constraint, (Fraction(m.index[0]), Fraction(m.index[1])), m.left, m.right)
            for m in _differences("entry", a.lattice()[1], b.lattice()[1])]


def extract_hn0(c: ColumnVector) -> int:
    """h^{n,0}_orb from the column vector alone.

    Twisted sectors live on fixed loci of dimension <= n - 2, so only the
    untwisted h^{n,0} reaches column n.
    """
    return c[c.dim_n]


def extract_hn10(c: ColumnVector) -> int:
    """h^{n-1,0}_orb from the column vector alone.

    Column n - 1 receives exactly h^{n-1,0} + h^{n,1}, and these agree by
    duality, so the column value is even and half of it is the answer.
    """
    v = c[c.dim_n - 1]
    if v % 2:
        raise ParityError(f"column {c.dim_n - 1} is odd ({v}); duality forces it to be even")
    return v // 2


def hochschild_via_sectors(p: OrbifoldPresentation) -> ColumnVector:
    """Hochschild homology dimensions computed sector by sector.

    Age shifts move entries along diagonals (p - q is unchanged), so the
    column vector of the assembled diamond equals the sum of the column
    vectors of the coarse sector diamonds.
    """
    # One [coarse diamond, total count] per shared diamond object.
    weighted: dict[int, list] = {}
    for c, count in p.sectors:
        weighted.setdefault(id(c.coarse_diamond), [c.coarse_diamond, 0])[1] += count
    total: dict[int, int] = {}
    for d, count in weighted.values():
        for i, v in _column_sums(d).items():
            total[i] = total.get(i, 0) + v * count
    return ColumnVector(p.dim_n, total)


def reconstruct_gorenstein(
    c: ColumnVector,
    h01: Optional[int] = None,
    n: Optional[int] = None,
) -> HodgeDiamond:
    """The unique integer diamond with the given columns, in dimension <= 3.

    Solves for the diamond with h^{0,0} = 1 satisfying conjugation
    symmetry h^{p,q} = h^{q,p}, Serre duality h^{p,q} = h^{n-p,n-q}, the
    given column sums, and h^{0,1} = h01.  The system is triangular:

        n = 3:  h^{3,0} = c_3,  h^{2,0} = c_2 / 2,  h^{1,0} = h01,
                h^{2,1} = c_1 - 2*h01,  h^{1,1} = (c_0 - 2) / 2
        n = 2:  h^{2,0} = c_2,  h^{1,0} = c_1 / 2,  h^{1,1} = c_0 - 2
        n = 1:  h^{1,0} = c_1,  with c_0 == 2 required
        n = 0:  c_0 == 1 required

    `h01` is needed only for n = 3 (columns alone cannot separate h^{1,0}
    from h^{2,1}); in lower dimension it is determined by the columns and,
    when supplied, verified.  Raises InconsistentError when any solved
    value is negative or fractional or a consistency equation fails, and
    UnsupportedDimensionError for n > 3.
    """
    if n is None:
        n = c.dim_n
    check_dim(n)
    if n != c.dim_n:
        raise InconsistentError(f"columns are for dimension {c.dim_n}, not {n}")
    if n > 3:
        raise UnsupportedDimensionError(f"closed-form reconstruction only exists for dimension <= 3, got {n}")
    if h01 is not None and (not is_int(h01) or h01 < 0):
        raise ValidationError(f"h01 must be a nonnegative integer, got {h01!r}")
    for i in range(1, n + 1):
        if c[i] != c[-i]:
            raise InconsistentError(f"columns {i} and {-i} differ ({c[i]} vs {c[-i]})")

    if n == 3 and h01 is None:
        raise InconsistentError("h01 is required to reconstruct a threefold diamond")
    if n == 0 and h01:
        raise InconsistentError(f"h01 given as {h01}, but a point has no h^{{1,0}}")

    # Hodge and Serre symmetry pair h^{p,p-i} with h^{n+i-p,n-p}, so diagonal i has one value per p in
    # [i, (n+i)/2], weighted 2 in column i, or 1 when 2p = n + i.  Given h^{0,0} = 1 and h^{1,0} = h01,
    # no diagonal has two unknowns up to n = 3; at n = 4 diagonal 0 has two, h^{1,1} and h^{2,2}.
    orbits = {(0, 0): 1, (1, 0): h01} if n and h01 is not None else {(0, 0): 1}  # one value per orbit
    for i in range(n + 1):
        rest, key, weight = c[i], None, 1
        for p in range(i, (n + i) // 2 + 1):
            w = 1 if 2 * p == n + i else 2
            if (p, p - i) in orbits:
                rest -= w * orbits[p, p - i]
            else:
                key, weight = (p, p - i), w
        if rest < 0 or rest % weight or (rest and key is None):
            why = f"not {weight} times a nonnegative h^{{{key[0]},{key[1]}}}" if key else "but no entry is unknown"
            raise InconsistentError(f"column {i} ({c[i]}) leaves {rest}, {why}" + ("" if h01 is None else f" (h01 = {h01})"))
        if key is not None:
            orbits[key] = rest // weight

    result = HodgeDiamond(n, {
        key: h
        for (p, q), h in orbits.items()
        for key in ((p, q), (q, p), (n - p, n - q), (n - q, n - p))
    })
    # Postconditions: the solve above is triangular, so a failure here is a bug, not bad input.
    assert columns(result) == c
    assert check_symmetries(result) == SymmetryReport(serre=True, hodge=True)
    return result


def mckay_compare(orb: HodgeDiamond, resolution: HodgeDiamond) -> McKayReport:
    """Compare an orbifold diamond with the diamond of a crepant resolution.

    When a crepant resolution exists the two coincide (cohomological McKay
    correspondence); that statement presumes the Gorenstein case, so a
    fractionally graded orbifold diamond is refused.
    """
    if orb.dim_n != resolution.dim_n:
        raise DimensionMismatchError(f"dimensions differ: {orb.dim_n} vs {resolution.dim_n}")
    if not orb.is_integer_graded():
        # p - q is an integer, so a key's p is fractional exactly when its q is.
        unit, m = orb.lattice()
        a, c = next(key for key in m if key[0] % unit)
        raise NonGorensteinOrbifoldError(
            f"orbifold diamond has fractional grade {_format_pair(a, unit, c, unit)}; "
            "the comparison needs Gorenstein singularities"
        )
    if not resolution.is_integer_graded():
        raise ValidationError("a resolution is smooth; its diamond must be integer graded")
    return McKayReport(tuple(_entry_differences(orb, resolution)))
