"""Exact bookkeeping for rationally bigraded Hodge diamonds.

A diamond is a sparse map (p, q) -> h^{p,q} with positive integer values
and exact rational bidegrees 0 <= p, q <= n.  Fractional bidegrees occur
for orbifolds with non-Gorenstein quotient singularities, where twisted
sectors shift cohomology by a fractional age; p - q nevertheless stays an
integer because both coordinates shift by the same amount.  Assembly sums
the shifted grades as integers on the lattice (1/level)Z and exposes them
as exact `fractions.Fraction`s; no floating point appears anywhere in this
package.

Besides the diamond itself the module provides its two classical
symmetries (Serre duality and conjugation/Hodge symmetry), the diagonal
column sums that compute Hochschild homology dimensions, and the type of
the stringy E-polynomial.  It knows nothing of sectors: `inertia` sums
them into diamonds.
"""

from __future__ import annotations

import math
import re
from contextlib import suppress
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Tuple, Union

from .errors import ValidationError

#: Exact rational bidegree coordinate.
Grade = Fraction

#: Anything `as_grade` accepts: an int, a Fraction, or an "a/b" string.
GradeLike = Union[int, Fraction, str]

GradeKey = Tuple[Grade, Grade]

_GRADE_TEXT = re.compile(r"(-?\d+)(?:/(\d+))?", re.ASCII)


def is_int(value) -> bool:
    """True for an int that is not a bool, the integer check of every validator."""
    return isinstance(value, int) and not isinstance(value, bool)


def as_grade(value: GradeLike) -> Grade:
    """Coerce an int, Fraction or exact string to a grade; the only grade parser.

    A string must be "a" or "a/b" in lowest terms with b > 0, nothing else:
    no decimals, exponents, signs other than a leading "-", or whitespace.
    Floats are rejected: decimal notation cannot represent grades like 1/3
    exactly, and silently accepting floats would corrupt exactness.
    """
    if is_int(value):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str) and (match := _GRADE_TEXT.fullmatch(value)):
        with suppress(ValueError):  # digits past Python's int-to-string limit
            num, den = int(match[1]), int(match[2] or 1)
            if den > 0 and math.gcd(num, den) == 1:
                return Fraction(num, den)
    raise ValidationError(f"not an exact rational grade: {value!r} (use int, Fraction or 'a/b' in lowest terms)")


def format_grade(g: Grade) -> str:
    """Render a grade exactly: "2" for integers, "3/2" otherwise."""
    return str(g.numerator) if g.denominator == 1 else f"{g.numerator}/{g.denominator}"


def check_dim(dim_n) -> None:
    """Raise ValidationError unless `dim_n` is a nonnegative integer."""
    if not is_int(dim_n) or dim_n < 0:
        raise ValidationError(f"dimension must be a nonnegative integer, got {dim_n!r}")


def _format_key(key) -> str:
    return f"({format_grade(key[0])},{format_grade(key[1])})" if isinstance(key, tuple) else str(key)


class _SparseMap:
    """Sorted sparse map without zero values, the core of the diamond-like types.

    Subclasses validate their entries and pass them to `_SparseMap.__init__`,
    which drops zeros and sorts.  Equality and hashing see the class, `dim_n`
    (None for StringyPolynomial, which has no dimension) and the map;
    nothing else.  Instances are immutable, so the hash is computed once.
    """

    __slots__ = ("_dim_n", "_map", "_hash")

    def __init__(self, dim_n: int | None, cleaned: Mapping):
        self._dim_n = dim_n
        self._map = {k: v for k, v in sorted(cleaned.items()) if v}
        self._hash = None

    @property
    def dim_n(self) -> int | None:
        return self._dim_n

    @property
    def _view(self) -> Mapping:
        """Read-only view of the normalized map."""
        return MappingProxyType(self._map)

    def items(self):
        return self._map.items()

    def keys(self):
        return self._map.keys()

    def total(self) -> int:
        """The sum of all stored values."""
        return sum(self._map.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._dim_n == other._dim_n and self._map == other._map

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._dim_n, frozenset(self._map.items())))
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(f"{_format_key(k)}: {v}" for k, v in self._map.items())
        dim = "" if self._dim_n is None else f"dim_n={self._dim_n}, "
        return f"{type(self).__name__}({dim}{{{body}}})"


class HodgeDiamond(_SparseMap):
    """Sparse map of Hodge numbers of one space, possibly rationally graded.

    Invariants enforced at construction:

    * every stored dimension is a positive integer (zeros are dropped);
    * every key satisfies 0 <= p, q <= dim_n;
    * p - q is an integer for every key.

    `level` records the least common multiple of the automorphism orders
    the diamond was assembled from (1 for a plain variety); every grade
    denominator divides it.  Two diamonds are equal when their dimensions
    and normalized entry maps agree; `level` is derived data and ignored.
    Instances are immutable.
    """

    __slots__ = ("_level",)

    def __init__(
        self,
        dim_n: int,
        entries: Mapping[Tuple[GradeLike, GradeLike], int] | Iterable[tuple[Tuple[GradeLike, GradeLike], int]],
        level: int = 1,
    ):
        check_dim(dim_n)
        if not is_int(level) or level < 1:
            raise ValidationError(f"level must be a positive integer, got {level!r}")
        items = entries.items() if isinstance(entries, Mapping) else entries
        cleaned: dict[GradeKey, int] = {}
        for (p_raw, q_raw), h in items:
            if not is_int(h):
                raise ValidationError(f"dimension h^{{{p_raw},{q_raw}}} must be an integer, got {h!r}")
            if h < 0:
                raise ValidationError(f"negative dimension h^{{{p_raw},{q_raw}}} = {h}")
            p, q = as_grade(p_raw), as_grade(q_raw)
            # Integer forms of 0 <= p, q <= n and of p - q being an integer,
            # which for grades in lowest terms means one shared denominator b.
            b = p.denominator
            if not (0 <= p.numerator <= dim_n * b and 0 <= q.numerator <= dim_n * q.denominator):
                raise ValidationError(f"grade {_format_key((p, q))} outside [0, {dim_n}]")
            if q.denominator != b or (p.numerator - q.numerator) % b:
                raise ValidationError(f"p - q must be an integer; got {_format_key((p, q))}")
            cleaned[(p, q)] = cleaned.get((p, q), 0) + h
        super().__init__(dim_n, cleaned)
        self._level = math.lcm(level, *{p.denominator for p, _ in self._map})

    @property
    def level(self) -> int:
        return self._level

    entries = _SparseMap._view

    def entry(self, p: GradeLike, q: GradeLike) -> int:
        """h^{p,q}, with 0 for any absent key."""
        return self._map.get((as_grade(p), as_grade(q)), 0)

    def is_integer_graded(self) -> bool:
        """True when every stored bidegree is integral."""
        return all(p.denominator == 1 and q.denominator == 1 for p, q in self._map)

    @classmethod
    def projective_space(cls, n: int) -> "HodgeDiamond":
        """Diamond of P^n: h^{p,p} = 1 for 0 <= p <= n."""
        return cls(n, {(p, p): 1 for p in range(n + 1)})

    @classmethod
    def point(cls) -> "HodgeDiamond":
        return cls.projective_space(0)


class ColumnVector(_SparseMap):
    """Diagonal sums of a diamond: cols[i] = sum of h^{p,q} over p - q = i.

    These are the graded dimensions of Hochschild homology, the basic
    derived-equivalence invariant.  Zero columns are not stored; indexing
    an absent column yields 0.
    """

    __slots__ = ()

    def __init__(self, dim_n: int, cols: Mapping[int, int]):
        check_dim(dim_n)
        for i, v in cols.items():
            if not is_int(i):
                raise ValidationError(f"column index must be an integer, got {i!r}")
            if not (-dim_n <= i <= dim_n):
                raise ValidationError(f"column index {i} outside [-{dim_n}, {dim_n}]")
            if not is_int(v) or v < 0:
                raise ValidationError(f"column value at {i} must be a nonnegative integer, got {v!r}")
        super().__init__(dim_n, cols)

    cols = _SparseMap._view

    def __getitem__(self, i: int) -> int:
        return self._map.get(i, 0)


class StringyPolynomial(_SparseMap):
    """Signed generating polynomial sum of +-h^{p,q} u^p v^q with rational exponents.

    Coefficients may be negative; zero coefficients are not stored.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[Tuple[GradeLike, GradeLike], int]):
        cleaned: dict[GradeKey, int] = {}
        for (p_raw, q_raw), c in terms.items():
            if not is_int(c):
                raise ValidationError(f"coefficient at ({p_raw},{q_raw}) must be an integer, got {c!r}")
            cleaned[(as_grade(p_raw), as_grade(q_raw))] = c
        super().__init__(None, cleaned)

    terms = _SparseMap._view

    def coefficient(self, p: GradeLike, q: GradeLike) -> int:
        return self._map.get((as_grade(p), as_grade(q)), 0)


@dataclass(frozen=True)
class SymmetryReport:
    serre: bool
    hodge: bool


def serre_dual(d: HodgeDiamond) -> HodgeDiamond:
    """The diamond with entry (p, q) taken from (n-p, n-q) of the input."""
    n = d.dim_n
    return HodgeDiamond(n, {(n - p, n - q): h for (p, q), h in d.items()}, level=d.level)


def check_symmetries(d: HodgeDiamond) -> SymmetryReport:
    """Report whether Serre duality and conjugation symmetry hold.

    `serre` is true iff d equals its Serre dual; `hodge` iff
    h^{p,q} = h^{q,p} for all keys.  Both are reported rather than
    enforced so that raw, possibly non-Kaehler-style data can still be
    inspected.
    """
    n = d.dim_n
    # p and q of a key share their denominator b because p - q is an integer.
    ints = {(p.numerator, q.numerator, p.denominator): h for (p, q), h in d.items()}
    return SymmetryReport(
        serre=all(ints.get((n * b - a, n * b - c, b)) == h for (a, c, b), h in ints.items()),
        hodge=all(ints.get((c, a, b)) == h for (a, c, b), h in ints.items()),
    )


def columns(d: HodgeDiamond) -> ColumnVector:
    """Sum the diamond along diagonals p - q = i.

    Well-defined because p - q is an integer for every stored key.
    """
    cols: dict[int, int] = {}
    for (p, q), h in d.items():
        i = (p.numerator - q.numerator) // p.denominator
        cols[i] = cols.get(i, 0) + h
    return ColumnVector(d.dim_n, cols)
