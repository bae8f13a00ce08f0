"""Exact bookkeeping for rationally bigraded Hodge diamonds.

A diamond is a sparse map (p, q) -> h^{p,q} with positive integer values
and exact rational bidegrees 0 <= p, q <= n.  Fractional bidegrees occur
for orbifolds with non-Gorenstein quotient singularities, where twisted
sectors shift cohomology by a fractional age; p - q nevertheless stays an
integer because both coordinates shift by the same amount.  Grades are
stored as integer pairs on the lattice (1/unit)Z, unit the lcm of their
denominators, and exposed as exact `fractions.Fraction`s; no floating
point appears anywhere in this package.  The grade codec is `grades`, home
of `Grade`, `as_grade` and `format_grade`: this module loads it, and
`fractions` with it, only where a grade is parsed or leaves the lattice.

Besides the diamond itself the module provides its two classical
symmetries (Serre duality and conjugation/Hodge symmetry), the diagonal
column sums that compute Hochschild homology dimensions, and the type of
the stringy E-polynomial.  It knows nothing of sectors: `inertia` sums
them into diamonds.
"""

from __future__ import annotations

import math
import sys
from functools import partial
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Mapping, Tuple, Union

from .errors import GroupTooLargeError, ValidationError

#: Anything `as_grade` accepts: an int, a Fraction, or an "a/b" string.
GradeLike = Union[int, "Grade", str]

_LATTICE_BITS = 1 << 24  # the keys of one map times the bits of their unit or level: about 2 MB of coordinates
_int_max_str_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)  # 0: no limit, as before Python 3.10.7


def is_int(value) -> bool:
    """True for an int that is not a bool, the integer check of every validator."""
    return type(value) is int or (isinstance(value, int) and not isinstance(value, bool))


def check_dim(dim_n) -> None:
    """Raise ValidationError unless `dim_n` is a nonnegative integer."""
    if not is_int(dim_n) or dim_n < 0:
        raise ValidationError(f"dimension must be a nonnegative integer, got {dim_n!r}")


def check_printable(value: int, what: str, hint: str = "") -> None:
    """Raise ValidationError naming `what`, then `hint`, when `value` has more digits than `str` may print.

    The limit is read on each call, through `_int_max_str_digits`, bound once at import."""
    limit = _int_max_str_digits()
    # A value below 8^limit < 10^limit prints, so the exact test runs only near the limit.
    if limit and value.bit_length() > 3 * limit and abs(value) >= 10**limit:
        raise ValidationError(f"{what} has more than {limit} decimal digits, past the int-to-string limit{hint}")


def _bounded_lcm(values: Iterable[int], count_keys) -> int:
    """The lcm of the distinct `values`, one at a time; past a machine word, GroupTooLargeError as soon as
    `count_keys()` keys on (1/lcm)Z would pass `_LATTICE_BITS`, so no key on that lattice is built."""
    unit, keys = 1, 0
    for b in set(values):
        unit = math.lcm(unit, b)
        if unit >> 64 and (keys := keys or count_keys()) * (bits := unit.bit_length()) > _LATTICE_BITS:
            raise GroupTooLargeError(f"{keys} grades times {bits} bits of the denominator exceeds the limit {_LATTICE_BITS}")
    return unit


def _format_pair(pn: int, pd: int, qn: int, qd: int) -> str:
    """"(p,q)" for the grades p = pn/pd and q = qn/qd, pd and qd > 0, as `format_grade` writes them: no Fraction."""
    text = [str(n // g) if (g := math.gcd(n, d)) == d else f"{n // g}/{d // g}" for n, d in ((pn, pd), (qn, qd))]
    return f"({text[0]},{text[1]})"


class _SparseMap:
    """Sorted sparse map without zero values, the core of the diamond-like types.

    Subclasses validate their entries and pass them to `_SparseMap.__init__`,
    which drops zeros and sorts.  Equality and hashing see the class, `dim_n`
    (None for StringyPolynomial, which has no dimension), the map and its
    key `_unit` (1 unless the keys are lattice points); nothing else.  Instances are immutable.
    `check_printable` refuses a value that `str` may not print, so every stored value can be output.
    """

    __slots__ = ("_dim_n", "_unit", "_map")

    def __init__(self, dim_n: int | None, cleaned: Mapping, unit: int = 1):
        self._dim_n = dim_n
        self._unit = unit
        self._map = {k: v for k, v in sorted(cleaned.items()) if v}
        check_printable(max(map(abs, self._map.values()), default=0), "a value")

    @property
    def dim_n(self) -> int | None:
        return self._dim_n

    @property
    def _view(self) -> Mapping:
        """Read-only map of `items()`, built on access."""
        return MappingProxyType(dict(self.items()))

    def items(self):
        return self._map.items()

    def keys(self) -> list:
        return [key for key, _ in self.items()]

    def total(self) -> int:
        """The sum of all stored values."""
        return sum(self._map.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._dim_n == other._dim_n and self._unit == other._unit and self._map == other._map

    def __hash__(self) -> int:
        return hash((self._dim_n, self._unit, frozenset(self._map.items())))

    def __repr__(self) -> str:
        u = self._unit
        body = ", ".join(f"{_format_pair(k[0], u, k[1], u) if type(k) is tuple else k}: {v}"
                         for k, v in self._map.items())
        dim = "" if self._dim_n is None else f"dim_n={self._dim_n}, "
        return f"{type(self).__name__}({dim}{{{body}}})"


class _GradedMap(_SparseMap):
    """A sparse map keyed by bidegrees, stored as integer pairs on (1/unit)Z.

    The key (a, c) stands for (a/unit, c/unit).  `unit` is canonical by
    construction: the lcm of the stored grades' reduced denominators (1 when
    there are none), so equal maps have equal keys.  The public constructors
    store through the checks of `_store`, `inertia` through `_from_lattice`,
    unchecked.  Only `items` turns grades into `Fraction`s, one per distinct
    numerator; `keys`, `entries` and `terms` read it.  `lattice` hands the
    integers to the rest of the package, and `grade_text` writes them.
    """

    __slots__ = ()

    def _store(self, dim_n: int | None, pairs: Iterable, check=None) -> None:
        """Sum each (key, value) at its lowest-terms point, (a, c) on Z or (a, c, b); store on the lcm of the b.

        A pair of exact-int grades with an exact-int value, for a diamond (`dim_n` not None) in [0, dim_n] and >= 0,
        is its own point on Z after one type test per field.  Any other entry goes to `check(*key, value)`, by default
        the codec's `_check_entry` at `dim_n` (`_check_term` without one), imported at the first such entry; it
        raises its message or returns (a, c, b).  With every point on Z, no lcm is taken."""
        sums: dict[tuple[int, ...], int] = {}
        fractional = False
        for key, v in pairs:
            if not (type(key) is tuple and len(key) == 2 and type(x := key[0]) is int and type(y := key[1]) is int
                    and type(v) is int and (dim_n is None or 0 <= x <= dim_n and 0 <= y <= dim_n and v >= 0)):
                if check is None:
                    from .grades import _check_entry, _check_term
                    check = _check_term if dim_n is None else partial(_check_entry, dim_n)
                a, c, b = check(*key, v)
                key = (a, c) if b == 1 else (a, c, b)
                fractional |= b != 1
            sums[key] = sums.get(key, 0) + v
        unit = 1
        if fractional:
            points = {(key if len(key) == 3 else (*key, 1)): v for key, v in sums.items() if v}
            unit = _bounded_lcm((b for _, _, b in points), lambda: len(points))
            sums = {(a * (unit // b), c * (unit // b)): v for (a, c, b), v in points.items()}
        super().__init__(dim_n, sums, unit)

    @classmethod
    def _from_lattice(cls, dim_n: int | None, unit: int, acc: Mapping[tuple[int, int], int]):
        """`cls` storing a map on (1/unit)Z that `inertia` summed or `serre_dual` reflected, as given: nothing checked,
        no `level` set.

        Precondition, proved by `inertia.assemble_diamond` and kept by the reflection: keys lie in [0, dim_n * unit]^2
        with unit dividing a - c, unit is the lcm of the keys' reduced denominators, and values are positive sums of
        h times counts, signed by (-1)^{p-q} for stringy terms.
        """
        made = cls.__new__(cls)
        _SparseMap.__init__(made, dim_n, acc, unit)
        return made

    def lattice(self) -> tuple[int, Mapping[tuple[int, int], int]]:
        """(unit, read-only map (a, c) -> value): the stored keys as integers on (1/unit)Z."""
        return self._unit, MappingProxyType(self._map)

    def grade_text(self, coords: Iterable[int] | None = None, quote: str = "", whole=str) -> dict[int, object]:
        """`format_grade(Fraction(x, unit))` for each distinct stored coordinate x, or each of `coords`, by one gcd
        and no Fraction; a fractional grade is wrapped in `quote`, an integral one is `whole` of its integer."""
        unit, text = self._unit, {}
        for x in {x for key in self._map for x in key} if coords is None else coords:
            g = math.gcd(x, unit)
            text[x] = whole(x // g) if g == unit else f"{quote}{x // g}/{unit // g}{quote}"
        return text

    def items(self) -> list[tuple[tuple[Grade, Grade], int]]:
        """The stored (key, value) pairs in key order, each grade an exact Fraction, made once per coordinate."""
        from fractions import Fraction
        g = {x: Fraction(x, self._unit) for x in {x for key in self._map for x in key}}
        return [((g[a], g[c]), v) for (a, c), v in self._map.items()]

    def _get(self, p: GradeLike, q: GradeLike) -> int:
        """The value at (p, q); 0 for any key not stored, on the lattice or off it."""
        from .grades import _lattice_point
        a, c, b = _lattice_point(p, q)
        if self._unit % b:
            return 0
        scale = self._unit // b
        return self._map.get((a * scale, c * scale), 0)


class HodgeDiamond(_GradedMap):
    """Sparse map of Hodge numbers of one space, possibly rationally graded.

    Invariants enforced at construction:

    * every stored dimension is a positive integer (zeros are dropped);
    * every key satisfies 0 <= p, q <= dim_n;
    * p - q is an integer for every key.

    Grades are stored as integer pairs on (1/unit)Z, unit the lcm of their
    denominators, and exposed as exact `Fraction`s.  `level` records the
    least common multiple of the automorphism orders the diamond was
    assembled from (1 for a plain variety); every grade denominator divides
    it.  Two diamonds are equal when their dimensions and normalized entry
    maps agree; `level` is derived data and ignored.  Instances are
    immutable.
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
        self._store(dim_n, items)
        self._level = math.lcm(level, self._unit)

    @classmethod
    def _from_forms(cls, dim_n: int, forms: Iterable[tuple[tuple[int, int, int, int], int]]) -> "HodgeDiamond":
        """`cls(dim_n, entries)` from grades as lowest-terms integers (pn, pd, qn, qd): the same checks, no Fraction."""
        from .grades import _check_form
        check_dim(dim_n)
        made = cls.__new__(cls)
        made._store(dim_n, forms, partial(_check_form, dim_n))
        made._level = made._unit
        return made

    @property
    def level(self) -> int:
        return self._level

    entries = _SparseMap._view
    entry = _GradedMap._get

    def is_integer_graded(self) -> bool:
        """True when every stored bidegree is integral."""
        return self._unit == 1

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


class StringyPolynomial(_GradedMap):
    """Signed generating polynomial sum of +-h^{p,q} u^p v^q with rational exponents.

    Coefficients may be negative; terms at one grade are summed and zero
    coefficients are not stored.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping[Tuple[GradeLike, GradeLike], int]):
        self._store(None, terms.items())

    terms = _SparseMap._view
    coefficient = _GradedMap._get


_set = object.__setattr__  # how a record's `__init__` sets each field, once


class _Record:
    """Frozen `__slots__` record: equality, hashing, `repr` and pickling over its public slots, in order.

    They are the `__init__` parameters, so a copy or an unpickled record passes the checks again.
    A subclass may define its own `__repr__` or `__hash__`, or its own `__eq__` with its `__hash__`.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other) -> bool:
        return self._values(self) == other._values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self._fields)})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class SymmetryReport(_Record):
    __slots__ = ("serre", "hodge")

    def __init__(self, serre: bool, hodge: bool):
        _set(self, "serre", serre)
        _set(self, "hodge", hodge)


def serre_dual(d: HodgeDiamond) -> HodgeDiamond:
    """The diamond with entry (p, q) taken from (n-p, n-q) of the input, and its `level`, read off the lattice."""
    unit, m = d.lattice()
    top = d.dim_n * unit
    dual = HodgeDiamond._from_lattice(d.dim_n, unit, {(top - a, top - c): h for (a, c), h in m.items()})
    dual._level = d.level
    return dual


def check_symmetries(d: HodgeDiamond) -> SymmetryReport:
    """Report whether Serre duality and conjugation symmetry hold.

    `serre` is true iff d equals its Serre dual; `hodge` iff
    h^{p,q} = h^{q,p} for all keys.  Both are reported rather than
    enforced so that raw, possibly non-Kaehler-style data can still be
    inspected.
    """
    unit, m = d.lattice()
    top = d.dim_n * unit
    return SymmetryReport(
        serre=all(m.get((top - a, top - c)) == h for (a, c), h in m.items()),
        hodge=all(m.get((c, a)) == h for (a, c), h in m.items()),
    )


def _column_sums(d: HodgeDiamond) -> dict[int, int]:
    """{i: sum of h over the stored (a, c) with a - c = i * unit}: the columns, read off the lattice, unvalidated.

    p - q is an integer and grades lie in [0, n], so each index is an int in [-n, n] and each value a positive int."""
    (unit, m), cols = d.lattice(), {}
    for (a, c), h in m.items():
        i = (a - c) // unit
        cols[i] = cols.get(i, 0) + h
    return cols


def columns(d: HodgeDiamond) -> ColumnVector:
    """Sum the diamond along diagonals p - q = i: the validated `ColumnVector` of `_column_sums(d)`."""
    cols = _column_sums(d)  # before `d.dim_n`, so that a non-diamond fails at `lattice`
    return ColumnVector(d.dim_n, cols)
