"""The grade codec: a grade is a `fractions.Fraction`, written "a" or "a/b" in lowest terms with b > 0, with no
leading zero and no "-0"; here it is parsed, written and checked as one entry's key.  `diamond`, which stores grades as
integers, imports it only for an entry that is not an exact-int pair and for `entry` and `coefficient`."""

import math
import re
from fractions import Fraction

from .diamond import GradeLike, _format_pair, is_int
from .errors import ValidationError

#: Exact rational bidegree coordinate.
Grade = Fraction

_GRADE_TEXT = re.compile(r"(0|-?[1-9]\d*)(?:/([1-9]\d*))?", re.ASCII)


def as_grade(value: GradeLike) -> Grade:
    """Coerce an int, Fraction or exact string to a grade; the only grade parser.

    A string must be "a" or "a/b" in lowest terms with b > 0, nothing else:
    no decimals, exponents, leading zeros, "-0", signs other than a leading "-",
    or whitespace.  Floats are rejected: decimal notation cannot represent grades
    like 1/3 exactly, and silently accepting floats would corrupt exactness.
    """
    if isinstance(value, str):  # first: the file readers' case
        if form := grade_form(value):
            return Fraction(*form)
    elif is_int(value):
        return Fraction(value)
    elif isinstance(value, Fraction):
        return value
    raise ValidationError(f"not an exact rational grade: {value!r} (use int, Fraction or 'a/b' in lowest terms)")


def grade_form(text: str) -> tuple[int, int] | None:
    """(a, b) for a grade string "a" or "a/b" in lowest terms with b > 0, else None: `as_grade`'s string case."""
    if match := _GRADE_TEXT.fullmatch(text):
        try:
            num, den = int(match[1]), int(match[2] or 1)
        except ValueError:  # digits past Python's int-to-string limit
            return None
        if math.gcd(num, den) == 1:
            return num, den
    return None


def format_grade(g: Grade) -> str:
    """Render a grade exactly: "2" for integers, "3/2" otherwise."""
    return str(g.numerator) if g.denominator == 1 else f"{g.numerator}/{g.denominator}"


def _lattice_point(x: GradeLike, y: GradeLike) -> tuple[int, int, int]:
    """(a, c, b) with (as_grade(x), as_grade(y)) = (a/b, c/b), b the lcm of the two denominators."""
    p, q = as_grade(x), as_grade(y)
    b = math.lcm(p.denominator, q.denominator)
    return p.numerator * (b // p.denominator), q.numerator * (b // q.denominator), b


def _check_entry(dim_n: int, x, y, h) -> tuple[int, int, int]:
    """The checks of one diamond entry h at the grade-likes (x, y), in order; returns its lattice point (a, c, b).

    h is a nonnegative int, 0 <= a, c <= dim_n * b, and b divides a - c (p - q is an integer).
    """
    if not is_int(h):
        raise ValidationError(f"dimension h^{{{x},{y}}} must be an integer, got {h!r}")
    if h < 0:
        raise ValidationError(f"negative dimension h^{{{x},{y}}} = {h}")
    a, c, b = _lattice_point(x, y)
    if not (0 <= a <= dim_n * b and 0 <= c <= dim_n * b):
        raise ValidationError(f"grade {_format_pair(a, b, c, b)} outside [0, {dim_n}]")
    if (a - c) % b:
        raise ValidationError(f"p - q must be an integer; got {_format_pair(a, b, c, b)}")
    return a, c, b


def _check_form(dim_n: int, pn: int, pd: int, qn: int, qd: int, h) -> tuple[int, int, int]:
    """`_check_entry` at the grades pn/pd and qn/qd in lowest terms, with its messages and no Fraction made."""
    b = pd if pd == qd else math.lcm(pd, qd)
    a, c = pn * (b // pd), qn * (b // qd)
    if type(h) is not int or h < 0 or not (0 <= a <= dim_n * b and 0 <= c <= dim_n * b) or (a - c) % b:
        _check_entry(dim_n, Fraction(pn, pd), Fraction(qn, qd), h)  # raises its message, or passes an int subclass
    return a, c, b


def _check_term(x, y, v) -> tuple[int, int, int]:
    """The check of one stringy term v at (x, y), as `_check_entry`: v is an int."""
    if not is_int(v):
        raise ValidationError(f"coefficient at ({x},{y}) must be an integer, got {v!r}")
    return _lattice_point(x, y)
