"""Diamonds stored on the lattice (1/unit)Z: pinned messages, a plain-Fraction
reference, and a guard that the pipeline hashes no Fraction."""

import json
import math
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from orbikit import (
    ColumnVector,
    GroupTooLargeError,
    HodgeDiamond,
    InertiaComponent,
    NonGorensteinOrbifoldError,
    OrbifoldPresentation,
    ProjectiveQuotientSpec,
    StringyPolynomial,
    ValidationError,
    assemble_diamond,
    build_kummer,
    build_projective_quotient,
    check_partners,
    check_symmetries,
    columns,
    format_grade,
    mckay_compare,
    reconstruct_gorenstein,
    stringy_e,
    torus_invariant_diamond,
)
from orbikit.cli import render_diamond
from orbikit.diamond import _bounded_lcm
from orbikit.formats import (
    diamond_from_obj,
    diamond_to_obj,
    dumps,
    grade_to_json,
    loads,
    presentation_from_obj,
    presentation_to_obj,
)
from orbikit.quotient import MAX_GROUP_ORDER
from support import random_fractional_diamonds, random_presentation

F = Fraction

GRADE_ERROR = "not an exact rational grade: {} (use int, Fraction or 'a/b' in lowest terms)"

# (constructor call, exact ValidationError message); the first failing check wins.
INVALID = [
    (lambda: HodgeDiamond(2, {(0, 0): True}), "dimension h^{0,0} must be an integer, got True"),
    (lambda: HodgeDiamond(2, {(1, 1): -3}), "negative dimension h^{1,1} = -3"),
    (lambda: HodgeDiamond(2, {(0, 0): 1.0}), "dimension h^{0,0} must be an integer, got 1.0"),
    (lambda: HodgeDiamond(2, {("1/2", "1/2"): 1.5}), "dimension h^{1/2,1/2} must be an integer, got 1.5"),
    (lambda: HodgeDiamond(1, {(2, 2): 1}), "grade (2,2) outside [0, 1]"),
    (lambda: HodgeDiamond(1, {(F(-1, 2), F(-1, 2)): 1}), "grade (-1/2,-1/2) outside [0, 1]"),
    (lambda: HodgeDiamond(1, {("3/2", "1/2"): 1}), "grade (3/2,1/2) outside [0, 1]"),
    (lambda: HodgeDiamond(2, {(F(1, 2), 1): 1}), "p - q must be an integer; got (1/2,1)"),
    (lambda: HodgeDiamond(2, {("1/2", "1/3"): 1}), "p - q must be an integer; got (1/2,1/3)"),
    (lambda: HodgeDiamond(2, {(0, 0): 1}, level=0), "level must be a positive integer, got 0"),
    (lambda: HodgeDiamond(2, {(0, 0): 1}, level=True), "level must be a positive integer, got True"),
    (lambda: HodgeDiamond(2, {(0, 0): 1}, level=F(1)), "level must be a positive integer, got Fraction(1, 1)"),
    (lambda: HodgeDiamond(-1, {}), "dimension must be a nonnegative integer, got -1"),
    (lambda: HodgeDiamond(2, {("0.5", "0.5"): 1}), GRADE_ERROR.format("'0.5'")),
    (lambda: HodgeDiamond(2, {("2/4", "1/2"): 1}), GRADE_ERROR.format("'2/4'")),
    (lambda: HodgeDiamond(2, {(0, 0.5): 1}), GRADE_ERROR.format("0.5")),
    (lambda: HodgeDiamond(2, {(True, 0): 1}), GRADE_ERROR.format("True")),
    # The first bad entry among several, and the order of the checks within one entry.
    (lambda: HodgeDiamond(2, [((0, 0), 1), ((1, 1), -1), (("x", "x"), 1)]), "negative dimension h^{1,1} = -1"),
    (lambda: HodgeDiamond(2, [((0, 0), 1), (("x", "x"), 1), ((1, 1), -1)]), GRADE_ERROR.format("'x'")),
    (lambda: HodgeDiamond(2, [((0, 0), 1), ((3, 3), 1), ((F(1, 2), 0), 1)]), "grade (3,3) outside [0, 2]"),
    (lambda: HodgeDiamond(2, [((0, 0), 1), ((F(1, 2), 0), 1), ((3, 3), 1)]), "p - q must be an integer; got (1/2,0)"),
    (lambda: HodgeDiamond(2, [(("x", "x"), -1)]), "negative dimension h^{x,x} = -1"),
    (lambda: HodgeDiamond(2, [(("x", "x"), 1.5)]), "dimension h^{x,x} must be an integer, got 1.5"),
    (lambda: StringyPolynomial({(0, 0): 0.5}), "coefficient at (0,0) must be an integer, got 0.5"),
    (lambda: StringyPolynomial({(0, 0): False}), "coefficient at (0,0) must be an integer, got False"),
    (lambda: StringyPolynomial({("1/2", "y"): 1}), GRADE_ERROR.format("'y'")),
    (lambda: StringyPolynomial({("1/2", "y"): 1.5}), "coefficient at (1/2,y) must be an integer, got 1.5"),
    (lambda: StringyPolynomial({(0, 0): 1, ("1/3", "1/3"): 2, (1, 2): "3"}), "coefficient at (1,2) must be an integer, got '3'"),
]


@pytest.mark.parametrize("build, message", INVALID)
def test_invalid_input_message_is_pinned(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert type(info.value) is ValidationError and str(info.value) == message


# -- a plain-Fraction reference --------------------------------------------

def spellings(g: Fraction) -> st.SearchStrategy:
    """The ways a caller may write the grade g."""
    forms = [g, format_grade(g)] + ([g.numerator] if g.denominator == 1 else [])
    return st.sampled_from(forms)


@st.composite
def raw_diamonds(draw):
    """(n, entry list with duplicates and zeros, level): valid constructor input."""
    n = draw(st.integers(0, 3))
    pool = []
    for _ in range(draw(st.integers(0, 6))):
        den = draw(st.integers(1, 12))
        p = F(draw(st.integers(0, n * den)), den)
        q = p - draw(st.integers(math.ceil(p - n), math.floor(p)))
        pool.append((p, q))
    entries = []
    if pool:
        for _ in range(draw(st.integers(0, 10))):
            p, q = draw(st.sampled_from(pool))
            entries.append(((draw(spellings(p)), draw(spellings(q))), draw(st.integers(0, 4))))
    return n, entries, draw(st.integers(1, 12))


def reference(entries) -> dict:
    """The entries summed by Fraction key, zeros dropped, in key order."""
    acc: dict = {}
    for (p, q), h in entries:
        key = (F(p), F(q))
        acc[key] = acc.get(key, 0) + h
    return {k: h for k, h in sorted(acc.items()) if h}


def reference_csv(ref: dict) -> str:
    return "\n".join(["p,q,h"] + [f"{format_grade(p)},{format_grade(q)},{h}" for (p, q), h in ref.items()])


def reference_json(n: int, ref: dict) -> str:
    entries = [{"p": grade_to_json(p), "q": grade_to_json(q), "h": h} for (p, q), h in ref.items()]
    return json.dumps({"name": "x", "dim": n, "entries": entries}, indent=2, ensure_ascii=True)


def reference_axis(n: int, ref: dict) -> list[Fraction]:
    """[0, n] and every stored grade, in order: each axis of the dense grid."""
    return sorted({F(i) for i in range(n + 1)} | {g for key in ref for g in key})


def reference_grid(n: int, ref: dict, corner: str) -> list[list[str]]:
    """The dense grid with q from the top."""
    axis = reference_axis(n, ref)
    rows = [[corner] + [format_grade(p) for p in axis]]
    return rows + [[format_grade(q)] + [str(ref.get((p, q), 0)) for p in axis] for q in reversed(axis)]


def reference_table(n: int, level: int, ref: dict) -> str:
    rows = reference_grid(n, ref, r"q\p")
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    body = ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in rows]
    return "\n".join([f"x  (dim {n}, level {level})", *body])


def reference_tex(n: int, ref: dict) -> str:
    head, *body = [" & ".join(f"${c}$" for c in row) + r" \\" for row in reference_grid(n, ref, r"q \backslash p")]
    return "\n".join([r"\begin{tabular}{r|" + "c" * len(body) + "}", head, r"\hline", *body, r"\end{tabular}"])


def assert_text_matches_reference(d: HodgeDiamond, ref: dict) -> None:
    """Every text output of `d` byte for byte against `format_grade` of plain Fractions; the grid within the budget."""
    n = d.dim_n
    assert render_diamond("x", d, "csv") == reference_csv(ref)
    assert render_diamond("x", d, "json") == dumps(diamond_to_obj("x", d)) == reference_json(n, ref)
    if len(reference_axis(n, ref)) ** 2 <= MAX_GROUP_ORDER:
        assert render_diamond("x", d, "table") == reference_table(n, d.level, ref)
        assert render_diamond("x", d, "tex") == reference_tex(n, ref)


@settings(max_examples=150, deadline=None)
@given(raw_diamonds(), st.integers(1, 12), st.integers(1, 12), st.integers(0, 40))
def test_diamond_matches_plain_fraction_reference(raw, scale, den, num):
    n, entries, level = raw
    d = HodgeDiamond(n, entries, level=level)
    ref = reference(entries)
    assert list(d.items()) == list(ref.items())
    assert list(d.keys()) == list(ref)
    assert dict(d.entries) == ref
    assert all(type(g) is F for key in d.keys() for g in key)
    assert d.level == math.lcm(level, *(p.denominator for p, _ in ref))
    assert d.is_integer_graded() == all(p.denominator == q.denominator == 1 for p, q in ref)
    # entry() on and off the lattice: any (p, q) that is not stored reads 0.
    for key in [*ref, (F(num, den), F(num, den)), (F(num, den), F(0))]:
        assert d.entry(*key) == ref.get(key, 0)
    # Equal diamonds built at other levels are equal and hash alike.
    e = HodgeDiamond(n, list(ref.items()), level=level * scale)
    assert e == d and hash(e) == hash(d) and e.level == math.lcm(level * scale, d.level)
    cols: dict = {}
    for (p, q), h in ref.items():
        cols[int(p - q)] = cols.get(int(p - q), 0) + h
    assert dict(columns(d).items()) == cols
    sym = check_symmetries(d)
    assert sym.serre == all(ref.get((n - p, n - q)) == h for (p, q), h in ref.items())
    assert sym.hodge == all(ref.get((q, p)) == h for (p, q), h in ref.items())
    assert_text_matches_reference(d, ref)


P2_MOD_2003 = ProjectiveQuotientSpec(2, (2003,), ((0, 1, 5),))  # unit 2003, about 3 000 entries

GRADE_TEXT_CASES = {
    "p2_mod_2003": lambda: assemble_diamond(build_projective_quotient(P2_MOD_2003)),
    "unit_1": lambda: HodgeDiamond.projective_space(3),
    "ends_0_and_n_unit": lambda: HodgeDiamond(2, {(0, 0): 1, ("1/3", "1/3"): 2, ("5/3", "2/3"): 1, (2, 2): 1}),
    "empty": lambda: HodgeDiamond(1, {}),
}


@pytest.mark.parametrize("name", GRADE_TEXT_CASES)
def test_grade_text_matches_plain_fraction_reference(name):
    d = GRADE_TEXT_CASES[name]()
    unit, m = d.lattice()
    ref = dict(d.items())
    assert_text_matches_reference(d, ref)
    coords = {x for key in m for x in key}
    assert {0, d.dim_n * unit} <= coords or not m
    assert d.grade_text() == {x: format_grade(F(x, unit)) for x in coords}
    assert d.grade_text(quote='"') == {x: json.dumps(grade_to_json(F(x, unit))) for x in coords}
    assert d.grade_text(whole=int) == {x: grade_to_json(F(x, unit)) for x in coords}
    if name == "p2_mod_2003":
        assert unit == 2003 and len(m) > 3000 and len(reference_axis(2, ref)) ** 2 > MAX_GROUP_ORDER


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 12), st.integers(-3, 3)), max_size=8),
    st.integers(1, 12),
)
def test_stringy_polynomial_matches_plain_fraction_reference(raw, den):
    terms = {(F(a, b), F(c, b)): v for a, c, b, v in raw}
    e = StringyPolynomial(terms)
    ref = {k: v for k, v in sorted(terms.items()) if v}
    assert list(e.items()) == list(ref.items()) and dict(e.terms) == ref
    for key in [*ref, (F(1, den), F(1, den))]:
        assert e.coefficient(*key) == ref.get(key, 0)
    assert e == StringyPolynomial(dict(ref.items())) and hash(e) == hash(StringyPolynomial(ref))


def test_terms_at_one_grade_are_summed_however_spelled():
    e = StringyPolynomial({(1, 1): 2, ("1", "1"): 3, (F(1, 2), "1/2"): -1, ("1/2", F(1, 2)): 1})
    assert list(e.items()) == [((F(1), F(1)), 5)]


def test_lattice_is_canonical():
    d = HodgeDiamond(2, {(F(1, 2), F(1, 2)): 1, (1, 1): 2}, level=12)
    assert d.lattice() == (2, {(1, 1): 1, (2, 2): 2}) and d.level == 12
    assert HodgeDiamond(2, {(1, 1): 1}, level=6).lattice() == (1, {(1, 1): 1})
    assert HodgeDiamond(2, {}).lattice() == (1, {}) and HodgeDiamond(2, {}).is_integer_graded()


# -- the unit is canonical by construction ---------------------------------


def grade_denominator_lcm(m) -> int:
    """The lcm of the reduced denominators of the stored grades, read as plain Fractions."""
    return math.lcm(1, *(g.denominator for key, _ in m.items() for g in key))


def test_a_zero_entry_leaves_no_trace_in_the_unit():
    plain = HodgeDiamond(2, {(0, 0): 1, (2, 2): 1})
    d = HodgeDiamond(2, {(0, 0): 1, ("1/2", "1/2"): 0, (2, 2): 1})
    assert d.lattice() == plain.lattice() == (1, {(0, 0): 1, (2, 2): 1})
    assert d == plain and hash(d) == hash(plain) and d.level == 1 and d.is_integer_graded()
    entries = [{"p": "1/2", "q": "1/2", "h": 0}, {"p": 0, "q": 0, "h": 1}, {"p": 2, "q": 2, "h": 1}]
    _, read = diamond_from_obj({"name": "z", "dim": 2, "entries": entries})
    assert read.lattice() == plain.lattice() and read == plain and hash(read) == hash(plain) and read.level == 1


def test_cancelling_stringy_terms_leave_no_trace_in_the_unit():
    assert StringyPolynomial({("1/2", "1/2"): 3, (F(1, 2), F(2, 4)): -3}).lattice() == (1, {})
    e = StringyPolynomial({(1, 1): 2, ("1/2", "1/2"): 3, (F(1, 2), F(1, 2)): -3})
    assert e.lattice() == (1, {(1, 1): 2}) and e == StringyPolynomial({(1, 1): 2})
    assert hash(e) == hash(StringyPolynomial({(1, 1): 2}))


def test_an_order_four_sector_of_age_one_half_has_unit_two_and_level_four():
    p = OrbifoldPresentation(2, [
        InertiaComponent(1, (0, 0), HodgeDiamond.projective_space(2)),
        InertiaComponent(4, (1, 1), HodgeDiamond.point()),
    ])
    d = assemble_diamond(p)
    assert d.lattice() == (2, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (4, 4): 1}) and d.level == 4
    assert stringy_e(p).lattice()[0] == 2


def test_a_projective_quotient_unit_below_its_level():
    # P^3/(Z/7560): every age has a denominator dividing 1 890 = 7 560 / 4.
    d = assemble_diamond(build_projective_quotient(ProjectiveQuotientSpec(3, (7560,), ((0, 1, 5127, 4760),))))
    assert d.lattice()[0] == grade_denominator_lcm(d) == 1890 and d.level == 7560


def test_unit_is_the_lcm_of_the_age_denominators(rng):
    reduced = 0
    for _ in range(80):
        p = random_presentation(rng, max_sectors=rng.choice([4, 20]), max_order=rng.choice([12, 60]))
        unit = math.lcm(*(c.age().denominator for c, _ in p.sectors))
        d = assemble_diamond(p)
        assert d.lattice()[0] == stringy_e(p).lattice()[0] == grade_denominator_lcm(d) == unit
        assert d.level == math.lcm(*(c.order_l for c, _ in p.sectors))
        reduced += unit < d.level
    assert reduced > 10


def test_unit_of_a_constructed_or_read_diamond_is_the_lcm_of_its_grade_denominators(rng):
    for d in random_fractional_diamonds(rng, 30):
        built = HodgeDiamond(d.dim_n, {key: h for key, h in d.items()})
        _, read = diamond_from_obj(loads(dumps(diamond_to_obj("d", d))))
        assert built.lattice() == read.lattice() == d.lattice() and d.lattice()[0] == grade_denominator_lcm(d)


def test_lattice_bound_is_keys_times_bits_of_the_lcm():
    def refuse():
        raise AssertionError("keys counted below a machine word")

    assert _bounded_lcm(range(1, 41), refuse) == math.lcm(*range(1, 41))  # lcm(1..40) < 2^64
    big = 2**100 + 1  # 101 bits
    assert _bounded_lcm([big, 1, big], lambda: (1 << 24) // 101) == big  # 166 111 * 101 bits fit
    with pytest.raises(GroupTooLargeError, match=r"^166112 grades times 101 bits of the denominator exceeds the limit 16777216$"):
        _bounded_lcm([big], lambda: (1 << 24) // 101 + 1)
    orders = [10**30 + 2 * k + 1 for k in range(800)]
    with pytest.raises(GroupTooLargeError, match="exceeds the limit 16777216"):
        HodgeDiamond(1, {(F(1, b), F(1, b)): 1 for b in orders})


# -- integer keys stay integers --------------------------------------------

INT_KEYED = {
    "projective_space": lambda: HodgeDiamond.projective_space(3),
    "torus_invariant": lambda: torus_invariant_diamond(3),
    "quintic": lambda: reconstruct_gorenstein(ColumnVector(3, {3: 1, -3: 1, 1: 101, -1: 101, 0: 4}), h01=0),
    "k3": lambda: reconstruct_gorenstein(ColumnVector(2, {2: 1, -2: 1, 0: 22})),
}


def test_integer_keys_are_not_parsed_as_grades(monkeypatch):
    unpatched = {name: build() for name, build in INT_KEYED.items()}

    def refuse(value):
        raise AssertionError(f"as_grade({value!r}) called for an integer key")

    monkeypatch.setattr("orbikit.diamond.as_grade", refuse)
    for name, build in INT_KEYED.items():
        d = build()
        assert d == unpatched[name] and d.lattice() == unpatched[name].lattice(), name
        assert repr(d) == repr(unpatched[name]) and d.level == unpatched[name].level, name


def test_int_subclass_keys_are_stored_as_plain_ints():
    class Degree(IntEnum):
        ONE = 1
        TWO = 2

    d = HodgeDiamond(2, {(Degree.ONE, Degree.ONE): 3, (Degree.TWO, 0): 1})
    assert d == HodgeDiamond(2, {(1, 1): 3, (2, 0): 1}) and d.lattice()[0] == 1
    assert all(type(x) is int for key in d.lattice()[1] for x in key)


# -- no Fraction hashing between assembly and rendering --------------------

@pytest.fixture
def fraction_hashes(monkeypatch):
    """A list that records every `Fraction.__hash__` call while the test runs."""
    calls = []
    original = F.__hash__

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(F, "__hash__", counting)
    return calls


def test_pipeline_makes_no_fraction_hash(fraction_hashes):
    p = build_projective_quotient(ProjectiveQuotientSpec(2, (101,), ((0, 1, 5),)))
    fraction_hashes.clear()
    d = assemble_diamond(p)
    stringy_e(p)
    columns(d)
    check_symmetries(d)
    check_partners(d, d)
    render_diamond(p.name, d, "json")
    render_diamond(p.name, d, "csv")
    with pytest.raises(NonGorensteinOrbifoldError, match=r"fractional grade \(\d+/101,"):
        mckay_compare(d, d)
    assert not d.is_integer_graded() and len(fraction_hashes) == 0


def test_integer_graded_comparisons_make_no_fraction_hash(fraction_hashes):
    k3 = assemble_diamond(build_kummer(2))
    other = HodgeDiamond(2, {(0, 0): 1, (1, 1): 3, (2, 2): 1})
    fraction_hashes.clear()
    report = mckay_compare(k3, other)
    strict = check_partners(k3, other, strict_dim3=True)
    assert len(fraction_hashes) == 0
    assert report.differences[0].index == (F(0), F(2)) and type(report.differences[0].index[0]) is F
    assert strict.strict_equal is False and strict.failures[-1] == report.differences[-1]


def test_parsing_an_orbifold_file_makes_no_fraction_hash(fraction_hashes):
    p = build_projective_quotient(ProjectiveQuotientSpec(3, (101,), ((0, 1, 2, 3),)))
    text = dumps(presentation_to_obj(p))
    fraction_hashes.clear()
    parsed = presentation_from_obj(loads(text))
    assert sum(count for _, count in parsed.sectors) == 401 and len(fraction_hashes) == 0
