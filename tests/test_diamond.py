import math
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, strategies as st

from orbikit import (
    ColumnVector,
    HodgeDiamond,
    InertiaComponent,
    OrbifoldPresentation,
    StringyPolynomial,
    ValidationError,
    as_grade,
    assemble_diamond,
    check_partners,
    check_symmetries,
    columns,
    serre_dual,
    stringy_e,
)
from orbikit.grades import _check_entry, _check_term
from support import K3_DIAMOND, KUMMER3_DIAMOND, P2_MU3_DIAMOND, random_fractional_diamonds


@st.composite
def diamonds(draw):
    """Arbitrary valid diamonds: rational grades with integral p - q."""
    n = draw(st.integers(0, 4))
    level = draw(st.sampled_from([1, 2, 3, 4, 6]))
    entries = {}
    for _ in range(draw(st.integers(0, 8))):
        den = draw(st.sampled_from([d for d in (1, 2, 3, 4, 6) if level % d == 0]))
        p = Fraction(draw(st.integers(0, n * den)), den)
        # q = p - i must stay in [0, n], i.e. i in [ceil(p - n), floor(p)].
        q = p - draw(st.integers(math.ceil(p - n), math.floor(p)))
        h = draw(st.integers(1, 9))
        entries[(p, q)] = entries.get((p, q), 0) + h
    return HodgeDiamond(n, entries, level=level)


@st.composite
def partly_symmetric_diamonds(draw):
    """Diamonds from `diamonds`, closed under neither, either or both symmetries."""
    d = draw(diamonds())
    n = d.dim_n
    maps = []
    if draw(st.booleans()):
        maps.append(lambda p, q: (q, p))
    if draw(st.booleans()):
        maps.append(lambda p, q: (n - p, n - q))
    entries = {}
    for key, h in d.items():
        orbit = {key}
        for _ in range(2):
            orbit |= {m(*k) for k in orbit for m in maps}
        if key not in entries:
            entries.update(dict.fromkeys(orbit, h))
    return HodgeDiamond(n, entries, level=d.level)


def test_as_grade_accepts_exact_forms():
    assert as_grade(2) == Fraction(2)
    assert as_grade("3/2") == Fraction(3, 2)
    assert as_grade("-1/3") == Fraction(-1, 3) and as_grade("4") == Fraction(4)
    assert as_grade(Fraction(1, 3)) == Fraction(1, 3)
    assert as_grade("0") == as_grade("0/1") == Fraction(0) and as_grade("10/3") == Fraction(10, 3)


def test_as_grade_rejects_floats_and_junk():
    with pytest.raises(ValidationError):
        as_grade(0.5)
    with pytest.raises(ValidationError):
        as_grade("x/y")
    with pytest.raises(ValidationError):
        as_grade(True)


@pytest.mark.parametrize("text", ["1.5", "1e0", "3/2\n", "2/4", "1/0", "-3/-2", "\u0663", "01", "1/02", "-0", "-0/1", "00"])
def test_as_grade_rejects_text_outside_lowest_terms(text):
    with pytest.raises(ValidationError):
        as_grade(text)


class TestHodgeDiamond:
    def test_zero_entries_dropped_and_equality_normalized(self):
        a = HodgeDiamond(2, {(0, 0): 1, (1, 1): 0, (2, 2): 1})
        b = HodgeDiamond(2, {(0, 0): 1, (2, 2): 1})
        assert a == b
        assert a.entry(1, 1) == 0

    def test_equality_ignores_level(self):
        a = HodgeDiamond(2, {(0, 0): 1}, level=1)
        b = HodgeDiamond(2, {(0, 0): 1}, level=6)
        assert a == b and hash(a) == hash(b)

    def test_level_includes_grade_denominators(self):
        d = HodgeDiamond(3, {(Fraction(3, 2), Fraction(3, 2)): 1}, level=3)
        assert d.level == 6

    def test_rejects_negative_dimension_entry(self):
        with pytest.raises(ValidationError):
            HodgeDiamond(2, {(0, 0): -1})

    def test_rejects_grade_outside_box(self):
        with pytest.raises(ValidationError):
            HodgeDiamond(1, {(2, 2): 1})
        with pytest.raises(ValidationError):
            HodgeDiamond(1, {(Fraction(-1, 2), Fraction(-1, 2)): 1})

    def test_rejects_non_integral_diagonal(self):
        with pytest.raises(ValidationError):
            HodgeDiamond(2, {(Fraction(1, 2), 1): 1})

    def test_projective_space(self):
        p2 = HodgeDiamond.projective_space(2)
        assert dict(p2.items()) == {
            (Fraction(0), Fraction(0)): 1,
            (Fraction(1), Fraction(1)): 1,
            (Fraction(2), Fraction(2)): 1,
        }
        assert HodgeDiamond.point().total() == 1

    def test_string_grades_accepted(self):
        d = HodgeDiamond(3, {("3/2", "3/2"): 64})
        assert d.entry(Fraction(3, 2), Fraction(3, 2)) == 64

    def test_equality_with_another_type_is_not_implemented(self):
        assert HodgeDiamond.point().__eq__(1) is NotImplemented
        assert HodgeDiamond.point() != 1 and HodgeDiamond.point() != {(0, 0): 1}
        assert HodgeDiamond.point() != ColumnVector(0, {0: 1})


class TestSerreDual:
    def test_k3_self_dual(self, k3_diamond):
        assert serre_dual(k3_diamond) == k3_diamond
        assert k3_diamond == K3_DIAMOND

    def test_point_self_dual(self):
        point = HodgeDiamond(0, {(0, 0): 1})
        assert serre_dual(point) == point

    def test_p2_mu3_self_dual(self):
        assert serre_dual(P2_MU3_DIAMOND) == P2_MU3_DIAMOND

    def test_remaps_asymmetric_entry(self):
        d = HodgeDiamond(1, {(1, 0): 1})
        assert serre_dual(d) == HodgeDiamond(1, {(0, 1): 1})

    def test_lattice_dual_matches_the_dual_rebuilt_from_items(self, kummer3, p2_mu3, rng):
        """The dual read off the lattice equals the one rebuilt from `items()`, `level` included."""
        for d in [assemble_diamond(kummer3), assemble_diamond(p2_mu3), *random_fractional_diamonds(rng, 5)]:
            assert_dual_matches_rebuilt(d)


def assert_dual_matches_rebuilt(d):
    n = d.dim_n
    rebuilt = HodgeDiamond(n, {(n - p, n - q): h for (p, q), h in d.items()}, level=d.level)
    dual = serre_dual(d)
    assert dual == rebuilt and dual.level == rebuilt.level


class TestCheckSymmetries:
    def test_k3(self, k3_diamond):
        report = check_symmetries(k3_diamond)
        assert report.serre and report.hodge

    def test_single_asymmetric_entry(self):
        report = check_symmetries(HodgeDiamond(1, {(1, 0): 1}))
        assert not report.serre and not report.hodge

    def test_kummer_threefold(self, kummer3):
        from orbikit import assemble_diamond

        report = check_symmetries(assemble_diamond(kummer3))
        assert report.serre and report.hodge

    def test_hodge_without_serre(self):
        d = HodgeDiamond(2, {(0, 0): 1, (1, 0): 2, (0, 1): 2})
        report = check_symmetries(d)
        assert report.hodge and not report.serre


class TestColumns:
    def test_k3(self, k3_diamond):
        c = columns(k3_diamond)
        assert c == ColumnVector(2, {-2: 1, 0: 22, 2: 1})
        assert c[-1] == 0 and c[1] == 0

    def test_point(self):
        assert columns(HodgeDiamond(0, {(0, 0): 1})) == ColumnVector(0, {0: 1})

    def test_kummer_threefold(self):
        c = columns(KUMMER3_DIAMOND)
        assert c == ColumnVector(3, {-2: 6, 0: 84, 2: 6})
        assert c[0] == 1 + 9 + 64 + 9 + 1


class TestColumnVector:
    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValidationError):
            ColumnVector(1, {2: 1})

    def test_rejects_negative_value(self):
        with pytest.raises(ValidationError):
            ColumnVector(1, {0: -1})

    def test_sparse_equality(self):
        assert ColumnVector(2, {0: 3, 1: 0}) == ColumnVector(2, {0: 3})

    def test_rejects_non_integer_index(self):
        with pytest.raises(ValidationError, match=r"^column index must be an integer, got '1'$"):
            ColumnVector(2, {"1": 1})


class TestStringyE:
    def test_single_untwisted_point(self):
        point = OrbifoldPresentation(
            0, [InertiaComponent(1, (), HodgeDiamond.point())], name="pt"
        )
        assert stringy_e(point) == StringyPolynomial({(0, 0): 1})

    def test_kummer_surface(self, kummer2):
        e = stringy_e(kummer2)
        assert e.coefficient(1, 1) == 20
        assert e.coefficient(0, 0) == 1 and e.coefficient(2, 2) == 1
        assert e.coefficient(2, 0) == 1 and e.coefficient(0, 2) == 1
        assert sum(abs(c) for _, c in e.items()) == 24

    def test_p2_mu3_matches_diamond(self, p2_mu3):
        e = stringy_e(p2_mu3)
        assert dict(e.items()) == {key: h for key, h in P2_MU3_DIAMOND.items()}

    def test_odd_degree_signs(self):
        curve = HodgeDiamond(1, {(0, 0): 1, (1, 0): 2, (0, 1): 2, (1, 1): 1})
        p = OrbifoldPresentation(1, [InertiaComponent(1, (0,), curve)], name="curve")
        e = stringy_e(p)
        assert e.coefficient(1, 0) == -2 and e.coefficient(0, 1) == -2
        assert e.coefficient(0, 0) == 1 and e.coefficient(1, 1) == 1

    def test_zero_coefficients_dropped(self):
        assert StringyPolynomial({(0, 0): 0}) == StringyPolynomial({})


@given(partly_symmetric_diamonds())
def test_check_symmetries_is_its_definition(d):
    report = check_symmetries(d)
    assert report.serre == (d == serre_dual(d))
    assert report.hodge == all(d.entry(q, p) == h for (p, q), h in d.items())


@given(diamonds(), st.integers(2, 5))
def test_hash_ignores_level_and_is_stable(d, k):
    e = HodgeDiamond(d.dim_n, d.items(), level=d.level * k)
    assert e.level != d.level
    assert hash(d) == hash(d) == hash(e) and d == e
    assert {d: "first"}[e] == "first"


@given(diamonds())
def test_serre_dual_matches_the_dual_rebuilt_from_items(d):
    assert_dual_matches_rebuilt(d)


@given(diamonds())
def test_serre_dual_is_an_involution(d):
    assert serre_dual(serre_dual(d)) == d


@given(diamonds())
def test_serre_dual_preserves_total(d):
    assert serre_dual(d).total() == d.total()


@given(diamonds())
def test_columns_of_dual_are_reversed(d):
    c, cd = columns(d), columns(serre_dual(d))
    assert all(cd[i] == c[-i] for i in range(-d.dim_n, d.dim_n + 1))


@given(diamonds())
def test_every_key_has_integral_diagonal(d):
    assert all((p - q).denominator == 1 for p, q in d.keys())


@given(diamonds())
def test_columns_total_matches_diamond_total(d):
    assert columns(d).total() == d.total()


@given(diamonds())
def test_column_keys_and_view_follow_items(d):
    c = columns(d)
    assert c.keys() == sorted({int(p - q) for p, q in d.keys()})
    assert dict(c.cols) == dict(c.items()) == {i: c[i] for i in c.keys()}
    assert dict(d.entries) == dict(d.items()) and list(d.entries) == d.keys()


@pytest.mark.parametrize("view", [
    lambda: columns(K3_DIAMOND).cols,
    lambda: K3_DIAMOND.entries,
    lambda: StringyPolynomial({(0, 0): 1, ("1/2", "1/2"): -2}).terms,
], ids=["cols", "entries", "terms"])
def test_views_are_read_only(view):
    with pytest.raises(TypeError):
        view()[0] = 1
    with pytest.raises(TypeError):
        del view()[next(iter(view()))]


class Count(int):
    """An int subclass: the named checks accept it, the exact-int fast paths must hand it to them."""


# Each value goes into one field of an entry, a term or a column, in turn: none of them is a plain in-range int.
ODD_FIELDS = [True, 1.0, Fraction(1), Fraction(1, 2), "1", "1/2", Count(1), 2, -1]


def outcome(make):
    """What `make()` gives, or the type and exact message of what it raises."""
    try:
        return make()
    except Exception as exc:
        return type(exc), str(exc)


def named_checks_store(check, pairs) -> tuple[int, dict]:
    """(unit, lattice map) with every entry passed to `check`: the constructors' storage with no fast path."""
    sums = {}
    for key, v in pairs:
        point = check(*key, v)
        sums[point] = sums.get(point, 0) + v
    sums = {point: v for point, v in sums.items() if v}
    unit = math.lcm(1, *(b for _, _, b in sums))
    return unit, {(a * (unit // b), c * (unit // b)): v for (a, c, b), v in sums.items()}


def stored(d) -> tuple[int, dict]:
    unit, m = d.lattice()
    return unit, dict(m)


class TestExactIntFastPaths:
    """Ints take one type test per field; every other field gets exactly what the named checks give it."""

    @pytest.mark.parametrize("odd", ODD_FIELDS, ids=repr)
    @pytest.mark.parametrize("position", ["p", "q", "h"])
    def test_diamond_entry_fields(self, position, odd):
        fields = {"p": 1, "q": 1, "h": 3, position: odd}
        entries = {(0, 0): 1, (fields["p"], fields["q"]): fields["h"]}
        got = outcome(lambda: stored(HodgeDiamond(1, entries)))
        assert got == outcome(lambda: named_checks_store(partial(_check_entry, 1), entries.items()))
        if not isinstance(got[0], type):  # stored: the level is the unit
            assert HodgeDiamond(1, entries).level == got[0]

    @pytest.mark.parametrize("odd", ODD_FIELDS, ids=repr)
    @pytest.mark.parametrize("position", ["p", "q", "v"])
    def test_stringy_term_fields(self, position, odd):
        fields = {"p": 1, "q": 1, "v": -3, position: odd}
        terms = {(0, 0): 1, (fields["p"], fields["q"]): fields["v"]}
        got = outcome(lambda: stored(StringyPolynomial(terms)))
        assert got == outcome(lambda: named_checks_store(_check_term, terms.items()))

    @pytest.mark.parametrize("make, message", [
        (lambda: HodgeDiamond(1, {(True, 0): 1}),
         "not an exact rational grade: True (use int, Fraction or 'a/b' in lowest terms)"),
        (lambda: HodgeDiamond(1, {(1, 1): True}), "dimension h^{1,1} must be an integer, got True"),
        (lambda: HodgeDiamond(1, {(0, 0): -1}), "negative dimension h^{0,0} = -1"),
        (lambda: HodgeDiamond(1, {(0, 2): 1}), "grade (0,2) outside [0, 1]"),
        (lambda: StringyPolynomial({(0, False): 1}),
         "not an exact rational grade: False (use int, Fraction or 'a/b' in lowest terms)"),
        (lambda: StringyPolynomial({(0, 0): True}), "coefficient at (0,0) must be an integer, got True"),
    ])
    def test_bools_and_out_of_range_fields_keep_their_messages(self, make, message):
        with pytest.raises(ValidationError) as info:
            make()
        assert str(info.value) == message

    @pytest.mark.parametrize("key", [(0, 0, 0), (0,), ()], ids=repr)
    @pytest.mark.parametrize("make", [lambda e: HodgeDiamond(1, e), StringyPolynomial], ids=["diamond", "stringy"])
    def test_a_key_that_is_not_a_pair_is_a_type_error(self, make, key):
        with pytest.raises(TypeError):
            make({(0, 0): 1, key: 1})

    def test_int_keys_with_one_fraction_key_keep_the_canonical_unit(self):
        mixed = HodgeDiamond(3, {(0, 0): 1, (Fraction(3, 2), Fraction(3, 2)): 64, (3, 3): 1, (1, 1): 2})
        spelled = HodgeDiamond(3, {(Fraction(p), Fraction(q)): h for (p, q), h in
                                   {(0, 0): 1, (Fraction(3, 2), Fraction(3, 2)): 64, (3, 3): 1, (1, 1): 2}.items()})
        assert mixed == spelled and hash(mixed) == hash(spelled)
        assert stored(mixed) == stored(spelled) == (2, {(0, 0): 1, (2, 2): 2, (3, 3): 64, (6, 6): 1})
        assert mixed.level == 2
        whole = HodgeDiamond(1, {(0, 0): 1, (Fraction(1), Fraction(1)): 1})
        assert stored(whole) == (1, {(0, 0): 1, (1, 1): 1}) and whole.is_integer_graded()

    def test_fractional_terms_that_cancel_leave_unit_one(self):
        e = StringyPolynomial({(0, 0): 1, ("1/2", "1/2"): 2, (Fraction(1, 2), Fraction(1, 2)): -2, (1, 0): -1})
        assert stored(e) == (1, {(0, 0): 1, (1, 0): -1}) and e == StringyPolynomial({(0, 0): 1, (1, 0): -1})

    def test_an_int_entry_and_its_fraction_spelling_are_summed(self):
        d = HodgeDiamond(2, [((1, 1), 3), ((Fraction(1), "1"), 4), ((Count(1), 1), 5)])
        assert stored(d) == (1, {(1, 1): 12})

    @pytest.mark.parametrize("cols, expected", [
        ({True: 1}, (ValidationError, "column index must be an integer, got True")),
        ({1.0: 1}, (ValidationError, "column index must be an integer, got 1.0")),
        ({Fraction(1): 1}, (ValidationError, "column index must be an integer, got Fraction(1, 1)")),
        ({"1": 1}, (ValidationError, "column index must be an integer, got '1'")),
        ({Count(1): 1}, {1: 1}),
        ({2: 1}, (ValidationError, "column index 2 outside [-1, 1]")),
        ({-2: 1}, (ValidationError, "column index -2 outside [-1, 1]")),
        ({-1: 1}, {-1: 1}),
        ({0: True}, (ValidationError, "column value at 0 must be a nonnegative integer, got True")),
        ({0: 1.0}, (ValidationError, "column value at 0 must be a nonnegative integer, got 1.0")),
        ({0: Fraction(1)}, (ValidationError, "column value at 0 must be a nonnegative integer, got Fraction(1, 1)")),
        ({0: "1"}, (ValidationError, "column value at 0 must be a nonnegative integer, got '1'")),
        ({0: Count(1)}, {0: 1}),
        ({0: 2}, {0: 2}),
        ({0: -1}, (ValidationError, "column value at 0 must be a nonnegative integer, got -1")),
        ({0: 1, True: 1, 2: 1}, (ValidationError, "column index must be an integer, got True")),
        ({0: 1, 2: True}, (ValidationError, "column index 2 outside [-1, 1]")),
    ], ids=repr)
    def test_column_fields(self, cols, expected):
        assert outcome(lambda: dict(ColumnVector(1, cols).items())) == expected


def test_partner_failures_come_in_constraint_order_with_exact_fields():
    a = HodgeDiamond(2, {(0, 0): 1, (2, 2): 1})
    b = HodgeDiamond(2, {(p, q): 1 for p in range(3) for q in range(3) if (p, q) != (1, 1)})
    failures = check_partners(a, b).failures
    assert [(m.constraint, m.index, m.left, m.right) for m in failures] == [
        ("columns", -2, 0, 1), ("columns", -1, 0, 2), ("columns", 1, 0, 2), ("columns", 2, 0, 1),
        ("h01", (0, 1), 0, 1), ("hn0", (2, 0), 0, 1), ("hn10", (1, 0), 0, 1),
    ]
    assert [type(m.index) for m in failures] == [int] * 4 + [tuple] * 3
    assert all(type(x) is int for m in failures[4:] for x in (*m.index, m.left, m.right))
    assert [m.constraint for m in check_partners(b, a).failures] == [m.constraint for m in failures]
