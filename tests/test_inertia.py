import copy
import math
import pickle
from fractions import Fraction
from itertools import product

import pytest

from orbikit import (
    HodgeDiamond,
    InertiaComponent,
    OrbifoldPresentation,
    OutOfRangeError,
    ProjectiveQuotientSpec,
    PseudoReflectionError,
    StringyPolynomial,
    ValidationError,
    assemble_diamond,
    build_kummer,
    build_projective_quotient,
    check_symmetries,
    columns,
    extract_h0q,
    hochschild_via_sectors,
    is_gorenstein,
    stringy_e,
)
from orbikit.formats import presentation_from_obj, presentation_to_obj
from support import K3_DIAMOND, KUMMER3_DIAMOND, expanded, random_presentation, reference_assembly

POINT = HodgeDiamond.point()


def untwisted(n, coarse=None, label="untwisted"):
    return InertiaComponent(1, (0,) * n, coarse or HodgeDiamond.projective_space(n), label=label)


class TestAge:
    def test_untwisted_is_zero(self):
        assert untwisted(2).age() == 0

    def test_isolated_point_order_three(self):
        c = InertiaComponent(3, (1, 2), POINT)
        assert c.age() == 1

    def test_fractional_involution(self):
        c = InertiaComponent(2, (1, 1, 1), POINT)
        assert c.age() == Fraction(3, 2)


class TestComponentValidation:
    def test_single_nonzero_exponent_is_pseudo_reflection(self):
        with pytest.raises(PseudoReflectionError):
            InertiaComponent(2, (1, 0), HodgeDiamond.projective_space(1))

    def test_untwisted_with_nonzero_exponent_rejected(self):
        with pytest.raises(ValidationError):
            InertiaComponent(1, (1, 1), POINT)

    def test_exponent_out_of_range(self):
        with pytest.raises(ValidationError):
            InertiaComponent(3, (1, 3), POINT)
        with pytest.raises(ValidationError):
            InertiaComponent(3, (-1, 1), POINT)

    def test_unfaithful_exponents_rejected(self):
        # (2, 2) only realizes order 2, not 4.
        with pytest.raises(ValidationError):
            InertiaComponent(4, (2, 2), POINT)

    def test_jointly_faithful_exponents_accepted(self):
        # No single exponent is coprime to 6, but together they realize it.
        c = InertiaComponent(6, (2, 2, 3, 3), POINT)
        assert c.age() == Fraction(5, 3)

    def test_accepts_exactly_the_faithful_tuples(self):
        # Every tuple of up to 3 exponents at l <= 12: outside the
        # pseudo-reflections, accepted iff the additive orders l/gcd(a, l)
        # have lcm l (the definition of faithfulness, stated independently).
        for l in range(1, 13):
            for k in range(4):
                for exps in product(range(l), repeat=k):
                    nonzero = sum(1 for a in exps if a)
                    coarse = HodgeDiamond.projective_space(k - nonzero)
                    if nonzero == 1:
                        with pytest.raises(PseudoReflectionError):
                            InertiaComponent(l, exps, coarse)
                    elif math.lcm(*(l // math.gcd(a, l) for a in exps)) == l:
                        assert InertiaComponent(l, exps, coarse).exponents == exps
                    else:
                        with pytest.raises(ValidationError, match="do not realize an automorphism"):
                            InertiaComponent(l, exps, coarse)

    def test_pseudo_reflection_names_the_label(self):
        with pytest.raises(PseudoReflectionError, match=r"^sector 'edge' with exponents \(1, 0\) "):
            InertiaComponent(2, (1, 0), HodgeDiamond.projective_space(1), label="edge")
        with pytest.raises(PseudoReflectionError, match=r"^sector with exponents \(1, 0\) "):
            InertiaComponent(2, (1, 0), HodgeDiamond.projective_space(1))

    def test_trivial_twisted_sector_rejected(self):
        with pytest.raises(ValidationError):
            InertiaComponent(2, (0, 0), HodgeDiamond.projective_space(2))

    def test_coarse_dimension_must_match_zero_count(self):
        with pytest.raises(ValidationError):
            InertiaComponent(2, (0, 1, 1), POINT)

    def test_coarse_diamond_must_be_integer_graded(self):
        frac = HodgeDiamond(1, {(Fraction(1, 2), Fraction(1, 2)): 1})
        with pytest.raises(ValidationError):
            InertiaComponent(2, (0, 1, 1), frac)

    @pytest.mark.parametrize("coarse", [HodgeDiamond(0, {}), HodgeDiamond(1, {(1, 1): 1, (0, 1): 2})])
    def test_coarse_diamond_needs_h00(self, coarse):
        # A fixed component is never empty; without h^{0,0} its age would not show in the diamond.
        with pytest.raises(ValidationError, match=r"h\^\{0,0\} >= 1"):
            InertiaComponent(3, (1, 1) + (0,) * coarse.dim_n, coarse)


class TestComponentValueSemantics:
    def test_list_exponents_become_a_tuple(self):
        from_list = InertiaComponent(3, [1, 2], POINT, label="x")
        from_tuple = InertiaComponent(3, (1, 2), POINT, label="x")
        assert from_list.exponents == (1, 2) and type(from_list.exponents) is tuple
        assert from_list == from_tuple and hash(from_list) == hash(from_tuple)

    @pytest.mark.parametrize("field", ["order_l", "exponents", "coarse_diamond", "label"])
    def test_fields_are_read_only(self, field):
        c = InertiaComponent(3, (1, 2), POINT)
        with pytest.raises(AttributeError):
            setattr(c, field, getattr(c, field))

    def test_copy_and_pickle_round_trips(self):
        c = InertiaComponent(2, (1, 1, 0), HodgeDiamond.projective_space(1), label="line")
        assert copy.deepcopy(c) == c
        assert pickle.loads(pickle.dumps(c)) == c


class TestPresentationValueSemantics:
    @pytest.mark.parametrize("field", OrbifoldPresentation.__slots__)
    def test_fields_are_read_only(self, field):
        p = build_kummer(2)
        with pytest.raises(AttributeError):
            setattr(p, field, getattr(p, field))

    def test_copy_and_pickle_round_trips(self, rng):
        for p in (build_kummer(3), random_presentation(rng)):
            d = assemble_diamond(p)  # fill the kept diamond first
            for q in (copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
                assert q == p and hash(q) == hash(p) and q.sectors == p.sectors
                assert assemble_diamond(q) == d and assemble_diamond(q).level == d.level

    def test_replace_starts_a_fresh_multiset(self):
        # A copy with one field replaced is built with the constructor; it does not keep the diamond.
        a = InertiaComponent(2, (1, 1), POINT, label="a")
        p = OrbifoldPresentation(2, [untwisted(2), (a, 3)], name="x")
        hash(p)
        d = assemble_diamond(p)
        renamed = OrbifoldPresentation(p.dim_n, p.sectors, name="y")
        assert renamed._diamond is None
        assert renamed == OrbifoldPresentation(2, [untwisted(2), (a, 3)], name="y") != p
        assert assemble_diamond(renamed) == d and assemble_diamond(renamed) is not d
        fewer = OrbifoldPresentation(p.dim_n, [untwisted(2), (a, 2)], name=p.name)
        assert fewer == OrbifoldPresentation(2, [untwisted(2), a, a], name="x") != p
        assert fewer._diamond is None and assemble_diamond(fewer).total() == d.total() - 1
        with pytest.raises(ValidationError):
            OrbifoldPresentation(3, p.sectors, name=p.name)

    def test_repr_is_one_short_line(self):
        assert repr(build_kummer(20)) == f"OrbifoldPresentation(name='kummer20', dim_n=20, {4**20 + 1} components)"


class TestPresentationValidation:
    def test_requires_exactly_one_untwisted(self):
        with pytest.raises(ValidationError):
            OrbifoldPresentation(2, [InertiaComponent(2, (1, 1), POINT)])
        with pytest.raises(ValidationError):
            OrbifoldPresentation(2, [untwisted(2), untwisted(2, label="again")])

    def test_requires_nonempty_components(self):
        with pytest.raises(ValidationError):
            OrbifoldPresentation(2, [])

    def test_ambient_dimension_must_match(self):
        with pytest.raises(ValidationError):
            OrbifoldPresentation(3, [untwisted(2)])

    def test_equality_is_order_insensitive(self):
        a = InertiaComponent(2, (1, 1), POINT, label="a")
        b = InertiaComponent(2, (1, 1), POINT, label="b")
        p1 = OrbifoldPresentation(2, [untwisted(2), a, b], name="x")
        p2 = OrbifoldPresentation(2, [b, untwisted(2), a], name="x")
        assert p1 == p2

    def test_repeated_components_are_counted(self):
        a = InertiaComponent(2, (1, 1), POINT, label="a")
        p1 = OrbifoldPresentation(2, [untwisted(2), a, a], name="x")
        p2 = OrbifoldPresentation(2, [untwisted(2), a], name="x")
        assert p1 != p2


class TestConstructorRefusals:
    """Refusals of the library constructors, each with its type and full message."""

    def test_non_integer_exponent(self):
        with pytest.raises(ValidationError, match=r"^exponents must be integers, got 1\.0$"):
            InertiaComponent(2, (1, 1.0), POINT)

    # The order and exponent checks test `type(x) is int` first; these pin what the `is_int` fallback decides.
    class Int(int):
        pass

    def test_bool_exponent(self):
        with pytest.raises(ValidationError, match=r"^exponents must be integers, got True$"):
            InertiaComponent(2, (1, True), POINT)

    def test_bool_order(self):
        with pytest.raises(ValidationError, match=r"^sector order must be a positive integer, got True$"):
            InertiaComponent(True, (0, 0), HodgeDiamond.projective_space(2))

    def test_int_subclass_exponent_in_range_is_kept(self):
        c = InertiaComponent(2, (1, self.Int(1)), POINT)
        assert c.exponents == (1, 1) and type(c.exponents[1]) is self.Int

    def test_int_subclass_exponent_out_of_range(self):
        with pytest.raises(ValidationError, match=r"^exponent 2 outside \[0, 1\] for order 2$"):
            InertiaComponent(2, (1, self.Int(2)), POINT)

    def test_coarse_diamond_of_another_type(self):
        with pytest.raises(ValidationError, match=r"^coarse_diamond must be a HodgeDiamond$"):
            InertiaComponent(1, (0, 0), {(0, 0): 1})

    def test_presentation_of_a_non_component(self):
        with pytest.raises(ValidationError, match=r"^components must be InertiaComponent instances$"):
            OrbifoldPresentation(2, [untwisted(2), "a sector"])

    def test_presentation_equality_with_another_type_is_not_implemented(self):
        p = OrbifoldPresentation(2, [untwisted(2)], name="x")
        assert p.__eq__(p.sectors) is NotImplemented
        assert p != p.sectors and p != "x" and p != untwisted(2)


class TestMultiplicities:
    @staticmethod
    def both_forms(rng, p):
        """`p` with random counts, once from repeated components and once
        from (component, count) pairs, some split in two."""
        counts = [1 if c.is_untwisted else rng.randint(1, 4) for c in expanded(p)]
        repeated = [c for c, k in zip(expanded(p), counts) for _ in range(k)]
        pairs = []
        for c, k in zip(expanded(p), counts):
            pairs += [(c, k)] if k < 2 or rng.random() < 0.5 else [(c, 1), (c, k - 1)]
        rng.shuffle(pairs)
        return (
            OrbifoldPresentation(p.dim_n, repeated, name=p.name),
            OrbifoldPresentation(p.dim_n, pairs, name=p.name),
        )

    def test_pairs_agree_with_repeated_components(self, rng):
        for _ in range(25):
            a, b = self.both_forms(rng, random_presentation(rng))
            assert a == b and hash(a) == hash(b)
            assert len(expanded(a)) == len(expanded(b))
            assert assemble_diamond(a) == assemble_diamond(b)
            assert assemble_diamond(b).total() == sum(k * c.coarse_diamond.total() for c, k in b.sectors)
            assert assemble_diamond(a).level == assemble_diamond(b).level
            assert stringy_e(a) == stringy_e(b)
            assert hochschild_via_sectors(a) == hochschild_via_sectors(b)
            assert is_gorenstein(a) == is_gorenstein(b)
            for p in (a, b):
                assert presentation_from_obj(presentation_to_obj(p)) == p

    def test_count_is_part_of_equality(self):
        a = InertiaComponent(2, (1, 1), POINT, label="a")
        twice = OrbifoldPresentation(2, [untwisted(2), a, a])
        assert twice == OrbifoldPresentation(2, [untwisted(2), (a, 2)]) != OrbifoldPresentation(2, [untwisted(2), (a, 3)])

    @pytest.mark.parametrize("count", [0, -1, True, 1.0])
    def test_bad_count_rejected(self, count):
        a = InertiaComponent(2, (1, 1), POINT)
        with pytest.raises(ValidationError, match="count"):
            OrbifoldPresentation(2, [untwisted(2), (a, count)])

    def test_untwisted_count_must_be_one(self):
        with pytest.raises(ValidationError, match="found 2"):
            OrbifoldPresentation(2, [(untwisted(2), 2)])


class TestIsGorenstein:
    def test_untwisted_only(self):
        assert is_gorenstein(OrbifoldPresentation(2, [untwisted(2)]))

    def test_integral_age_sector(self):
        coarse = HodgeDiamond(2, {(0, 0): 1, (1, 1): 1, (2, 2): 1})
        sector = InertiaComponent(3, (0, 0, 1, 2), coarse)
        p = OrbifoldPresentation(4, [untwisted(4), sector])
        assert sector.age() == 1
        assert is_gorenstein(p)

    def test_kummer_threefold_is_not(self, kummer3):
        assert not is_gorenstein(kummer3)


class TestAssembleDiamond:
    def test_untwisted_only_is_identity(self):
        p = OrbifoldPresentation(2, [untwisted(2)])
        assert assemble_diamond(p) == HodgeDiamond.projective_space(2)

    def test_kummer_surface_is_k3(self, kummer2):
        assert assemble_diamond(kummer2) == K3_DIAMOND

    def test_kummer_threefold_entries(self, kummer3):
        assert assemble_diamond(kummer3) == KUMMER3_DIAMOND

    def test_level_is_lcm_of_orders(self, kummer2):
        assert assemble_diamond(kummer2).level == 2

    def test_level_is_lcm_of_orders_on_integer_grades(self):
        p = OrbifoldPresentation(2, [untwisted(2), InertiaComponent(3, (1, 2), POINT), InertiaComponent(2, (1, 1), POINT)])
        d = assemble_diamond(p)
        assert d.is_integer_graded() and d.lattice()[0] == 1
        assert d.level == math.lcm(*(c.order_l for c, _ in p.sectors)) == 6

    def test_built_and_assembled_maps_set_the_same_slots(self, kummer3):
        def slots(obj, only_set=True):
            declared = (s for cls in type(obj).__mro__ for s in getattr(cls, "__slots__", ()))
            return {s for s in declared if hasattr(obj, s) or not only_set}

        stringy, diamond = stringy_e(kummer3), assemble_diamond(kummer3)
        assert slots(StringyPolynomial({(0, 0): 1})) == slots(stringy) == slots(stringy, only_set=False)
        assert slots(HodgeDiamond.point()) == slots(diamond) == slots(diamond, only_set=False)
        assert "_level" in slots(diamond) - slots(stringy)

    def test_total_is_sum_of_coarse_totals(self, rng):
        for _ in range(25):
            p = random_presentation(rng)
            expected = sum(c.coarse_diamond.total() for c in expanded(p))
            assert assemble_diamond(p).total() == expected

    def test_gorenstein_iff_integer_graded(self, rng):
        for _ in range(25):
            p = random_presentation(rng)
            assert is_gorenstein(p) == assemble_diamond(p).is_integer_graded()

    def test_twisted_contributions_stay_within_narrow_diagonals(self, rng):
        # |p - q| of a twisted contribution is bounded by dim Z <= n - 2.
        for _ in range(25):
            p = random_presentation(rng)
            for c in expanded(p):
                if c.is_untwisted:
                    continue
                dim_z = c.coarse_diamond.dim_n
                assert dim_z <= p.dim_n - 2
                for (pp, qq), _h in c.coarse_diamond.items():
                    assert abs(int(pp - qq)) <= dim_z

    def test_age_zero_iff_untwisted(self, rng):
        for _ in range(25):
            p = random_presentation(rng)
            for c in expanded(p):
                assert (c.age() == 0) == c.is_untwisted

    def test_symmetries_hold_on_random_presentations(self, rng):
        for _ in range(25):
            report = check_symmetries(assemble_diamond(random_presentation(rng)))
            assert report.serre and report.hodge

    def test_out_of_range_shift_rejected(self):
        # Not constructible through the validated types: the shift of a
        # valid sector is strictly below its codimension.  Drive the
        # defensive check with a sector changed past validation.
        p = OrbifoldPresentation(2, [untwisted(2), self.rogue((3, 3), HodgeDiamond(1, {(1, 1): 1}))])
        with pytest.raises(OutOfRangeError, match=r"'rogue' shifts \(1,1\) to \(5/2,5/2\)"):
            assemble_diamond(p)

    @staticmethod
    def rogue(exponents, coarse, label="rogue"):
        """A point sector of order 4 whose exponents and coarse diamond are then changed past validation."""
        made = InertiaComponent(4, (1, 3), POINT, label=label)
        object.__setattr__(made, "exponents", exponents)
        object.__setattr__(made, "coarse_diamond", coarse)
        return made

    def test_the_first_out_of_range_sector_and_entry_are_named(self):
        # Shift 3/2: the entry (0,0) lands at (3/2,3/2) inside [0, 2], the entry (1,1) outside.
        line = HodgeDiamond(1, {(0, 0): 1, (1, 1): 1})
        sectors = [
            untwisted(2),
            (InertiaComponent(3, (1, 2), POINT, label="in range"), 3),
            self.rogue((3, 3), line, label="first"),
            self.rogue((3, 3), HodgeDiamond(0, {(0, 0): 1}), label="in range too"),
            self.rogue((3, 3), line, label="second"),
        ]
        with pytest.raises(OutOfRangeError) as raised:
            assemble_diamond(OrbifoldPresentation(2, sectors))
        assert str(raised.value) == "sector 'first' shifts (1,1) to (5/2,5/2) outside [0, 2]"

    def test_the_range_bound_counts_the_coarse_unit(self):
        # A fractional coarse diamond stores coordinates up to dim·unit = 2, each read as a grade: (2,2) + 1 leaves [0, 2].
        halves = HodgeDiamond(1, {(Fraction(1, 2), Fraction(1, 2)): 1, (1, 1): 1})
        with pytest.raises(OutOfRangeError) as raised:
            assemble_diamond(OrbifoldPresentation(2, [untwisted(2), self.rogue((1, 3), halves)]))
        assert str(raised.value) == "sector 'rogue' shifts (2,2) to (3,3) outside [0, 2]"

    def test_a_negative_shift_whose_entries_stay_in_range_assembles(self):
        # Age -2/4: the one entry (1,1) lands at (1/2,1/2).
        p = OrbifoldPresentation(2, [untwisted(2), (self.rogue((-3, 1), HodgeDiamond(1, {(1, 1): 1})), 2)])
        d = TestFractionReference.assert_matches_reference(p)
        assert d.entry(Fraction(1, 2), Fraction(1, 2)) == 2

    @pytest.mark.parametrize("exponents", [(1, 3), (-3, 1)])
    def test_an_empty_coarse_diamond_adds_nothing(self, exponents):
        p = OrbifoldPresentation(2, [untwisted(2), self.rogue(exponents, HodgeDiamond(0, {}))])
        d = assemble_diamond(p)
        assert list(d.items()) == list(HodgeDiamond.projective_space(2).items()) and d.level == 4


class TestFractionReference:
    """The integer-lattice sums against `support.reference_assembly`."""

    @staticmethod
    def assert_matches_reference(p):
        entries, level, terms = reference_assembly(p)
        d = assemble_diamond(p)
        assert list(d.items()) == entries and d.level == level
        # The unit is canonical: the lcm of the reduced denominators of the stored grades.
        assert d.lattice()[0] == math.lcm(1, *(x.denominator for key, _ in entries for x in key))
        e = stringy_e(p)
        assert dict(e.items()) == terms and list(e.keys()) == sorted(terms)
        # The stringy sign (-1)^{p'+q'} is (-1)^{p-q} of the shifted key.
        assert list(e.items()) == [((pp, qq), (-1) ** int(pp - qq) * h) for (pp, qq), h in d.items()]
        # The unchecked lattice way in gives what the checked public constructors give.
        checked_d = HodgeDiamond(p.dim_n, dict(d.items()), level=d.level)
        for made, checked in [(d, checked_d), (e, StringyPolynomial(dict(e.items())))]:
            assert made == checked and hash(made) == hash(checked)
            assert made.lattice() == checked.lattice() and repr(made) == repr(checked)
        assert d.level == checked_d.level
        return d

    def test_random_presentations_repeated_and_paired(self, rng):
        gorenstein = []
        for _ in range(40):
            p = random_presentation(rng, max_sectors=12)
            gorenstein.append(is_gorenstein(p))
            assert is_gorenstein(p) == all(c.age().denominator == 1 for c in expanded(p))
            for form in (p, *TestMultiplicities.both_forms(rng, p)):
                self.assert_matches_reference(form)
        assert True in gorenstein and False in gorenstein

    @pytest.mark.parametrize(
        "spec",
        [
            ProjectiveQuotientSpec(2, (3,), ((0, 1, 2),)),
            ProjectiveQuotientSpec(2, (13,), ((0, 1, 5),)),
            ProjectiveQuotientSpec(3, (7,), ((0, 1, 2, 4),)),
            ProjectiveQuotientSpec(4, (4, 4), ((0, 1, 2, 3, 1), (0, 0, 1, 3, 2))),
        ],
    )
    def test_projective_quotients(self, spec):
        self.assert_matches_reference(build_projective_quotient(spec))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_kummer(self, n):
        self.assert_matches_reference(build_kummer(n))

    def test_no_age_reduces_so_the_unit_is_the_level(self):
        # Ages 2/3 and 2/5 are in lowest terms, as is the untwisted 0/1.
        p = OrbifoldPresentation(2, [untwisted(2), InertiaComponent(3, (1, 1), POINT), InertiaComponent(5, (1, 1), POINT)])
        d = self.assert_matches_reference(p)
        assert d.lattice()[0] == d.level == 15

    def test_a_reduced_age_puts_the_unit_below_the_level(self):
        # Order 4 with age 2 is the grade 1/2; with the age 2/3 the unit is 6, the level 12.
        p = OrbifoldPresentation(2, [untwisted(2), InertiaComponent(4, (1, 1), POINT), InertiaComponent(3, (1, 1), POINT)])
        d = self.assert_matches_reference(p)
        assert (d.lattice()[0], d.level) == (6, 12)
        assert d.entry(Fraction(1, 2), Fraction(1, 2)) == d.entry(Fraction(2, 3), Fraction(2, 3)) == 1

    def test_shared_and_equal_coarse_diamonds(self, rng):
        for _ in range(30):
            shared_line, shared_point = HodgeDiamond.projective_space(1), HodgeDiamond.point()
            # Many sectors on one coarse object and one shift, each with a count.
            sectors = [untwisted(3), *((InertiaComponent(2, (0, 1, 1), shared_line, label=f"same{k}"), 2) for k in range(6))]
            while len(sectors) < 20:
                l = rng.choice([2, 3, 4, 6, 12])
                dim_z = rng.randint(0, 1)
                nz = [rng.randrange(1, l) for _ in range(3 - dim_z)]
                if math.gcd(l, *nz) != 1:
                    continue
                # The shared object, or an equal but distinct one.
                fresh = HodgeDiamond.projective_space(1) if dim_z else HodgeDiamond.point()
                coarse = rng.choice([(shared_point, shared_line)[dim_z], fresh])
                sectors.append((InertiaComponent(l, [0] * dim_z + nz, coarse), rng.randint(1, 4)))
            self.assert_matches_reference(OrbifoldPresentation(3, sectors))


QUOTIENT_13 = ProjectiveQuotientSpec(2, (13,), ((0, 1, 5),))


class TestAssembledOnce:
    """A presentation keeps its assembled diamond; `stringy_e` signs it."""

    @staticmethod
    def count_sector_walks(monkeypatch, p):
        """A list whose length is the number of coarse `lattice()` reads of `p`'s sectors."""
        coarse = {id(c.coarse_diamond) for c, _ in p.sectors}
        reads = []
        original = HodgeDiamond.lattice

        def counting(self):
            if id(self) in coarse:
                reads.append(self)
            return original(self)

        monkeypatch.setattr(HodgeDiamond, "lattice", counting)
        return reads

    def test_every_call_returns_one_object(self, rng):
        for p in (build_kummer(3), random_presentation(rng), build_projective_quotient(QUOTIENT_13)):
            assert assemble_diamond(p) is assemble_diamond(p)

    @pytest.mark.parametrize("stringy_first", [False, True])
    def test_sectors_are_walked_once(self, monkeypatch, stringy_first):
        p = build_projective_quotient(QUOTIENT_13)
        reads = self.count_sector_walks(monkeypatch, p)
        first, second = (stringy_e, assemble_diamond) if stringy_first else (assemble_diamond, stringy_e)
        for call in (first, second, assemble_diamond):
            call(p)
        # One read per distinct coarse-diamond object (P^2 and the point), however many sectors share it.
        assert len(reads) == len({id(c.coarse_diamond) for c, _ in p.sectors}) == 2 < len(p.sectors) == 37

    @pytest.mark.parametrize("stringy_first", [False, True])
    def test_stringy_e_equals_its_public_rebuild(self, stringy_first):
        for make in (lambda: build_kummer(3), lambda: build_projective_quotient(QUOTIENT_13)):
            p = make()
            e = stringy_e(p) if stringy_first else None
            d = assemble_diamond(p)
            e = e if stringy_first else stringy_e(p)
            signed = {(pp, qq): -h if (pp - qq) % 2 else h for (pp, qq), h in assemble_diamond(make()).items()}
            rebuilt = StringyPolynomial(signed)
            assert e == rebuilt and hash(e) == hash(rebuilt)
            assert e.lattice() == rebuilt.lattice() and repr(e) == repr(rebuilt)
            assert dict(e.items()) == reference_assembly(p)[2] and d is assemble_diamond(p)

    def test_failed_assembly_keeps_nothing(self):
        # A rogue sector slipped past validation, as in test_out_of_range_shift_rejected, inside a real presentation.
        rogue = InertiaComponent(4, (1, 3), POINT, label="rogue")
        object.__setattr__(rogue, "exponents", (3, 3))
        object.__setattr__(rogue, "coarse_diamond", HodgeDiamond(1, {(1, 1): 1}))
        p = OrbifoldPresentation(2, [untwisted(2), rogue])
        for _ in range(2):
            with pytest.raises(OutOfRangeError, match=r"'rogue' shifts \(1,1\) to \(5/2,5/2\)"):
                assemble_diamond(p)
            assert p._diamond is None
        with pytest.raises(OutOfRangeError):
            stringy_e(p)

    def test_equality_and_hash_ignore_the_kept_diamond(self):
        pair = (InertiaComponent(2, (1, 1), POINT), 3)
        for make in (lambda: build_kummer(3), lambda: OrbifoldPresentation(2, [untwisted(2), pair], name="x")):
            a, b = make(), make()
            ha, hb = hash(a), hash(b)
            assemble_diamond(a)
            assert a == b and b == a and hash(a) == ha == hb == hash(b)
            assemble_diamond(b)
            assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
            fresh = make()
            assert fresh == a and hash(fresh) == hash(a) and fresh._diamond is None


class TestExtractH0q:
    def test_kummer_surface_odd_row_vanishes(self, kummer2):
        assert extract_h0q(kummer2, 1) == 0

    def test_kummer_surface_top_row(self, kummer2):
        assert extract_h0q(kummer2, 2) == 1

    def test_connected_space_has_one(self, kummer2, kummer3, p2_mu3):
        for p in (kummer2, kummer3, p2_mu3):
            assert extract_h0q(p, 0) == 1

    def test_matches_assembled_edge(self, rng):
        for _ in range(10):
            p = random_presentation(rng)
            d = assemble_diamond(p)
            for q in range(p.dim_n + 1):
                assert extract_h0q(p, q) == d.entry(0, q)

    def test_reads_h0q_not_hq0(self):
        # An untwisted coarse diamond without Hodge symmetry: h^{0,1} = 1 but h^{1,0} = 0.
        coarse = HodgeDiamond(2, {(0, 0): 1, (0, 1): 1, (1, 1): 1, (2, 2): 1})
        p = OrbifoldPresentation(2, [untwisted(2, coarse)])
        assert coarse.entry(1, 0) == 0
        assert extract_h0q(p, 1) == assemble_diamond(p).entry(0, 1) == 1

    def test_rejects_out_of_range_q(self, kummer2):
        with pytest.raises(ValidationError):
            extract_h0q(kummer2, 3)


def test_columns_of_kummer3_presentation(kummer3):
    assert columns(assemble_diamond(kummer3))[0] == 84
