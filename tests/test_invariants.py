import pytest
from fractions import Fraction
from itertools import product

from orbikit import (
    ColumnVector,
    DimensionMismatchError,
    HodgeDiamond,
    InconsistentError,
    InertiaComponent,
    NonGorensteinOrbifoldError,
    OrbifoldPresentation,
    ParityError,
    UnsupportedDimensionError,
    Verdict,
    assemble_diamond,
    check_partners,
    check_symmetries,
    columns,
    extract_hn0,
    extract_hn10,
    hochschild_via_sectors,
    mckay_compare,
    reconstruct_gorenstein,
)
from support import (
    K3_DIAMOND,
    KUMMER3_DIAMOND,
    P2_MU3_DIAMOND,
    QUINTIC_DIAMOND,
    enumerate_matching_diamonds,
    find_column_equal_pair,
    random_presentation,
    random_symmetric_diamond,
)


def perturb(d, key=None, delta=1):
    entries = dict(d.items())
    key = key or next(iter(entries))
    entries[key] = entries.get(key, 0) + delta
    return HodgeDiamond(d.dim_n, entries)


class TestCheckPartners:
    def test_reflexive_on_k3(self, k3_diamond):
        report = check_partners(k3_diamond, k3_diamond)
        assert report.verdict is Verdict.COMPATIBLE_SO_FAR
        assert report.columns_equal and report.h01_equal
        assert report.hn0_equal and report.hn10_equal
        assert not report.failures

    def test_detects_single_entry_change(self, k3_diamond):
        other = perturb(k3_diamond, key=(Fraction(1), Fraction(1)), delta=-1)
        report = check_partners(k3_diamond, other)
        assert report.verdict is Verdict.INCOMPATIBLE
        assert not report.columns_equal
        assert any(m.constraint == "columns" and m.index == 0 for m in report.failures)
        record = next(m for m in report.failures if m.constraint == "columns")
        assert (record.left, record.right) == (22, 21)

    def test_column_equal_distinct_pair_is_compatible(self):
        a, b = find_column_equal_pair()
        assert a != b
        report = check_partners(a, b)
        assert report.verdict is Verdict.COMPATIBLE_SO_FAR

    def test_hand_built_column_equal_pair(self):
        a = HodgeDiamond(4, {(0, 0): 1, (4, 4): 1, (3, 1): 2, (1, 3): 2})
        b = HodgeDiamond(
            4, {(0, 0): 1, (4, 4): 1, (4, 2): 1, (2, 4): 1, (2, 0): 1, (0, 2): 1}
        )
        assert columns(a) == columns(b) and a != b
        assert check_partners(a, b).verdict is Verdict.COMPATIBLE_SO_FAR

    def test_dimension_mismatch(self, k3_diamond):
        with pytest.raises(DimensionMismatchError):
            check_partners(k3_diamond, KUMMER3_DIAMOND)

    def test_symmetric_in_arguments(self, k3_diamond):
        other = perturb(k3_diamond)
        fwd = check_partners(k3_diamond, other)
        bwd = check_partners(other, k3_diamond)
        assert fwd.verdict == bwd.verdict
        assert [(m.constraint, m.index, m.right, m.left) for m in fwd.failures] == [
            (m.constraint, m.index, m.left, m.right) for m in bwd.failures
        ]

    def test_h0q_mismatch_is_informational_only(self):
        # Equal columns and equal h01/hn0/hn10, but different (0,2) rows.
        a = HodgeDiamond(4, {(0, 0): 1, (4, 4): 1, (2, 0): 1, (0, 2): 1, (4, 2): 1, (2, 4): 1})
        b = HodgeDiamond(4, {(0, 0): 1, (4, 4): 1, (3, 1): 2, (1, 3): 2})
        report = check_partners(a, b)
        assert report.verdict is Verdict.COMPATIBLE_SO_FAR
        assert any(m.constraint == "h0q" and m.index == (0, 2) for m in report.informational)

    def test_strict_mode_separates_entrywise_differences(self):
        a = HodgeDiamond(2, {(0, 0): 2, (2, 2): 2})
        b = HodgeDiamond(2, {(0, 0): 1, (1, 1): 2, (2, 2): 1})
        relaxed = check_partners(a, b)
        assert relaxed.verdict is Verdict.COMPATIBLE_SO_FAR
        strict = check_partners(a, b, strict_dim3=True)
        assert strict.strict_equal is False
        assert strict.verdict is Verdict.INCOMPATIBLE
        assert any(m.constraint == "entry" for m in strict.failures)

    def test_strict_mode_ignored_outside_its_range(self, k3_diamond):
        a, b = find_column_equal_pair()  # dimension 4
        assert check_partners(a, b, strict_dim3=True).strict_equal is None
        frac = check_partners(KUMMER3_DIAMOND, KUMMER3_DIAMOND, strict_dim3=True)
        assert frac.strict_equal is None
        ok = check_partners(k3_diamond, k3_diamond, strict_dim3=True)
        assert ok.strict_equal is True

    def test_mismatches_match_a_walk_over_every_index(self, rng):
        # The comparison visits stored keys only; walking every column in
        # [-n, n] and every 2 <= q < n must find the same mismatches, in order.
        for _ in range(60):
            n = rng.randint(0, 5)
            a, b = (
                HodgeDiamond(n, {(rng.randint(0, n), rng.randint(0, n)): rng.randint(0, 2) for _ in range(8)})
                for _ in range(2)
            )
            report = check_partners(a, b)
            ca, cb = columns(a), columns(b)
            assert [(m.index, m.left, m.right) for m in report.failures if m.constraint == "columns"] == [
                (i, ca[i], cb[i]) for i in range(-n, n + 1) if ca[i] != cb[i]
            ]
            assert [(m.index, m.left, m.right) for m in report.informational] == [
                ((0, q), a.entry(0, q), b.entry(0, q)) for q in range(2, n) if a.entry(0, q) != b.entry(0, q)
            ]
            assert all(type(m.index[1]) is int for m in report.informational)
            flags = {"columns": ca == cb} | {
                name: a.entry(*key) == b.entry(*key) for name, key in [("h01", (0, 1)), ("hn0", (n, 0)), ("hn10", (n - 1, 0))]
            }
            assert {name: getattr(report, f"{name}_equal") for name in flags} == flags
            assert (report.verdict is Verdict.COMPATIBLE_SO_FAR) == all(flags.values())

    def test_reflexive_on_all_builtins(self, kummer2, kummer3, p2_mu3):
        for p in (kummer2, kummer3, p2_mu3):
            d = assemble_diamond(p)
            assert check_partners(d, d).verdict is Verdict.COMPATIBLE_SO_FAR


class TestExtract:
    def test_hn0(self, k3_diamond):
        assert extract_hn0(columns(KUMMER3_DIAMOND)) == 0
        assert extract_hn0(columns(k3_diamond)) == 1
        assert extract_hn0(columns(HodgeDiamond.projective_space(2))) == 0

    def test_hn10(self, k3_diamond):
        c3 = columns(KUMMER3_DIAMOND)
        assert c3[2] == 6
        assert extract_hn10(c3) == 3 == KUMMER3_DIAMOND.entry(2, 0)
        assert extract_hn10(columns(k3_diamond)) == 0

    def test_hn10_parity_error(self):
        with pytest.raises(ParityError):
            extract_hn10(ColumnVector(3, {2: 5, -2: 5, 0: 2}))

    def test_hn0_matches_assembled_entry(self, rng):
        for _ in range(20):
            p = random_presentation(rng)
            d = assemble_diamond(p)
            assert extract_hn0(columns(d)) == d.entry(p.dim_n, 0)


class TestReconstruct:
    def test_quintic(self):
        cols = ColumnVector(3, {3: 1, -3: 1, 1: 101, -1: 101, 0: 4})
        assert reconstruct_gorenstein(cols, h01=0) == QUINTIC_DIAMOND

    def test_k3(self):
        cols = ColumnVector(2, {2: 1, -2: 1, 0: 22})
        assert reconstruct_gorenstein(cols) == K3_DIAMOND

    def test_minimal_threefold(self):
        cols = ColumnVector(3, {0: 2})
        d = reconstruct_gorenstein(cols, h01=0)
        assert d == HodgeDiamond(3, {(0, 0): 1, (3, 3): 1})

    def test_dimension_zero_and_one(self):
        assert reconstruct_gorenstein(ColumnVector(0, {0: 1})) == HodgeDiamond(0, {(0, 0): 1})
        genus2 = reconstruct_gorenstein(ColumnVector(1, {1: 2, -1: 2, 0: 2}))
        assert genus2 == HodgeDiamond(1, {(0, 0): 1, (1, 1): 1, (1, 0): 2, (0, 1): 2})
        with pytest.raises(InconsistentError, match="h01"):
            reconstruct_gorenstein(ColumnVector(0, {0: 1}), h01=1)

    @pytest.mark.parametrize(
        "cols,h01",
        [
            (ColumnVector(3, {3: 1, -3: 1, 2: 1, -2: 1, 0: 4}), 0),  # odd c2
            (ColumnVector(3, {1: 1, -1: 1, 0: 4}), 1),  # c1 < 2*h01
            (ColumnVector(3, {0: 3}), 0),  # odd c0 - 2
            (ColumnVector(3, {0: 0}), 0),  # c0 < 2
            (ColumnVector(2, {1: 3, -1: 3, 0: 2}), None),  # odd c1
            (ColumnVector(2, {0: 1}), None),  # c0 < 2
            (ColumnVector(1, {0: 3}), None),  # c0 != 2
            (ColumnVector(0, {0: 2}), None),  # c0 != 1
        ],
    )
    def test_inconsistent_inputs(self, cols, h01):
        with pytest.raises(InconsistentError):
            reconstruct_gorenstein(cols, h01=h01)

    def test_asymmetric_columns_rejected(self):
        with pytest.raises(InconsistentError):
            reconstruct_gorenstein(ColumnVector(2, {2: 1, 0: 22}))

    def test_h01_required_in_dimension_three(self):
        with pytest.raises(InconsistentError):
            reconstruct_gorenstein(ColumnVector(3, {0: 2}))

    def test_h01_cross_checked_when_determined(self):
        cols = ColumnVector(2, {1: 2, -1: 2, 0: 22, 2: 1, -2: 1})
        assert reconstruct_gorenstein(cols, h01=1).entry(1, 0) == 1
        with pytest.raises(InconsistentError):
            reconstruct_gorenstein(cols, h01=3)

    def test_dimension_above_three_refused(self):
        with pytest.raises(UnsupportedDimensionError):
            reconstruct_gorenstein(ColumnVector(4, {0: 2}))

    def test_dimension_argument_must_match(self):
        with pytest.raises(InconsistentError):
            reconstruct_gorenstein(ColumnVector(2, {0: 22}), n=3)

    def test_agrees_with_brute_force(self):
        """Every symmetric column vector with values 0..5: the unique brute-force diamond, else
        InconsistentError naming the column.  The oracle knows neither stated rule: a threefold
        needs h01, and a point has no h^{1,0}."""
        for n in range(5):
            for values in product(range(6), repeat=n + 1):
                c = ColumnVector(n, {s * i: v for i, v in enumerate(values) for s in (1, -1)})
                for h01 in (None, 0, 1, 2):
                    if n == 4:
                        with pytest.raises(UnsupportedDimensionError):
                            reconstruct_gorenstein(c, h01=h01)
                        continue
                    if n == 3 and h01 is None:
                        with pytest.raises(InconsistentError) as exc:
                            reconstruct_gorenstein(c)
                        assert str(exc.value) == "h01 is required to reconstruct a threefold diamond"
                        continue
                    if n == 0 and h01:
                        with pytest.raises(InconsistentError):
                            reconstruct_gorenstein(c, h01=h01)
                        continue
                    found = enumerate_matching_diamonds(n, c, h01=h01, limit=2)
                    if len(found) == 1:
                        assert reconstruct_gorenstein(c, h01=h01) == found[0]
                    else:
                        with pytest.raises(InconsistentError, match="column"):
                            reconstruct_gorenstein(c, h01=h01)

    def test_round_trip_random(self, rng):
        for _ in range(200):
            n = rng.randint(0, 3)
            d = random_symmetric_diamond(rng, n, max_entry=6)
            assert reconstruct_gorenstein(columns(d), h01=d.entry(0, 1), n=n) == d

    def test_uniqueness_by_enumeration(self, rng):
        cases = [
            (QUINTIC_DIAMOND, 0),
            (K3_DIAMOND, 0),
            (HodgeDiamond(3, {(0, 0): 1, (3, 3): 1}), 0),
        ]
        for _ in range(10):
            n = rng.randint(0, 3)
            d = random_symmetric_diamond(rng, n, max_entry=2)
            cases.append((d, d.entry(0, 1)))
        for d, h01 in cases:
            found = enumerate_matching_diamonds(d.dim_n, columns(d), h01=h01, limit=2)
            assert found == [d]


class TestHochschildViaSectors:
    def test_kummer_surface(self, kummer2):
        assert hochschild_via_sectors(kummer2) == ColumnVector(2, {-2: 1, 0: 22, 2: 1})

    def test_untwisted_only(self):
        curve = HodgeDiamond(1, {(0, 0): 1, (1, 0): 3, (0, 1): 3, (1, 1): 1})
        p = OrbifoldPresentation(1, [InertiaComponent(1, (0,), curve)], name="curve")
        assert hochschild_via_sectors(p) == columns(curve)

    def test_p2_mu3(self, p2_mu3):
        assert hochschild_via_sectors(p2_mu3) == ColumnVector(2, {0: 9})

    def test_matches_columns_of_assembly(self, rng, kummer2, kummer3, p2_mu3):
        presentations = [kummer2, kummer3, p2_mu3]
        presentations += [random_presentation(rng) for _ in range(20)]
        for p in presentations:
            assert hochschild_via_sectors(p) == columns(assemble_diamond(p))


class TestMcKayCompare:
    def test_p2_mu3_vs_resolution(self, p2_mu3):
        report = mckay_compare(assemble_diamond(p2_mu3), P2_MU3_DIAMOND)
        assert report.equal and not report.differences

    def test_k3_vs_itself(self, k3_diamond):
        assert mckay_compare(k3_diamond, K3_DIAMOND).equal

    def test_non_gorenstein_rejected(self, k3_diamond):
        frac = HodgeDiamond(3, dict(KUMMER3_DIAMOND.items()))
        with pytest.raises(NonGorensteinOrbifoldError):
            mckay_compare(frac, HodgeDiamond.projective_space(3))

    def test_fractional_resolution_rejected(self):
        from orbikit import ValidationError

        with pytest.raises(ValidationError):
            mckay_compare(HodgeDiamond.projective_space(3), KUMMER3_DIAMOND)

    def test_differences_are_listed(self, p2_mu3):
        report = mckay_compare(assemble_diamond(p2_mu3), HodgeDiamond.projective_space(2))
        assert not report.equal
        assert [(m.index, m.left, m.right) for m in report.differences] == [
            ((Fraction(1), Fraction(1)), 7, 1)
        ]

    def test_dimension_mismatch(self, k3_diamond):
        with pytest.raises(DimensionMismatchError):
            mckay_compare(k3_diamond, HodgeDiamond.projective_space(3))


def test_reconstruction_output_is_symmetric(rng):
    for _ in range(50):
        n = rng.randint(0, 3)
        d = random_symmetric_diamond(rng, n, max_entry=5)
        rebuilt = reconstruct_gorenstein(columns(d), h01=d.entry(0, 1))
        report = check_symmetries(rebuilt)
        assert report.serre and report.hodge
        assert columns(rebuilt) == columns(d)
