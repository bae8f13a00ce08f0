import hashlib
import math
import random
import re
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from orbikit import (
    DimensionTooSmallError,
    GroupTooLargeError,
    HodgeDiamond,
    KummerSpec,
    ProjectiveQuotientSpec,
    PseudoReflectionError,
    ScalarActionError,
    ValidationError,
    assemble_diamond,
    build_kummer,
    build_projective_quotient,
    check_symmetries,
    extract_h0q,
    is_gorenstein,
    stringy_e,
)
from support import K3_DIAMOND, KUMMER3_DIAMOND, P2_MU3_DIAMOND, box_sectors, eigenline_sectors, expanded


def spec(n, orders, weights):
    return ProjectiveQuotientSpec(n, tuple(orders), tuple(tuple(r) for r in weights))


def independent_fixed_point_euler(n, orders, weights):
    """Sum of Euler numbers of all fixed loci, from eigenvalue multiplicities
    alone: chi(Fix(g)) is the number of coordinates in each eigenspace."""
    big = math.lcm(1, *orders)
    total = 0
    for t in product(*(range(m) for m in orders)):
        eig = [
            sum((big // m) * tj * row[i] for tj, m, row in zip(t, orders, weights)) % big
            for i in range(n + 1)
        ]
        total += n + 1 if not any(t) else len(eig)
    return total


class TestProjectiveQuotient:
    def test_p2_mu3_sectors(self, p2_mu3):
        assert len(expanded(p2_mu3)) == 7
        twisted = [c for c in expanded(p2_mu3) if not c.is_untwisted]
        assert len(twisted) == 6
        assert all(c.order_l == 3 and c.age() == 1 for c in twisted)
        assert all(c.coarse_diamond == HodgeDiamond.point() for c in twisted)

    def test_p2_mu3_diamond(self, p2_mu3):
        assert assemble_diamond(p2_mu3) == P2_MU3_DIAMOND
        assert is_gorenstein(p2_mu3)

    def test_pseudo_reflection_on_p1(self):
        with pytest.raises(PseudoReflectionError, match=r"^sector 'g=\(1\) eig=0' with exponents \(1,\) "):
            build_projective_quotient(spec(1, [2], [[0, 1]]))

    def test_pseudo_reflection_from_a_power(self):
        # The generator does not, but its square (order 3) fixes a plane in P^3.
        with pytest.raises(PseudoReflectionError, match=r"^sector 'g=\(2\) eig=0' with exponents \(0, 0, 2\) "):
            build_projective_quotient(spec(3, [6], [[0, 0, 2, 3]]))

    def test_trivial_group(self):
        p = build_projective_quotient(spec(2, [], []))
        assert len(expanded(p)) == 1
        assert assemble_diamond(p) == HodgeDiamond.projective_space(2)

    def test_scalar_action_rejected(self):
        with pytest.raises(ScalarActionError):
            build_projective_quotient(spec(2, [3], [[1, 1, 1]]))

    def test_hidden_scalar_in_product_group(self):
        # (1, 2) acts trivially even though neither generator power does.
        with pytest.raises(ScalarActionError):
            build_projective_quotient(spec(2, [3, 3], [[0, 1, 2], [0, 1, 2]]))

    def test_group_too_large(self):
        big = spec(2, [10001], [[0, 1, 2]])
        with pytest.raises(GroupTooLargeError):
            build_projective_quotient(big)

    def test_coordinates_share_the_group_order_budget(self):
        # n + 1 homogeneous coordinates against MAX_GROUP_ORDER = 10 000, refused before P^n is built.
        assert assemble_diamond(build_projective_quotient(spec(9999, [], []))).total() == 10_000
        start = time.perf_counter()
        with pytest.raises(GroupTooLargeError, match=r"^projective dimension 100000 has 100001 coordinates, "
                                                     r"which exceeds the limit 10000$"):
            build_projective_quotient(ProjectiveQuotientSpec(10**5, (), ()))
        assert time.perf_counter() - start < 1

    def test_positive_dimensional_fixed_loci(self):
        p = build_projective_quotient(spec(3, [2], [[0, 0, 1, 1]]))
        twisted = [c for c in expanded(p) if not c.is_untwisted]
        assert len(twisted) == 2
        assert all(c.coarse_diamond == HodgeDiamond.projective_space(1) for c in twisted)
        assert all(c.age() == 1 for c in twisted)
        d = assemble_diamond(p)
        assert d == HodgeDiamond(3, {(0, 0): 1, (1, 1): 3, (2, 2): 3, (3, 3): 1})

    def test_jointly_faithful_sector_is_produced(self):
        # Isolated mu_6 point of type (2,2,3,3): no exponent is coprime to 6.
        p = build_projective_quotient(spec(4, [6], [[0, 2, 2, 3, 3]]))
        wanted = [c for c in expanded(p) if c.exponents == (2, 2, 3, 3)]
        assert wanted and all(c.order_l == 6 for c in wanted)
        report = check_symmetries(assemble_diamond(p))
        assert report.serre and report.hodge

    def test_inverse_sectors_pair_with_codimension(self):
        cases = [
            spec(2, [3], [[0, 1, 2]]),
            spec(3, [2], [[0, 0, 1, 1]]),
            spec(4, [6], [[0, 2, 2, 3, 3]]),
            spec(3, [2, 2], [[0, 0, 1, 1], [0, 1, 0, 1]]),
        ]
        label_re = re.compile(r"g=\(([0-9,]*)\) eig=(\d+)")
        for s in cases:
            p = build_projective_quotient(s)
            big = math.lcm(1, *s.cyclic_orders)
            by_key = {}
            for c in expanded(p):
                if c.is_untwisted:
                    continue
                m = label_re.fullmatch(c.label)
                t = tuple(int(x) for x in m.group(1).split(","))
                chi = int(m.group(2))
                by_key[(t, chi)] = c
            for (t, chi), c in by_key.items():
                t_inv = tuple((-x) % m for x, m in zip(t, s.cyclic_orders))
                eig = [
                    sum((big // m) * tj * row[i] for tj, m, row in zip(t_inv, s.cyclic_orders, s.weights)) % big
                    for i in range(s.proj_dim_n + 1)
                ]
                # The same coordinates fix the inverse; its eigenvalue there
                # is read off any coordinate of the original eigenspace.
                orig_eig = [
                    sum((big // m) * tj * row[i] for tj, m, row in zip(t, s.cyclic_orders, s.weights)) % big
                    for i in range(s.proj_dim_n + 1)
                ]
                coord = orig_eig.index(chi)
                partner = by_key[(t_inv, eig[coord])]
                codim = s.proj_dim_n - c.coarse_diamond.dim_n
                assert c.age() + partner.age() == codim

    def test_euler_number_cross_check(self):
        cases = [
            (2, [3], [[0, 1, 2]]),
            (3, [2], [[0, 0, 1, 1]]),
            (4, [6], [[0, 2, 2, 3, 3]]),
            (3, [2, 2], [[0, 0, 1, 1], [0, 1, 0, 1]]),
        ]
        for n, orders, weights in cases:
            p = build_projective_quotient(spec(n, orders, weights))
            signed_total = sum(c for _, c in stringy_e(p).items())
            assert signed_total == independent_fixed_point_euler(n, orders, weights)

    def test_symmetries_on_generated_presentations(self):
        cases = [
            spec(2, [3], [[0, 1, 2]]),
            spec(2, [], []),
            spec(3, [2, 2], [[0, 0, 1, 1], [0, 1, 0, 1]]),
            spec(4, [5], [[0, 1, 2, 3, 4]]),
        ]
        for s in cases:
            report = check_symmetries(assemble_diamond(build_projective_quotient(s)))
            assert report.serre and report.hodge

    def test_deterministic_sector_order(self):
        s = spec(3, [2, 2], [[0, 0, 1, 1], [0, 1, 0, 1]])
        a = build_projective_quotient(s)
        b = build_projective_quotient(s)
        assert expanded(a) == expanded(b)

    def test_non_integer_weight_is_refused(self):
        with pytest.raises(ValidationError, match=r"^weights must be integers, got 1\.0$"):
            ProjectiveQuotientSpec(2, (3,), ((0, 1.0, 2),))

    def test_weight_shape_validation(self):
        with pytest.raises(ValidationError):
            ProjectiveQuotientSpec(2, (3,), ((0, 1),))
        with pytest.raises(ValidationError):
            ProjectiveQuotientSpec(2, (3, 2), ((0, 1, 2),))
        with pytest.raises(ValidationError):
            ProjectiveQuotientSpec(0, (), ())


class TestElementCoordinateBudget:
    """|G|·(n + 1), the (element, coordinate) pairs the projective enumeration visits, is at most 40 000."""

    def test_p4_at_the_bound_builds_every_sector(self):
        # Sectors: the untwisted P^4 and one per distinct eigenvalue t·i mod 8000 of each element t != 0.
        expected = 1 + sum(len({t * i % 8000 for i in range(5)}) for t in range(1, 8000))
        p = build_projective_quotient(spec(4, [8000], [[0, 1, 2, 3, 4]]))
        assert sum(count for _, count in p.sectors) == expected == 39_991

    def test_p4_past_the_bound_is_refused_before_building(self):
        start = time.perf_counter()
        with pytest.raises(GroupTooLargeError, match=r"^group order 8001 times 5 coordinates exceeds the limit 40000$"):
            build_projective_quotient(spec(4, [8001], [[0, 1, 2, 3, 4]]))
        assert time.perf_counter() - start < 1

    def test_the_order_and_coordinate_budgets_are_checked_first(self):
        with pytest.raises(GroupTooLargeError, match=r"^group order 10001 exceeds the limit 10000$"):
            build_projective_quotient(spec(4, [10001], [[0, 1, 2, 3, 4]]))
        with pytest.raises(GroupTooLargeError, match=r"^projective dimension 100000 has 100001 coordinates, "):
            build_projective_quotient(spec(10**5, [2], [[0] * 10**5 + [1]]))


    def test_p3_product_group_at_the_bound_builds_every_sector(self):
        # |G|·(n + 1) = 10 000 · 4 = 40 000: the largest table of eigenvalue rows the budget admits. Every 2×2 minor
        # of the weight differences is a unit mod 100, so no element fixes a hyperplane.
        args = (3, [100, 100], [[0, 1, 0, 3], [0, 0, 1, 7]])
        p = build_projective_quotient(spec(*args))
        rows = [(c.order_l, c.exponents, c.coarse_diamond.dim_n, c.label, count) for c, count in p.sectors]
        assert len(rows) == 39_403
        assert rows == eigenline_sectors(*args)

    def test_product_group_past_the_bound_is_refused_before_building(self):
        # 8080 · 5 = 40 400 pairs; one eigenvalue row per element alone would take about a megabyte.
        tracemalloc.start()
        try:
            with pytest.raises(GroupTooLargeError, match=r"^group order 8080 times 5 coordinates exceeds the limit 40000$"):
                build_projective_quotient(spec(4, [80, 101], [[0, 1, 2, 3, 4], [0, 2, 3, 5, 7]]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestPinnedOutput:
    """The builder's exact output: sectors in order, with labels and counts, and its error messages."""

    # (spec, name) -> (stored pairs, name, sha256 of the repr of the sector rows)
    CASES = {
        "p2_mu3": (
            (2, [3], [[0, 1, 2]]), "p2_mu3",
            (7, "p2_mu3", "172a27d7b9af82c3dcc0bd0cdade9a8e3761b279042aa224614f1bf437253b56"),
        ),
        "p5_z20xz20": (
            (5, [20, 20], [[0, 17, 19, 12, 15, 7], [0, 9, 0, 2, 4, 15]]), None,
            (2067, "p5_z20xz20", "10886db17dcbeb26f65d4846ec39129151467514b73e112c0553e6e8766dcff1"),
        ),
        # Elements 3333 and 6666 have a 2-dimensional eigenspace (a fixed line).
        "p3_z9999": (
            (3, [9999], [[0, 1, 2, 12]]), None,
            (39981, "p3_z9999", "528610d65d531f98df21a380273b5c2c8dd90105cf6ba4780b8e2e4a4f4e2f47"),
        ),
        "trivial": (
            (2, [], []), None,
            (1, "p2_trivial", "b9c7d9c71224dfdab272d88380d70f3a217f2d1ab1b5b7f03d3cfd32836b25a1"),
        ),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_sector_digest(self, case):
        args, name, expected = self.CASES[case]
        p = build_projective_quotient(spec(*args), name=name)
        rows = [(c.order_l, c.exponents, c.coarse_diamond.dim_n, c.label, count) for c, count in p.sectors]
        assert (len(rows), p.name, hashlib.sha256(repr(rows).encode()).hexdigest()) == expected

    @pytest.mark.parametrize("args,error,message", [
        ((2, [3], [[1, 1, 1]]), ScalarActionError, "element with generator powers (1,) acts as a scalar on P^2"),
        ((2, [3, 3], [[0, 1, 2], [0, 1, 2]]), ScalarActionError,
         "element with generator powers (1, 2) acts as a scalar on P^2"),
        ((3, [6], [[0, 0, 2, 3]]), PseudoReflectionError,
         "sector 'g=(2) eig=0' with exponents (0, 0, 2) fixes a codimension-one locus"),
    ])
    def test_error_messages(self, args, error, message):
        with pytest.raises(ValidationError) as caught:
            build_projective_quotient(spec(*args))
        assert (type(caught.value), str(caught.value)) == (error, message)

    def test_box_oracle_on_random_specs(self):
        """The builder against the Q/Z box oracle: same sector multiset, or the same error type."""
        rng = random.Random(20261018)
        outcomes = Counter()
        for _ in range(300):
            n = rng.randint(1, 4)
            orders = [rng.choice([2, 3, 4, 5, 6, 8, 9, 10, 12]) for _ in range(rng.randint(1, 2))]
            weights = [[rng.randrange(m) for _ in range(n + 1)] for m in orders]
            try:
                expected = box_sectors(n, orders, weights)
            except ValidationError as exc:
                with pytest.raises(type(exc)):
                    build_projective_quotient(spec(n, orders, weights))
                outcomes[type(exc).__name__] += 1
                continue
            p = build_projective_quotient(spec(n, orders, weights))
            got = sorted((c.order_l, c.exponents, c.coarse_diamond.dim_n) for c in expanded(p))
            assert got == expected, (n, orders, weights)
            outcomes["built"] += 1
        # Each outcome occurs often enough to count (27 scalar actions is the fewest at this seed).
        assert min(outcomes[k] for k in ("built", "ScalarActionError", "PseudoReflectionError")) >= 20

    def test_eigenline_reference_on_random_specs(self):
        """The builder against a sort per eigenline: the same rows in the same order, labels and counts
        included, or the same error type and message."""
        rng = random.Random(20261020)
        outcomes = Counter()
        for _ in range(300):
            n = rng.randint(1, 5)
            orders = [rng.choice([2, 3, 4, 5, 6, 7, 8, 9, 10, 12]) for _ in range(rng.randint(1, 2))]
            weights = []
            for m in orders:
                row = [rng.randrange(m)]
                for _ in range(n):  # about a third of the coordinates repeat an earlier weight
                    row.append(rng.choice(row) if rng.random() < 0.3 else rng.randrange(m))
                weights.append(row)
            try:
                expected = eigenline_sectors(n, orders, weights)
            except ValidationError as exc:
                with pytest.raises(ValidationError) as caught:
                    build_projective_quotient(spec(n, orders, weights))
                assert (type(caught.value), str(caught.value)) == (type(exc), str(exc)), (n, orders, weights)
                outcomes[type(exc).__name__] += 1
                continue
            p = build_projective_quotient(spec(n, orders, weights))
            rows = [(c.order_l, c.exponents, c.coarse_diamond.dim_n, c.label, count) for c, count in p.sectors]
            assert rows == expected, (n, orders, weights)
            outcomes["built"] += 1
            outcomes["repeated weights"] += any(len(set(row)) <= n for row in weights)
        assert min(outcomes[k] for k in ("built", "ScalarActionError", "PseudoReflectionError", "repeated weights")) >= 20

    def test_eigenline_reference_on_shapes_the_random_specs_skip(self):
        """The builder against a sort per eigenline on up to three generators, generators of order 1, weights
        outside [0, m) (negative ones included) and the trivial group: the same rows, or the same error type and
        message."""
        rng = random.Random(20261021)
        outcomes = Counter()
        for _ in range(300):
            n = rng.randint(1, 4)
            orders = [rng.choice([1, 2, 3, 4, 5, 6]) for _ in range(rng.choice([0, 1, 2, 3, 3, 3]))]
            weights = [[rng.randint(-2 * m, 2 * m) for _ in range(n + 1)] for m in orders]
            try:
                expected = eigenline_sectors(n, orders, weights)
            except ValidationError as exc:
                with pytest.raises(ValidationError) as caught:
                    build_projective_quotient(spec(n, orders, weights))
                assert (type(caught.value), str(caught.value)) == (type(exc), str(exc)), (n, orders, weights)
                outcomes[type(exc).__name__] += 1
                continue
            p = build_projective_quotient(spec(n, orders, weights))
            rows = [(c.order_l, c.exponents, c.coarse_diamond.dim_n, c.label, count) for c, count in p.sectors]
            assert rows == expected, (n, orders, weights)
            outcomes["built"] += 1
            outcomes["three generators"] += len(orders) == 3
            outcomes["an order-1 generator"] += 1 in orders
            outcomes["a negative weight"] += any(w < 0 for row in weights for w in row)
            outcomes["trivial group"] += not orders
        # Each outcome occurs often enough to count; at this seed the fewest are 24 builds with three generators.
        assert min(outcomes[k] for k in ("built", "ScalarActionError", "PseudoReflectionError")) >= 40
        assert min(outcomes[k] for k in ("three generators", "an order-1 generator", "a negative weight", "trivial group")) >= 20


class TestKummer:
    def test_surface_is_k3(self, kummer2):
        assert assemble_diamond(kummer2) == K3_DIAMOND

    def test_sector_count(self, kummer2, kummer3):
        assert len(expanded(kummer2)) == 1 + 2**4
        assert len(expanded(kummer3)) == 1 + 2**6

    def test_threefold_fractional(self, kummer3):
        twisted = [c for c in expanded(kummer3) if not c.is_untwisted]
        assert len(twisted) == 64
        assert all(c.age() == Fraction(3, 2) for c in twisted)
        assert not is_gorenstein(kummer3)
        assert assemble_diamond(kummer3) == KUMMER3_DIAMOND

    def test_odd_invariants_vanish(self, kummer2):
        assert extract_h0q(kummer2, 1) == 0

    def test_untwisted_binomials(self, kummer3):
        u = kummer3.untwisted.coarse_diamond
        assert u.entry(1, 1) == 9
        assert u.entry(2, 0) == 3
        assert u.entry(1, 0) == 0
        assert u.total() == 2**5  # half of b(T^3) = 2^6

    def test_dimension_too_small(self):
        with pytest.raises(DimensionTooSmallError):
            build_kummer(1)
        with pytest.raises(DimensionTooSmallError):
            KummerSpec(1)

    def test_accepts_spec_or_int(self):
        assert build_kummer(KummerSpec(2)) == build_kummer(2)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_stored_once_expanded_on_demand(self, n):
        p = build_kummer(n)
        assert [k for _, k in p.sectors] == [1, 4**n]
        assert len(expanded(p)) == 4**n + 1
        assert sum(not c.is_untwisted for c in expanded(p)) == 4**n

    def test_dimension_twenty_stays_small(self):
        # 4^20 + 1 sectors, 2 of them distinct; never expanded.
        p = build_kummer(20)
        assert len(p.sectors) == 2
        d = assemble_diamond(p)
        assert d.entry(10, 10) == math.comb(20, 10) ** 2 + 4**20
        assert d.total() == 2**39 + 4**20

    def test_torus_pairs_share_the_group_order_budget(self):
        # (n + 1)^2 pairs (p, q) against MAX_GROUP_ORDER = 10 000.
        assert build_kummer(99).untwisted.coarse_diamond.entry(0, 0) == 1
        with pytest.raises(GroupTooLargeError, match=r"^torus dimension 100 has 10201 Hodge pairs"):
            build_kummer(100)

    def test_higher_dimension_sector_count(self):
        p = build_kummer(4)
        assert len(expanded(p)) == 1 + 2**8
        report = check_symmetries(assemble_diamond(p))
        assert report.serre and report.hodge
        assert is_gorenstein(p)  # age 4/2 = 2 is integral
