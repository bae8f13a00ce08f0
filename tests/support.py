"""Shared fixtures: frozen oracle diamonds, random generators, brute-force oracles.

The oracle diamonds below were computed by hand from first principles
(binomial torus Hodge numbers, eigenspace enumeration on P^2, classical
K3/quintic diamonds) and are frozen here so the tests never trust the code
under test for expected values.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

from orbikit import (
    HodgeDiamond,
    InertiaComponent,
    OrbifoldPresentation,
    ProjectiveQuotientSpec,
    PseudoReflectionError,
    ScalarActionError,
    assemble_diamond,
    build_projective_quotient,
)
from orbikit.diamond import check_printable
from orbikit.quotient import MAX_GROUP_ORDER, check_budget

# K3 surface (also: what the Kummer surface must assemble to).
K3_DIAMOND = HodgeDiamond(2, {(0, 0): 1, (2, 0): 1, (0, 2): 1, (1, 1): 20, (2, 2): 1})

# 3-torus mod negation: invariant torus numbers plus 64 points of age 3/2.
KUMMER3_DIAMOND = HodgeDiamond(
    3,
    {
        (0, 0): 1,
        (2, 0): 3,
        (0, 2): 3,
        (1, 1): 9,
        (Fraction(3, 2), Fraction(3, 2)): 64,
        (2, 2): 9,
        (3, 1): 3,
        (1, 3): 3,
        (3, 3): 1,
    },
)

# P^2 mod Z/3 (weights 0,1,2): P^2 plus six isolated age-1 points; equals
# the diamond of the crepant resolution (three A_2 configurations add 6 to
# h^{1,1} of P^2).
P2_MU3_DIAMOND = HodgeDiamond(2, {(0, 0): 1, (1, 1): 7, (2, 2): 1})

# Quintic threefold.
QUINTIC_DIAMOND = HodgeDiamond(
    3,
    {
        (0, 0): 1, (3, 3): 1,
        (1, 1): 1, (2, 2): 1,
        (2, 1): 101, (1, 2): 101,
        (3, 0): 1, (0, 3): 1,
    },
)


def symmetry_orbits(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Orbits of the (p, q) grid under (p,q)->(q,p) and (p,q)->(n-p,n-q)."""
    seen: set[tuple[int, int]] = set()
    orbits = []
    for p in range(n + 1):
        for q in range(n + 1):
            if (p, q) in seen:
                continue
            orbit = {(p, q), (q, p), (n - p, n - q), (n - q, n - p)}
            seen |= orbit
            orbits.append(tuple(sorted(orbit)))
    return orbits


def random_symmetric_diamond(rng: random.Random, n: int, max_entry: int = 4) -> HodgeDiamond:
    """Random integer diamond with Hodge and Serre symmetry and h^{0,0} = 1."""
    entries: dict[tuple[int, int], int] = {}
    for orbit in symmetry_orbits(n):
        v = 1 if (0, 0) in orbit else rng.randint(0, max_entry)
        for key in orbit:
            entries[key] = v
    return HodgeDiamond(n, entries)


def _random_faithful_exponents(rng: random.Random, l: int, k: int) -> list[int] | None:
    """k nonzero exponents in [1, l-1] whose additive orders jointly realize l."""
    for _ in range(64):
        nz = [rng.randint(1, l - 1) for _ in range(k)]
        if math.lcm(*(l // math.gcd(a, l) for a in nz)) == l:
            return sorted(nz)
    return None


def random_presentation(
    rng: random.Random, max_sectors: int = 20, max_order: int = 12
) -> OrbifoldPresentation:
    """Random valid presentation: untwisted sector plus inverse-closed twisted pairs.

    Coarse diamonds are sampled with both symmetries, which is what makes
    the assembled diamond provably symmetric (inverse sectors have ages
    summing to the codimension and carry Serre-dual coarse data).
    """
    n = rng.randint(1, 4)
    comps = [
        InertiaComponent(1, (0,) * n, random_symmetric_diamond(rng, n), label="untwisted")
    ]
    if n >= 2:
        target = rng.randint(1, max_sectors)
        while len(comps) < target:
            l = rng.randint(2, max_order)
            dim_z = rng.randint(0, n - 2)
            nz = _random_faithful_exponents(rng, l, n - dim_z)
            if nz is None:
                continue
            exps = [0] * dim_z + nz
            inv = [0] * dim_z + sorted((l - a) % l for a in nz)
            coarse = random_symmetric_diamond(rng, dim_z, max_entry=3)
            tag = f"s{len(comps)}"
            if exps == inv and rng.random() < 0.5:
                comps.append(InertiaComponent(l, exps, coarse, label=tag))
            elif len(comps) + 2 <= target + 1:
                comps.append(InertiaComponent(l, exps, coarse, label=tag + "+"))
                comps.append(InertiaComponent(l, inv, coarse, label=tag + "-"))
            else:
                break
    return OrbifoldPresentation(n, comps, name=f"random-{rng.getrandbits(32):08x}")


def random_fractional_diamonds(rng: random.Random, count: int):
    """Assembled diamonds of `count` random presentations and of up to `count` P^n/(Z/p), most fractionally graded.

    The P^n/(Z/p) take n in 1..4, a prime p up to 29 and distinct weights with a zero; a weight vector that
    fixes a hyperplane (PseudoReflectionError) is skipped.
    """
    for _ in range(count):
        yield assemble_diamond(random_presentation(rng))
        n, p = rng.randint(1, 4), rng.choice([5, 7, 11, 13, 29])
        weights = (0, *sorted(rng.sample(range(1, p), n)))
        try:
            yield assemble_diamond(build_projective_quotient(ProjectiveQuotientSpec(n, (p,), (weights,))))
        except PseudoReflectionError:
            continue


def expanded(p: OrbifoldPresentation) -> tuple[InertiaComponent, ...]:
    """Every sector of `p`, each component repeated `count` times."""
    return tuple(c for c, count in p.sectors for _ in range(count))


def reference_assembly(p: OrbifoldPresentation):
    """Chen-Ruan diamond and stringy E-function by plain Fraction sums.

    Independent of the integer lattice in `assemble_diamond`/`stringy_e`:
    walks `expanded(p)` (one copy at a time, no counts), takes
    the shift straight from the exponents as Fraction(sum(exps), l) and adds
    Fractions.  Returns (sorted nonzero diamond items, level, nonzero
    stringy terms).
    """
    entries: dict[tuple[Fraction, Fraction], int] = {}
    terms: dict[tuple[Fraction, Fraction], int] = {}
    level = 1
    for c in expanded(p):
        level = math.lcm(level, c.order_l)
        shift = Fraction(sum(c.exponents), c.order_l)
        for (pp, qq), h in c.coarse_diamond.items():
            key = (pp + shift, qq + shift)
            entries[key] = entries.get(key, 0) + h
            terms[key] = terms.get(key, 0) + (-1) ** int(pp + qq) * h
    return (
        sorted((k, h) for k, h in entries.items() if h),
        level,
        {k: c for k, c in terms.items() if c},
    )


def box_sectors(n, orders, weights) -> list[tuple[int, tuple[int, ...], int]]:
    """Sectors of P^n by a diagonal action of Z/m_1 x ... x Z/m_k, from angles in Q/Z.

    Independent of `build_projective_quotient`: no common order, no scaling
    and no multiplicities.  The element with generator powers t turns
    coordinate i by the angle theta_i = sum_j t_j w_ji / m_j, a Fraction in
    [0, 1).  Each distinct angle chi gives the component P(V_chi), whose
    normal directions turn by theta_i - chi in Q/Z: its order l is the least
    l making every such angle integral (found by search), and its exponents
    are l times the angles with one zero, for the component itself, left
    out.  Element by element in product order, a nonidentity element with a
    single angle raises ScalarActionError and a component with a single
    nonzero exponent raises PseudoReflectionError.  Returns the sorted
    (order, exponents, coarse dimension) of every sector.
    """
    sectors = []
    for t in product(*(range(m) for m in orders)):
        if not any(t):
            sectors.append((1, (0,) * n, n))
            continue
        theta = [sum(Fraction(tj * row[i], m) for tj, m, row in zip(t, orders, weights)) % 1 for i in range(n + 1)]
        if len(set(theta)) == 1:
            raise ScalarActionError(f"element {t} is a scalar")
        for chi in sorted(set(theta)):
            turns = [(x - chi) % 1 for x in theta]
            l = next(l for l in range(1, math.prod(orders) + 1) if all((l * x).denominator == 1 for x in turns))
            exponents = sorted(int(l * x) for x in turns)[1:]
            if len(exponents) - exponents.count(0) == 1:
                raise PseudoReflectionError(f"element {t} fixes a hyperplane")
            sectors.append((l, tuple(exponents), exponents.count(0)))
    return sorted(sectors)


def eigenline_sectors(n, orders, weights) -> list[tuple[int, tuple[int, ...], int, str, int]]:
    """Sector rows of P^n by a diagonal action of Z/m_1 x ... x Z/m_k, in the builder's order, one sort per eigenline.

    The reference for `build_projective_quotient`'s order and labels. Element by element in product order, the
    identity gives the untwisted row and every other element turns coordinate i by the exponent eig_i of
    zeta_big, big the lcm of the orders; each distinct eig value chi, ascending, gives P(V_chi) with the sorted
    differences (eig_i - chi) mod big divided by g0 = gcd(big, eig_i - eig_0), one of their zeros left out.
    Raises ScalarActionError for a nonidentity element with a single eigenvalue and PseudoReflectionError for a
    row with a single nonzero exponent, with the builder's messages, made here. Returns the rows
    (order, exponents, coarse dimension, label, count) with every count 1.
    """
    big = math.lcm(1, *orders)
    rows = []
    for t in product(*(range(m) for m in orders)):
        if not any(t):
            rows.append((1, (0,) * n, n, "untwisted", 1))
            continue
        eig = [sum((big // m) * tj * row[i] for tj, m, row in zip(t, orders, weights)) % big for i in range(n + 1)]
        if len(set(eig)) == 1:
            raise ScalarActionError(f"element with generator powers {t} acts as a scalar on P^{n}")
        g0 = math.gcd(big, *(e - eig[0] for e in eig))
        for chi in sorted(set(eig)):
            exponents = sorted((e - chi) % big // g0 for e in eig)
            label, exps = f"g=({','.join(map(str, t))}) eig={chi}", tuple(exponents[1:])
            if len(exps) - exps.count(0) == 1:
                raise PseudoReflectionError(f"sector {label!r} with exponents {exps} fixes a codimension-one locus")
            rows.append((big // g0, exps, exponents.count(0) - 1, label, 1))
    return rows


def enumerate_matching_diamonds(n, column_vector, h01=None, limit=2):
    """Brute-force every integer diamond with h^{0,0} = 1, both symmetries,
    the given column sums and (optionally) the given (0, 1) entry.

    Independent of the closed-form reconstruction: diamonds are enumerated
    as assignments of one value per symmetry orbit, pruned only by the
    requirement that no column budget goes negative.  Returns at most
    `limit` solutions.
    """
    orbits = symmetry_orbits(n)
    contributions = []
    for orbit in orbits:
        contrib: dict[int, int] = {}
        for p, q in orbit:
            contrib[p - q] = contrib.get(p - q, 0) + 1
        contributions.append(contrib)

    solutions: list[HodgeDiamond] = []
    assignment = [0] * len(orbits)

    def recurse(k: int, remaining: dict[int, int]):
        if len(solutions) >= limit:
            return
        if k == len(orbits):
            if all(v == 0 for v in remaining.values()):
                entries: dict[tuple[int, int], int] = {}
                for orbit, value in zip(orbits, assignment):
                    for key in orbit:
                        entries[key] = value
                solutions.append(HodgeDiamond(n, entries))
            return
        orbit, contrib = orbits[k], contributions[k]
        if (0, 0) in orbit:
            choices = [1]
        elif h01 is not None and (0, 1) in orbit:
            choices = [h01]
        else:
            cap = min(remaining[i] // c for i, c in contrib.items())
            choices = range(cap + 1)
        for value in choices:
            nxt = dict(remaining)
            ok = True
            for i, c in contrib.items():
                nxt[i] -= c * value
                if nxt[i] < 0:
                    ok = False
                    break
            if ok:
                assignment[k] = value
                recurse(k + 1, nxt)
        assignment[k] = 0

    recurse(0, {i: column_vector[i] for i in range(-n, n + 1)})
    return solutions


def find_column_equal_pair():
    """Search small symmetric 4-folds for two distinct diamonds with equal
    columns and equal (0,1), (4,0), (3,0) entries."""
    n = 4
    orbits = symmetry_orbits(n)
    free = [o for o in orbits if (0, 0) not in o]
    by_signature: dict[tuple, HodgeDiamond] = {}
    for values in product(range(3), repeat=len(free)):
        entries: dict[tuple[int, int], int] = {}
        for orbit in orbits:
            v = 1 if (0, 0) in orbit else values[free.index(orbit)]
            for key in orbit:
                entries[key] = v
        d = HodgeDiamond(n, entries)
        cols = tuple(sum(h for (p, q), h in d.items() if p - q == i) for i in range(-n, n + 1))
        signature = (cols, d.entry(0, 1), d.entry(4, 0), d.entry(3, 0))
        if signature in by_signature and by_signature[signature] != d:
            return by_signature[signature], d
        by_signature.setdefault(signature, d)
    raise AssertionError("no column-equal pair found in the search range")


# The dense renders cell by cell, as `orbikit.cli` wrote them before its grids were filled from the stored
# entries alone: every cell is looked up, stringified and padded.  The oracle of the table and TeX formats.


def grid_per_cell(d: HodgeDiamond, corner: str) -> list[list[str]]:
    """The dense text grid of `d`: `corner` and the p grades, then each q (top down) and its row.

    Both axes hold [0, n] and every stored grade.  More than
    `MAX_GROUP_ORDER` cells raise GroupTooLargeError before any is built.
    """
    unit, m = d.lattice()
    fractional = {x for key in m for x in key if x % unit}
    cells = (d.dim_n + 1 + len(fractional)) ** 2
    check_budget(cells, f"a dense grid of {cells} cells exceeds the limit {MAX_GROUP_ORDER}; use --format json or csv")
    axis = sorted(fractional.union(range(0, d.dim_n * unit + 1, unit)))
    text = d.grade_text(axis)
    rows = [[corner] + [text[a] for a in axis]]
    for c in reversed(axis):
        rows.append([text[c]] + [str(m.get((a, c), 0)) for a in axis])
    return rows


def render_table_per_cell(name: str, d: HodgeDiamond) -> str:
    check_printable(d.level, "the level", "; use --format json or csv")
    rows = grid_per_cell(d, r"q\p")
    widths = [max(map(len, column)) for column in zip(*rows)]
    body = ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows]
    return "\n".join([f"{name}  (dim {d.dim_n}, level {d.level})", *body])


def render_tex_per_cell(d: HodgeDiamond) -> str:
    rows = grid_per_cell(d, r"q \backslash p")
    head, *body = [" & ".join(f"${cell}$" for cell in row) + r" \\" for row in rows]
    lines = [rf"\begin{{tabular}}{{r|{'c' * (len(rows) - 1)}}}", head, r"\hline", *body, r"\end{tabular}"]
    return "\n".join(lines)
