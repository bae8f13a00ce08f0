"""Expected values computed without orbikit.

Nothing here imports the package under test.  Diamonds are plain dicts
mapping (p, q) grades (ints or Fractions) to Hodge numbers, so they can be
compared directly with `dict(diamond.items())` of an orbikit result.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product


def kummer_diamond(n: int) -> dict:
    """Torus mod negation: C(n,p)*C(n,q) at even p+q, plus 4^n points of age n/2."""
    entries = {
        (Fraction(p), Fraction(q)): math.comb(n, p) * math.comb(n, q)
        for p in range(n + 1)
        for q in range(n + 1)
        if (p + q) % 2 == 0
    }
    mid = (Fraction(n, 2), Fraction(n, 2))
    entries[mid] = entries.get(mid, 0) + 4**n
    return entries


def kummer_stringy_euler(n: int) -> int:
    return 2 ** (2 * n - 1) + 4**n


def element_eigenvalues(n: int, orders, weights, t) -> list[int]:
    """Eigenvalue exponents of the element with generator powers t, over lcm(orders)."""
    big = math.lcm(1, *orders)
    return [
        sum((big // m) * t[j] * weights[j][i] for j, m in enumerate(orders)) % big
        for i in range(n + 1)
    ]


def quotient_is_valid(n: int, orders, weights) -> bool:
    """Brute force: no nonidentity element acts as a scalar or fixes a hyperplane."""
    for t in product(*(range(m) for m in orders)):
        if not any(t):
            continue
        eig = element_eigenvalues(n, orders, weights, t)
        top = max(eig.count(e) for e in set(eig))
        if top >= n:  # n + 1: scalar; n: pseudo-reflection
            return False
    return True


class QuotientOracle:
    """Chen-Ruan data of P^n / G for a diagonal abelian G, from fixed loci and ages.

    Every element g splits the coordinates into eigenspaces; an eigenspace
    of dimension d is a fixed P^{d-1} whose age is the sum over the other
    coordinates of ((chi' - chi) mod M) / M, with M the lcm of the orders.
    """

    def __init__(self, n: int, orders, weights):
        self.n = n
        self.group_order = math.prod(orders)
        big = math.lcm(1, *orders)
        entries: dict = {}
        kinds = set()
        sectors = 0
        gorenstein = True
        for t in product(*(range(m) for m in orders)):
            eig = element_eigenvalues(n, orders, weights, t)
            for chi in set(eig):
                # Shifts in units of 1/M, so that only the age is a Fraction.
                shifts = sorted((e - chi) % big for e in eig)
                age = Fraction(sum(shifts), big)
                d = eig.count(chi)
                kinds.add((tuple(shifts), d))
                sectors += 1
                gorenstein = gorenstein and age.denominator == 1
                for k in range(d):
                    grade = k + age
                    entries[(grade, grade)] = entries.get((grade, grade), 0) + 1
        self.entries = entries
        self.sectors = sectors
        self.distinct_sectors = len(kinds)
        self.gorenstein = gorenstein


def columns(entries: dict) -> dict[int, int]:
    cols: dict[int, int] = {}
    for (p, q), h in entries.items():
        cols[int(p - q)] = cols.get(int(p - q), 0) + h
    return cols


def symmetric(entries: dict, n: int) -> bool:
    """Hodge symmetry h^{p,q} = h^{q,p} and Serre duality h^{p,q} = h^{n-p,n-q}."""
    return all(
        entries.get((q, p)) == h and entries.get((n - p, n - q)) == h
        for (p, q), h in entries.items()
    )


def compatible(a: dict, b: dict, n: int) -> bool:
    """Equal columns, h^{0,1}, h^{n,0} and h^{n-1,0}: the partner conditions."""
    return columns(a) == columns(b) and all(
        a.get(key, 0) == b.get(key, 0) for key in [(0, 1), (n, 0), (n - 1, 0)]
    )


def grade_axis(entries: dict, n: int) -> int:
    """Number of distinct grades a table rendering has on each axis."""
    return len({Fraction(i) for i in range(n + 1)} | {g for key in entries for g in key})


def entries_from_json(doc: dict) -> dict:
    return {(Fraction(e["p"]), Fraction(e["q"])): e["h"] for e in doc["entries"]}


def entries_from_csv(text: str) -> dict:
    lines = text.strip().split("\n")
    if lines[0] != "p,q,h":
        raise ValueError(f"bad csv header {lines[0]!r}")
    out = {}
    for line in lines[1:]:
        p, q, h = line.split(",")
        out[(Fraction(p), Fraction(q))] = int(h)
    return out
