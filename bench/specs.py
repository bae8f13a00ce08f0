"""Seeded inputs of the three workloads, as plain data (no orbikit import).

Each workload runs in rounds.  The sizes in a round are a fixed multiset
and the seed draws everything else (weights, primes within a narrow band,
order of the cases), so runs with different seeds do comparable work and
their percentiles can be compared.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from oracles import quotient_is_valid

#: Rounds generated in set-up; a run that finishes them all starts over.
MAX_ROUNDS = 16


@dataclass(frozen=True)
class Spec:
    """A diagonal action of Z/m_1 x ... x Z/m_k on P^n."""

    n: int
    orders: tuple[int, ...]
    weights: tuple[tuple[int, ...], ...]
    name: str

    def params(self) -> dict:
        return {
            "proj_dim_n": self.n,
            "cyclic_orders": list(self.orders),
            "weights": [list(row) for row in self.weights],
        }


# ROADMAP ladder.  The two weight choices reproduce the table's sector
# counts: 2 067 (1 609 distinct) and 39 981 (39 951 distinct).
P5_Z20_SQ = Spec(5, (20, 20), ((0, 17, 19, 12, 15, 7), (0, 9, 0, 2, 4, 15)), "p5_z20xz20")
P3_Z9999 = Spec(3, (9999,), ((0, 1, 2, 12),), "p3_z9999")
LADDER_KUMMER = (6, 8)

# Gorenstein quotients of dimension <= 3 (every age an integer), where
# reconstruct_gorenstein must give the diamond back.
GORENSTEIN = (
    Spec(2, (3,), ((0, 1, 2),), "p2_mu3"),
    Spec(3, (4,), ((0, 0, 1, 3),), "p3_z4"),
    Spec(3, (2,), ((0, 0, 1, 1),), "p3_z2"),
    Spec(3, (2, 2), ((0, 0, 1, 1), (0, 1, 0, 1)), "p3_z2xz2"),
)

# Kummer round, 19 cases: n -> cases per round.  The median falls inside the
# n = 4 block and the 90th percentile between the two n = 6 cases.
KUMMER_ROUND = {3: 6, 4: 6, 5: 4, 6: 2, 7: 1}

# Distinct-sector round, 25 cases, by size: Z/p with p near 13 on P^2..P^5,
# three products (Z/m)^2 and one Gorenstein quotient (8 small cases); p near
# 101 on P^2, P^3, five times on P^4 and twice on P^5 (9); p near 307 on P^2,
# twice on P^3 and three times on P^4 (6); and p near 2003 twice on P^2 (2),
# each with about 6 000 sectors, all distinct, 3 000 entries and level
# about 2 000.  The median then falls among the p ~ 101 cases on P^4 and
# the 90th percentile among the p ~ 307 cases.  The two large cases hold
# about half of a round's sectors and time, so sectors_per_s follows the
# per-sector cost at large group order.  A case with p near 9 999 would
# take several seconds: a single sample that long moves with the machine's
# speed more than the calibration slices around it can correct.
PRIME_SLOTS = (
    [(13, n) for n in range(2, 6)]
    + [(101, 2), (101, 3)] + [(101, 4)] * 5 + [(101, 5)] * 2
    + [(307, 2)] + [(307, 3)] * 2 + [(307, 4)] * 3
    + [(2003, 2)] * 2
)
PRODUCT_SLOTS = ((3, 5), (4, 6), (5, 4))  # (n, m)


def _primes(lo: int, hi: int) -> list[int]:
    return [p for p in range(max(lo, 2), hi + 1) if all(p % d for d in range(2, int(p**0.5) + 1))]


def prime_near(rng: random.Random, centre: int) -> int:
    """A prime within about 3% of `centre`."""
    width = max(2, centre * 3 // 100)
    return rng.choice(_primes(centre - width, centre + width))


def cyclic_spec(rng: random.Random, n: int, p: int) -> Spec:
    """Z/p on P^n with weights distinct mod p: no pseudo-reflections by construction."""
    weights = (0, *rng.sample(range(1, p), n))
    return Spec(n, (p,), (weights,), f"p{n}_z{p}_{'_'.join(map(str, weights[1:]))}")


def product_spec(rng: random.Random, n: int, m: int) -> Spec:
    """(Z/m)^2 on P^n, redrawn until the brute-force screen accepts it."""
    while True:
        rows = tuple((0, *(rng.randrange(m) for _ in range(n))) for _ in range(2))
        if quotient_is_valid(n, (m, m), rows):
            tag = "_".join("".join(map(str, row[1:])) for row in rows)
            return Spec(n, (m, m), rows, f"p{n}_z{m}sq_{tag}")


def kummer_rounds(seed: int) -> list[list[int]]:
    rng = random.Random(f"kummer_repeated:{seed}")
    base = [n for n, k in KUMMER_ROUND.items() for _ in range(k)]
    rounds = []
    for _ in range(MAX_ROUNDS):
        order = list(base)
        rng.shuffle(order)
        rounds.append(order)
    return rounds


def pquot_rounds(seed: int) -> list[list[Spec]]:
    rng = random.Random(f"pquot_distinct:{seed}")
    rounds = []
    for _ in range(MAX_ROUNDS):
        cases = [cyclic_spec(rng, n, prime_near(rng, c)) for c, n in PRIME_SLOTS]
        cases += [product_spec(rng, n, m) for n, m in PRODUCT_SLOTS]
        cases.append(rng.choice(GORENSTEIN))
        rng.shuffle(cases)
        rounds.append(cases)
    return rounds


def files_corpus(seed: int) -> dict:
    """Presentations written to disk for the files_cli workload.

    The Kummer members are fixed (their only parameter is n); the seed draws
    the quotients.
    """
    rng = random.Random(f"files_cli:{seed}")
    return {
        "kummer": [3, 5, 6],
        "count_kummer": [2, 4, 6],
        "specs": [cyclic_spec(rng, n, prime_near(rng, 31)) for n in (2, 3, 4, 5)]
        + [product_spec(rng, 3, 3), product_spec(rng, 4, 4)]
        + [rng.choice(GORENSTEIN[1:]), GORENSTEIN[0]],
    }


def files_round_order(seed: int, n_cases: int) -> list[list[int]]:
    rng = random.Random(f"files_cli:order:{seed}")
    rounds = []
    for _ in range(MAX_ROUNDS):
        order = list(range(n_cases))
        rng.shuffle(order)
        rounds.append(order)
    return rounds
