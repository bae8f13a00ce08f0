"""Diagonal actions of finite abelian groups on projective space P^n, a family that `quotient` loads on first request.

Sectors are enumerated per group element from the eigenspace decomposition of the homogeneous coordinates; for
diagonal abelian actions the conjugation-invariants step of the global-quotient formula is trivial (conjugation is
trivial and the action on each fixed component's cohomology preserves the hyperplane class), so sectors and ages can
be listed mechanically.
"""

# No `from __future__ import annotations`: a generator request's "params" shapes are the spec `__init__` annotations.
import math
from functools import cache
from itertools import product

from .diamond import HodgeDiamond, _Record, _set, is_int
from .errors import GroupTooLargeError, ScalarActionError, ValidationError
from .inertia import InertiaComponent, OrbifoldPresentation
from .quotient import MAX_GROUP_ORDER, check_budget


class ProjectiveQuotientSpec(_Record):
    """Diagonal action of G = Z/m_1 x ... x Z/m_k on P^n.

    Row j of `weights` lists the exponents of generator j acting on the
    n + 1 homogeneous coordinates; entries are reduced mod m_j.
    """

    __slots__ = ("proj_dim_n", "cyclic_orders", "weights")

    def __init__(self, proj_dim_n: int, cyclic_orders: tuple[int, ...], weights: tuple[tuple[int, ...], ...]):
        n = proj_dim_n
        if not is_int(n) or n < 1:
            raise ValidationError(f"projective dimension must be a positive integer, got {n!r}")
        orders = tuple(cyclic_orders)
        for m in orders:
            if not is_int(m) or m < 1:
                raise ValidationError(f"cyclic orders must be positive integers, got {m!r}")
        rows = tuple(tuple(row) for row in weights)
        if len(rows) != len(orders):
            raise ValidationError(f"{len(orders)} generators but {len(rows)} weight rows")
        reduced = []
        for m, row in zip(orders, rows):
            if len(row) != n + 1:
                raise ValidationError(f"weight row {row} has {len(row)} entries, expected {n + 1}")
            for w in row:
                if not is_int(w):
                    raise ValidationError(f"weights must be integers, got {w!r}")
            reduced.append(tuple(w % m for w in row))
        _set(self, "proj_dim_n", n)
        _set(self, "cyclic_orders", orders)
        _set(self, "weights", tuple(reduced))

    @property
    def group_order(self) -> int:
        return math.prod(self.cyclic_orders)


def build_projective_quotient(spec: ProjectiveQuotientSpec, name: str | None = None) -> OrbifoldPresentation:
    """Inertia presentation of P^n by a diagonal abelian action.

    For every group element g the coordinates split into eigenspaces
    V_chi; each nonzero V_chi contributes the fixed component P(V_chi)
    with the diamond of projective space as coarse data.  Writing l for
    the order of g acting on P^n, the tangent exponents at P(V_chi) are
    the differences (chi' - chi) scaled to [0, l - 1], one per coordinate
    in the other eigenspaces, padded with dim V_chi - 1 zeros along the
    component.  The identity element contributes the untwisted P^n sector.

    Raises ScalarActionError if a nonidentity element acts as a scalar
    (the action would not be effective on P^n).  If g fixes a hyperplane
    P(V_chi), that component's PseudoReflectionError names `g=(t) eig=chi`.
    GroupTooLargeError comes first when |G| or n + 1 exceeds `MAX_GROUP_ORDER`
    (10 000), or |G|·(n + 1) exceeds 40 000: no element is enumerated.
    """
    n = spec.proj_dim_n
    order = spec.group_order
    check_budget(order, f"group order {order} exceeds the limit {MAX_GROUP_ORDER}")
    check_budget(n + 1, f"projective dimension {n} has {n + 1} coordinates, which exceeds the limit {MAX_GROUP_ORDER}")
    if order * (n + 1) > 4 * MAX_GROUP_ORDER:  # every order the budget admits still acts on P^3
        raise GroupTooLargeError(f"group order {order} times {n + 1} coordinates exceeds the limit {4 * MAX_GROUP_ORDER}")
    big = math.lcm(1, *spec.cyclic_orders)
    # Per generator, one row per power k: the exponent of zeta_big by which g^k turns each coordinate.
    powers = [[[k * (big // m) * w % big for w in row] for k in range(m)] for m, row in zip(spec.cyclic_orders, spec.weights)]
    # One eigenvalue row per element, in `product` order: each further generator's rows folded into the first's.
    rows = powers[0] if powers else [[0] * (n + 1)]
    for steps in powers[1:]:
        rows = [[(a + b) % big for a, b in zip(r, s)] for r in rows for s in steps]
    # Every fixed component is a P^k, k <= n: one shared diamond per k, built on first use.
    projective = cache(HodgeDiamond.projective_space)

    components: list[tuple[InertiaComponent, int]] = []
    for t, row in zip(product(*(range(m) for m in spec.cyclic_orders)), rows):
        if not any(t):
            components.append((InertiaComponent(1, (0,) * n, projective(n), label="untwisted"), 1))
            continue
        eig = sorted(row)
        turns = [e - eig[0] for e in eig]  # each eigenvalue's turn past eig[0] on Z/big, sorted in [0, big)
        # Projective order l: least d with all pairwise eigenvalue differences killed mod the big order (1 for a scalar).
        g0 = math.gcd(big, *turns)
        if g0 == big:
            raise ScalarActionError(f"element with generator powers {t} acts as a scalar on P^{n}")
        l = big // g0
        if g0 != 1:
            turns = [d // g0 for d in turns]  # now on Z/l
        turns += [x + l for x in turns]  # doubled: the earlier eigenvalues once more, one full turn on
        prefix = f"g=({','.join(map(str, t))}) eig="
        for j, chi in enumerate(eig):
            if j and chi == eig[j - 1]:
                continue
            # Read off sorted: dim V_chi - 1 zeros, the later eigenvalues' turns, then the earlier ones' past a full turn.
            exponents = tuple([x - turns[j] for x in turns[j + 1:j + 1 + n]])
            components.append((InertiaComponent(l, exponents, projective(eig.count(chi) - 1), prefix + str(chi)), 1))
    default = f"p{n}_" + ("x".join(f"z{m}" for m in spec.cyclic_orders) or "trivial")
    return OrbifoldPresentation(n, components, name=name if name is not None else default)
