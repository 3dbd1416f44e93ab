"""Ghost map and primitive idempotents of the rational Burnside algebra.

The ghost map sends a virtual G-set to its vector of fixed point counts,
one per conjugacy class of one-object subgroupoids; its matrix in the
coset basis is the table of marks, `BurnsideRing.mark_table()`, built at
the ring's cap and memoized on the groupoid. The table owns both
directions: `MarkTable.ghost` applies the map and `MarkTable.solve`
inverts it by exact forward substitution inside each component block,
both in integers with one denominator per block and both starting at
the input's first nonzero entry in each block. The idempotent for class
i is solved from row i on, and verified from its own first nonzero row.
The primitive idempotents of Q tensor B(G) are the preimages of the unit
vectors of the ghost ring, and `verify_idempotents` checks them there.
"""

from __future__ import annotations

from fractions import Fraction

from .burnside import BurnsideElement, BurnsideRing
from .errors import TableMismatch
from .subconj import MarkTable


def ghost_apply(ring: BurnsideRing, elem: BurnsideElement):
    """Fixed point counts of a (virtual) G-set, per subgroupoid class."""
    if elem.ring is not ring:
        raise TableMismatch("element of a different Burnside ring")
    return ring.mark_table().ghost(elem.coeffs)


def solve_lower_triangular(matrix, rhs):
    """M⁻¹·rhs for one lower triangular block; the package uses MarkTable.solve."""
    return MarkTable(None, (), matrix, (), (0,) * len(matrix)).solve(rhs)


def primitive_idempotents(ring: BurnsideRing):
    """One idempotent per basis class: the preimages of the ghost basis.

    Returns BurnsideElements ordered like the basis, with int or Fraction
    coefficients; their ghost vectors are the standard basis vectors, so
    they are orthogonal, idempotent, and sum to one.
    """
    table = ring.mark_table()
    return [ring.element(table.solve([int(i == j) for j in range(ring.rank)]))
            for i in range(ring.rank)]


def verify_idempotents(ring: BurnsideRing, idems) -> bool:
    """Whether idems are ring's primitive idempotents, in basis order.

    Checks M·e_i = i-th unit vector exactly, for rank elements of ring.
    The ghost map being an injective ring map, this gives e_i e_j =
    delta_ij e_i, and sum e_i = 1 because M·1 is the all-ones vector.
    """
    ghost = ring.mark_table().ghost
    return len(idems) == ring.rank and all(
        e.ring is ring
        and ghost(e.coeffs) == tuple(int(i == k) for k in range(ring.rank))
        for i, e in enumerate(idems))


def idempotents_json(ring: BurnsideRing, idems):
    return [{"class": ring.labels[i],
             "coefficients": {lab: str(Fraction(c))
                              for lab, c in zip(ring.labels, e.coeffs) if c}}
            for i, e in enumerate(idems)]
