"""Ghost map and primitive idempotents of the rational Burnside algebra.

The ghost map sends a virtual G-set to its vector of fixed point counts,
one per conjugacy class of one-object subgroupoids; its matrix in the
coset basis is the table of marks, `BurnsideRing.mark_table()`, built at
the ring's cap and memoized on the groupoid. Since the produced class
ordering makes that matrix block diagonal over components with lower
triangular, nonzero-diagonal blocks, the map is injective (the table's
`det()` is nonzero) and the linear systems defining the primitive
idempotents of Q tensor B(G) are solved exactly by forward substitution
over Fraction.
"""

from __future__ import annotations

from fractions import Fraction

from .burnside import BurnsideElement, BurnsideRing
from .errors import SingularMatrix, TableMismatch


def ghost_apply(ring: BurnsideRing, elem: BurnsideElement):
    """Fixed point counts of a (virtual) G-set, per subgroupoid class."""
    if elem.ring is not ring:
        raise TableMismatch("element of a different Burnside ring")
    matrix = ring.mark_table().matrix
    return tuple(sum(matrix[i][k] * c for k, c in enumerate(elem.coeffs))
                 for i in range(ring.rank))


def solve_lower_triangular(matrix, rhs):
    """Exact forward substitution; the matrix must be lower triangular."""
    n = len(matrix)
    out = []
    for i in range(n):
        if matrix[i][i] == 0:
            raise SingularMatrix("zero pivot in triangular solve", row=i)
        acc = Fraction(rhs[i])
        for j in range(i):
            acc -= Fraction(matrix[i][j]) * out[j]
        out.append(acc / Fraction(matrix[i][i]))
    return tuple(out)


def primitive_idempotents(ring: BurnsideRing):
    """One idempotent per basis class: the preimages of the ghost basis.

    Returns BurnsideElements with Fraction coefficients, ordered like the
    basis; their ghost vectors are the standard basis vectors, so they are
    orthogonal, idempotent, and sum to one.
    """
    matrix = ring.mark_table().matrix
    idems = []
    for i in range(ring.rank):
        rhs = [int(i == j) for j in range(ring.rank)]
        idems.append(BurnsideElement(ring, solve_lower_triangular(matrix, rhs)))
    return idems


def verify_idempotents(ring: BurnsideRing, idems) -> bool:
    """Check e_i e_j = delta_ij e_i and sum e_i = 1 with exact arithmetic."""
    for i, ei in enumerate(idems):
        for j, ej in enumerate(idems):
            prod = ring.mul(ei, ej)
            want = ei.coeffs if i == j else (0,) * ring.rank
            if tuple(map(Fraction, prod.coeffs)) != tuple(map(Fraction, want)):
                return False
    total = [Fraction(0)] * ring.rank
    for e in idems:
        for k, c in enumerate(e.coeffs):
            total[k] += Fraction(c)
    return tuple(total) == tuple(map(Fraction, ring.one().coeffs))


def idempotents_json(ring: BurnsideRing, idems):
    return [{"class": ring.labels[i],
             "coefficients": {lab: str(Fraction(c))
                              for lab, c in zip(ring.labels, e.coeffs) if c}}
            for i, e in enumerate(idems)]
