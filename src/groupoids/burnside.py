"""The Burnside rig and ring of a finite groupoid.

Isomorphism classes of finite right G-sets form a commutative rig under
disjoint union and the product over the object set; classes of coset G-sets
G/H, one per conjugacy class of one-object subgroupoids, form a free basis.
Elements are integer coefficient vectors over that basis: the rig is the
cone of componentwise nonnegative vectors and the ring its formal
difference completion, which coincides with plain integer vectors because
the rig is cancellative (the table of marks is invertible over Q).

Multiplication goes through the ghost map: the table of marks M sends an
element to its fixed point counts, an injective ring map into Z^r with the
pointwise product, so a·b = M⁻¹(Ma ⊙ Mb), solved exactly block by block
in integers over one denominator per block (see `MarkTable`);
coefficients are int or Fraction. The structure constants are the
products of basis cosets, checked to be integers, each solved only on
the rows of its block from max(i, j) on, where the column product can be
nonzero; pairs across components are zero without a solve. A groupoid
morphism induces a ring homomorphism the other way
(pull back a G-set, decompose over the source), and for a disconnected
groupoid the ring splits as a product of one-object Burnside rings, one
per component.

A generic difference-pair construction is included for rigs that are not
known to be cancellative; equality of pairs then needs a shifted witness
and is only decidable over a finite search universe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .core import FiniteGroupoid, GroupoidMorphism, OneObjectSubgroupoid, from_group
from .errors import (DecompositionMismatch, GroupoidMismatch, TableMismatch,
                     UndecidableEquality)
from .gset import RightGSet, coset_gset, decompose, unit_gset
from .subconj import (
    DEFAULT_ISOTROPY_CAP,
    conjugacy_class_index,
    enumerate_reps,
    mark_table,
    rep_label,
)


@dataclass(frozen=True)
class BurnsideElement:
    """Coefficient vector over the coset basis of a fixed ring."""
    ring: "BurnsideRing"
    coeffs: tuple

    def _match(self, other):
        if not isinstance(other, BurnsideElement) or other.ring is not self.ring:
            raise TableMismatch("elements of different Burnside rings")

    def __add__(self, other):
        self._match(other)
        return BurnsideElement(self.ring, tuple(
            a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._match(other)
        return BurnsideElement(self.ring, tuple(
            a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return BurnsideElement(self.ring, tuple(-a for a in self.coeffs))

    def __mul__(self, other):
        self._match(other)
        return self.ring.mul(self, other)

    def is_effective(self):
        """Whether the element is the class of an actual G-set."""
        return all(a >= 0 for a in self.coeffs)

    def to_json(self):
        return {lab: c for lab, c in zip(self.ring.labels, self.coeffs) if c}


class BurnsideRing:
    """Basis and arithmetic for one groupoid, through its table of marks."""

    def __init__(self, g: FiniteGroupoid, cap=DEFAULT_ISOTROPY_CAP):
        self.groupoid = g
        self.cap = cap
        self.reps = tuple(enumerate_reps(g, cap=cap))
        self.labels = tuple(rep_label(g, r) for r in self.reps)

    @property
    def rank(self):
        return len(self.reps)

    def coset(self, i) -> RightGSet:
        return coset_gset(self.groupoid, self.reps[i])

    def element(self, coeffs) -> BurnsideElement:
        coeffs = tuple(coeffs)
        if len(coeffs) != self.rank:
            raise TableMismatch("coefficient vector has wrong length",
                                expected=self.rank, got=len(coeffs))
        for i, c in enumerate(coeffs):
            if type(c) is not int and type(c) is not Fraction:
                raise TableMismatch("coefficients must be int or Fraction",
                                    index=i, type=type(c).__name__)
        return BurnsideElement(self, coeffs)

    def basis(self, i) -> BurnsideElement:
        return self.element(int(i == j) for j in range(self.rank))

    def zero(self) -> BurnsideElement:
        return self.element([0] * self.rank)

    def one(self) -> BurnsideElement:
        return self.from_gset(unit_gset(self.groupoid))

    def from_gset(self, x: RightGSet) -> BurnsideElement:
        return self.element(decompose(x, self.reps).coefficients)

    def structure_constants(self, i, j):
        """Decomposition of b_i·b_j: M⁻¹ of the product of columns i, j of M,
        solved from row max(i, j), above which both columns vanish."""
        table = self.mark_table()
        if table.components[i] != table.components[j]:
            return (0,) * self.rank
        first = max(i, j)
        _, stop, det = next(b for b in table._blocks if first < b[1])
        coeffs = table._solve_rows(first, stop, det, [
            row[i] * row[j] for row in table.matrix[first:stop]])
        if any(type(c) is not int for c in coeffs):
            raise DecompositionMismatch("structure constant is not an integer",
                                        i=i, j=j)
        return (0,) * first + tuple(coeffs) + (0,) * (self.rank - stop)

    def mul(self, a: BurnsideElement, b: BurnsideElement) -> BurnsideElement:
        table = self.mark_table()
        return self.element(table.solve(tuple(map(
            mul, table.ghost(a.coeffs), table.ghost(b.coeffs)))))

    def mark_table(self):
        return mark_table(self.groupoid, self.cap)

    def to_json(self):
        # structure constants as sparse triples (i, j, nonzero result terms);
        # pairs across components are all zero and are skipped
        triples = []
        for start, stop, _ in self.mark_table()._blocks:
            for i in range(start, stop):
                for j in range(i, stop):
                    terms = [[k, c] for k, c in enumerate(
                        self.structure_constants(i, j)) if c]
                    if terms:
                        triples.append([i, j, terms])
        return {
            "basis": list(self.labels),
            "one": list(self.one().coeffs),
            "structure_constants": triples,
        }

    def table_string(self) -> str:
        """Multiplication table of basis elements as readable linear combos."""
        names = ["b%d" % i for i in range(self.rank)]

        def combo(vec):
            terms = ["%s%s" % ("" if c == 1 else "%d·" % c, names[k])
                     for k, c in enumerate(vec) if c]
            return " + ".join(terms) if terms else "0"

        width = max(map(len, names), default=0)
        cells = [[combo(self.structure_constants(i, j))
                  for j in range(self.rank)] for i in range(self.rank)]
        colw = [max([len(names[j])] + [len(cells[i][j])
                                       for i in range(self.rank)])
                for j in range(self.rank)]
        lines = ["legend: " + ", ".join(
            "%s = [%s]" % (n, lab) for n, lab in zip(names, self.labels))]
        lines.append(" " * width + " | " + "  ".join(
            names[j].ljust(colw[j]) for j in range(self.rank)))
        lines.append("-" * width + "-+-" + "-" * (sum(colw) + 2 * (self.rank - 1)))
        for i in range(self.rank):
            lines.append(names[i].ljust(width) + " | " + "  ".join(
                cells[i][j].ljust(colw[j]) for j in range(self.rank)))
        return "\n".join(lines)

    def __repr__(self):
        return "BurnsideRing(rank %d over %r)" % (self.rank, self.groupoid)


# -- functoriality ---------------------------------------------------------

@dataclass(frozen=True)
class BurnsideHom:
    """Ring homomorphism B(G) -> B(H) induced by a morphism H -> G."""
    source: BurnsideRing
    target: BurnsideRing
    columns: tuple  # image of each source basis element, as target vectors

    def __call__(self, elem: BurnsideElement) -> BurnsideElement:
        if elem.ring is not self.source:
            raise TableMismatch("element of a different Burnside ring")
        out = [0] * self.target.rank
        for j, c in enumerate(elem.coeffs):
            if not c:
                continue
            for k, v in enumerate(self.columns[j]):
                out[k] += c * v
        return self.target.element(out)

    def then(self, other: "BurnsideHom") -> "BurnsideHom":
        if self.target is not other.source:
            raise TableMismatch("homomorphisms are not composable")
        cols = tuple(other(self.target.element(col)).coeffs
                     for col in self.columns)
        return BurnsideHom(self.source, other.target, cols)


def induction_hom(phi: GroupoidMorphism, source: BurnsideRing,
                  target: BurnsideRing) -> BurnsideHom:
    """B(phi): pull each coset of phi's target groupoid back along phi."""
    from .gset import induction
    if source.groupoid is not phi.target or target.groupoid is not phi.source:
        raise TableMismatch("rings do not match the morphism endpoints")
    cols = tuple(decompose(induction(phi, source.coset(j)),
                           target.reps).coefficients
                 for j in range(source.rank))
    return BurnsideHom(source, target, cols)


# -- product decomposition over components ---------------------------------

@dataclass(frozen=True)
class ProductDecomposition:
    """B(G) as a product of one-object Burnside rings, one per component."""
    ring: BurnsideRing
    factors: tuple            # BurnsideRing of each isotropy group
    base_objects: tuple       # component base in the parent groupoid
    index_maps: tuple         # parent rep index -> (factor, factor rep index)

    def project(self, elem: BurnsideElement):
        """Factorwise coefficient vectors of a parent element."""
        if elem.ring is not self.ring:
            raise TableMismatch("element of a different Burnside ring")
        out = [[0] * f.rank for f in self.factors]
        for i, c in enumerate(elem.coeffs):
            ci, k = self.index_maps[i]
            out[ci][k] += c
        return [f.element(v) for f, v in zip(self.factors, out)]

    def combine(self, parts) -> BurnsideElement:
        if len(parts) != len(self.factors):
            raise TableMismatch("one element per factor required")
        out = [0] * self.ring.rank
        for i in range(self.ring.rank):
            ci, k = self.index_maps[i]
            if parts[ci].ring is not self.factors[ci]:
                raise TableMismatch("element of a different factor ring")
            out[i] = parts[ci].coeffs[k]
        return self.ring.element(out)


def product_decomposition(ring: BurnsideRing) -> ProductDecomposition:
    """Split B(G) along connected components and verify the marks agree.

    Each factor is the Burnside ring of the isotropy group at the
    component's least object, taken as a one-object groupoid. Basis classes
    are matched by conjugacy_class_index in the factor; the match must be a
    bijection and the parent's mark table block must match the factor's
    mark table exactly, otherwise DecompositionMismatch is raised.
    """
    g = ring.groupoid
    base_objects = tuple(comp[0] for comp in g.components())
    factors, arrow_maps, matched = [], [], []
    for base in base_objects:
        grp, arrow_at = g.isotropy(base).as_group()
        factors.append(BurnsideRing(from_group(grp), ring.cap))
        arrow_maps.append({arr: idx for idx, arr in enumerate(arrow_at)})
    for i, rep in enumerate(ring.reps):
        ci = g.component_index(rep.base)
        if rep.base != base_objects[ci]:
            raise DecompositionMismatch(
                "parent class not based at the component base", index=i)
        cand = OneObjectSubgroupoid(factors[ci].groupoid, 0, sorted(
            arrow_maps[ci][a] for a in rep.arrows), check=False)
        try:
            matched.append((ci, conjugacy_class_index(cand, factors[ci].reps)))
        except GroupoidMismatch:
            raise DecompositionMismatch(
                "parent class matches no factor class", index=i) from None
    for ci, factor in enumerate(factors):
        if sorted(k for c, k in matched if c == ci) != list(range(factor.rank)):
            raise DecompositionMismatch("basis match is not a bijection",
                                        factor=ci)
    parent_marks = ring.mark_table().matrix
    factor_marks = [factor.mark_table().matrix for factor in factors]
    for i, (c1, k1) in enumerate(matched):
        for j, (c2, k2) in enumerate(matched):
            if c1 == c2 and parent_marks[i][j] != factor_marks[c1][k1][k2]:
                raise DecompositionMismatch(
                    "mark tables disagree after matching", row=i, column=j)
    return ProductDecomposition(ring, tuple(factors), base_objects,
                                tuple(matched))


# -- generic difference completion -----------------------------------------

@dataclass(frozen=True)
class DifferencePair:
    """Formal difference plus - minus of two rig elements."""
    plus: object
    minus: object


class GrothendieckRing:
    """Difference completion of a commutative rig given by callables.

    `universe` is an iterable of rig elements used to search for the shift
    witness t in a + d + t = c + b + t when the rig is not known to be
    cancellative; without it, equality outside the cancellative case raises
    UndecidableEquality.
    """

    def __init__(self, add, mul, zero, cancellative=False, universe=None):
        self._add = add
        self._mul = mul
        self._zero = zero
        self.cancellative = cancellative
        self.universe = None if universe is None else tuple(universe)

    def pair(self, plus, minus=None) -> DifferencePair:
        return DifferencePair(plus, self._zero if minus is None else minus)

    def add(self, p: DifferencePair, q: DifferencePair) -> DifferencePair:
        return DifferencePair(self._add(p.plus, q.plus),
                              self._add(p.minus, q.minus))

    def neg(self, p: DifferencePair) -> DifferencePair:
        return DifferencePair(p.minus, p.plus)

    def sub(self, p: DifferencePair, q: DifferencePair) -> DifferencePair:
        return self.add(p, self.neg(q))

    def mul(self, p: DifferencePair, q: DifferencePair) -> DifferencePair:
        return DifferencePair(
            self._add(self._mul(p.plus, q.plus), self._mul(p.minus, q.minus)),
            self._add(self._mul(p.plus, q.minus), self._mul(p.minus, q.plus)))

    def eq(self, p: DifferencePair, q: DifferencePair) -> bool:
        lhs = self._add(p.plus, q.minus)
        rhs = self._add(q.plus, p.minus)
        if lhs == rhs:
            return True
        if self.cancellative:
            return False
        if self.universe is None:
            raise UndecidableEquality(
                "rig is not cancellative and no search universe was given")
        return any(self._add(lhs, t) == self._add(rhs, t)
                   for t in self.universe)


def burnside_difference_ring(ring: BurnsideRing) -> GrothendieckRing:
    """Difference completion of the effective cone of a Burnside ring.

    Cancellative because the table of marks has nonzero determinant, so
    classes of G-sets already embed in the integer vector model; building
    the table raises TriangularityViolation on a zero diagonal mark.
    """
    ring.mark_table()
    return GrothendieckRing(lambda a, b: a + b, lambda a, b: a * b,
                            ring.zero(), cancellative=True)


def boolean_rig_demo():
    """The two-element rig with 1 + 1 = 1: a non-cancellative example.

    Its difference completion collapses: [1] - [0] equals [0] - [0] because
    adding the witness t = 1 equalizes both sides, even though 1 != 0 in
    the rig. Returns (ring, pair_one, pair_zero) for demonstration.
    """
    ring = GrothendieckRing(lambda a, b: a | b, lambda a, b: a & b, 0,
                            cancellative=False, universe=(0, 1))
    return ring, ring.pair(1), ring.pair(0)
