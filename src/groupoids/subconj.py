"""Subgroupoid conjugacy and tables of marks.

Two subgroupoids H, K of the same ambient groupoid G are conjugally
equivalent when the coset G-sets G/H and G/K are isomorphic. This is
decided combinatorially: a witness is a family assigning to each object b
of K an object u_b of H and an arrow g_b: u_b -> b of G such that
transporting K's hom sets along the g_b lands exactly on H's hom sets,
plus a reachability condition making the assignment cover H's objects.

For one-object subgroupoids the relation reduces to conjugacy of isotropy
subgroups by a single connecting arrow, and the conjugacy classes of
one-object subgroupoids are enumerated per connected component from the
subgroup lattice of the isotropy group at the component's least object.
That lattice is computed on a dense kernel: the isotropy Cayley table as
a flat list of ints in ascending arrow order, subgroups as int bitmasks
closed under their generators only, and the lattice grown from the
cyclic subgroups by joining each subgroup with each cyclic subgroup it
does not contain (cyclic extension, as in G. Pfeiffer, "The subgroups of
M24, or how to compute the table of marks of a finite group",
Experimental Math. 6, 1997). A class is the orbit of a mask under
conjugation, and marks are read from class containment (same paper).
The produced class ordering makes the table of marks block diagonal over
components with lower triangular, nonzero-diagonal blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm, prod
from operator import mul

from .core import FiniteGroupoid, OneObjectSubgroupoid, Subgroupoid
from .errors import (
    GroupoidMismatch,
    IsotropyTooLarge,
    SearchBudgetExceeded,
    SingularMatrix,
    TriangularityViolation,
)

DEFAULT_ISOTROPY_CAP = 24
DEFAULT_SEARCH_BUDGET = 200_000


# -- subgroup lattices of isotropy groups ----------------------------------

def _cayley(g: FiniteGroupoid, base):
    """Dense isotropy kernel at base, memoized on the groupoid.

    Loops are indexed in ascending arrow order; the flat table holds
    t[i*n + j] = index of loops[i] loops[j], and inv[i] the index of the
    inverse of loops[i].
    """
    cached = g._derived.get(("cayley", base))
    if cached is None:
        loops = g.loops(base)
        pos = {a: i for i, a in enumerate(loops)}
        compose = g._compose
        table = [pos[compose[a, b]] for a in loops for b in loops]
        inv = [pos[g.inverse(a)] for a in loops]
        cached = g._derived[("cayley", base)] = (loops, pos, table, inv)
    return cached


def _bits(mask):
    """Indices of the set bits of mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _join(table, n, h, gens):
    """Mask of the subgroup generated by subgroup mask h and gens.

    Grows a union of right cosets h*r from h itself: for each coset
    representative r and generator s, the coset of r*s is added unless
    r*s is already covered (Dimino's algorithm). gens must include
    generators of h.
    """
    members = _bits(h)
    mask = h
    reps = [members[0]]  # any member of h: its coset is h itself
    for r in reps:
        row = r * n
        for s in gens:
            y = table[row + s]
            if not mask >> y & 1:
                reps.append(y)
                for a in members:
                    mask |= 1 << table[a * n + y]
    return mask


def _lattice(table, n, e):
    """Every subgroup mask, mapped to a tuple of generators.

    Starts from the cyclic subgroups and joins each subgroup found with
    each cyclic subgroup it does not contain, until no join is new
    (cyclic extension): every subgroup is a join of cyclic subgroups.
    """
    cyclic = {}
    for x in range(n):
        mask, y = 1 << e, x
        while y != e:
            mask |= 1 << y
            y = table[y * n + x]
        cyclic.setdefault(mask, x)
    found = {z: (x,) for z, x in cyclic.items()}
    frontier = list(found)
    while frontier:
        fresh = []
        for h in frontier:
            gens = found[h]
            for z, x in cyclic.items():
                if z & ~h:
                    k = _join(table, n, h, gens + (x,))
                    if k not in found:
                        found[k] = gens + (x,)
                        fresh.append(k)
        frontier = fresh
    return found


def _orbit(table, inv, mask):
    """Masks of x H x^-1 for every loop x, H given by its mask."""
    n = len(inv)
    members = _bits(mask)
    return {sum(1 << table[table[x * n + i] * n + inv[x]] for i in members)
            for x in range(n)}


def enumerate_subgroups(g: FiniteGroupoid, base, cap=DEFAULT_ISOTROPY_CAP):
    """All subgroups of the isotropy group at base, as arrow sets.

    Built on the dense kernel: subgroups are bitmasks over the flat
    Cayley table, closed under generators only, and the lattice is grown
    from the cyclic subgroups by joins. Sorted by order, then by the
    ascending arrow tuple.
    """
    loops = g.loops(base)
    if len(loops) > cap:
        raise IsotropyTooLarge("isotropy group exceeds the subgroup "
                               "enumeration cap", object=base,
                               order=len(loops), cap=cap)
    loops, pos, table, _ = _cayley(g, base)
    masks = _lattice(table, len(loops), pos[g.identity(base)])
    return sorted((frozenset(loops[i] for i in _bits(m)) for m in masks),
                  key=lambda s: (len(s), sorted(s)))


def conjugated_isotropy_subgroups(h: OneObjectSubgroupoid,
                                  k: OneObjectSubgroupoid):
    """Decide K = d H d^{-1} for some arrow d: base(H) -> base(K).

    Returns (True, d) with an explicit conjugating arrow, or (False, None).
    """
    if h.parent is not k.parent:
        raise GroupoidMismatch("subgroupoids of different groupoids")
    g = h.parent
    if h.order != k.order:
        return False, None
    k_set = set(k.arrows)
    for d in g.hom(h.base, k.base):
        d_inv = g.inverse(d)
        if all(g.compose(g.compose(d, arr), d_inv) in k_set
               for arr in h.arrows):
            return True, d
    return False, None


def enumerate_reps(g: FiniteGroupoid, cap=DEFAULT_ISOTROPY_CAP):
    """Conjugacy class representatives of one-object subgroupoids.

    One run of subgroup enumeration per connected component, at the
    component's least object; classes are ordered by component, then by
    decreasing subgroup order, then by the least arrow tuple in the class.
    Results are memoized on the groupoid instance.
    """
    cached = g._derived.get(("reps", cap))
    if cached is not None:
        return cached
    reps = []
    for comp in g.components():
        base = comp[0]
        subgroups = enumerate_subgroups(g, base, cap=cap)
        loops, pos, table, inv = _cayley(g, base)
        classes = []
        seen = set()
        for sub in subgroups:
            mask = sum(1 << pos[a] for a in sub)
            if mask in seen:
                continue
            orbit = _orbit(table, inv, mask)
            seen |= orbit
            classes.append(min(map(_bits, orbit)))
        classes.sort(key=lambda c: (-len(c), c))
        reps.extend(OneObjectSubgroupoid(g, base, [loops[i] for i in c],
                                         check=False)
                    for c in classes)
    g._derived[("reps", cap)] = reps
    return reps


def conjugacy_class_index(h: OneObjectSubgroupoid, reps):
    """Index of the first rep whose mask at h's component base is in h's orbit."""
    g = h.parent
    comp = g.component_index(h.base)
    base = g.components()[comp][0]
    _, pos, table, inv = _cayley(g, base)

    def mask(sub):
        if sub.base != base:
            sub = sub.conjugate_by(g.hom(sub.base, base)[0])
        return sum(1 << pos[a] for a in sub.arrows)

    orbit = _orbit(table, inv, mask(h))
    for i, rep in enumerate(reps):
        if rep.parent is not g:
            raise GroupoidMismatch("subgroupoids of different groupoids")
        if (rep.order == h.order and g.component_index(rep.base) == comp
                and mask(rep) in orbit):
            return i
    raise GroupoidMismatch("no representative matches this subgroupoid",
                           base=h.base, order=h.order)


# -- general subgroupoid conjugacy -----------------------------------------

def conjugally_equivalent(g: FiniteGroupoid, h: Subgroupoid, k: Subgroupoid,
                          budget=DEFAULT_SEARCH_BUDGET):
    """Decide whether G/H and G/K are isomorphic right G-sets.

    Searches for a witness family (u_b, g_b: u_b -> b) over K's objects with
      (a) g_{b2}^{-1} K(b1,b2) g_{b1} = H(u_{b1}, u_{b2}) for all b1, b2,
      (b) every object of H admits an H-arrow from some u_b.
    Returns (True, {b: (u_b, g_b)}) or (False, None). The backtracking node
    count is capped by `budget`.
    """
    if h.parent is not g or k.parent is not g:
        raise GroupoidMismatch("subgroupoids of a different groupoid")
    h_objects = list(h.objects)
    k_objects = sorted(k.objects, key=lambda b: (len(k.hom(b, b)), b))
    if not k_objects:
        return (not h_objects), ({} if not h_objects else None)
    if not h_objects:
        return False, None

    nodes = 0
    assign = {}

    def hom_match(b1, u1, d1, b2, u2, d2):
        # transported K(b1,b2) must equal H(u1,u2) on the nose
        target = h.hom(u1, u2)
        source = k.hom(b1, b2)
        if len(source) != len(target):
            return False
        tset = set(target)
        d2_inv = g.inverse(d2)
        return all(g.compose(d2_inv, g.compose(arr, d1)) in tset
                   for arr in source)

    def extend(i):
        nonlocal nodes
        if i == len(k_objects):
            return all(
                any(h.hom(assign[b][0], u) for b in k_objects)
                for u in h_objects)
        b = k_objects[i]
        for u in h_objects:
            for d in g.hom(u, b):
                nodes += 1
                if nodes > budget:
                    raise SearchBudgetExceeded(
                        "conjugacy search exceeded its node budget",
                        budget=budget)
                if not hom_match(b, u, d, b, u, d):
                    continue
                if any(not hom_match(b, u, d, b2, *assign[b2])
                       or not hom_match(b2, *assign[b2], b, u, d)
                       for b2 in k_objects[:i]):
                    continue
                assign[b] = (u, d)
                if extend(i + 1):
                    return True
                del assign[b]
        return False

    if extend(0):
        return True, {b: assign[b] for b in sorted(assign)}
    return False, None


def conjugacy_witness_json(g: FiniteGroupoid, witness):
    """Label form of a conjugally_equivalent witness for serialization."""
    return [{"object": g.object_labels[b],
             "partner": g.object_labels[u],
             "arrow": g.arrow_labels[d]}
            for b, (u, d) in sorted(witness.items())]


# -- tables of marks -------------------------------------------------------

def _integral(vec):
    """(L, L·vec): L the lcm of the denominators of an int/Fraction vector."""
    scale = lcm(*(x.denominator for x in vec))
    return scale, [x.numerator * (scale // x.denominator) for x in vec]


def _over(ys, d):
    """ys / d entrywise: an int where d divides, a Fraction elsewhere."""
    out = []
    for y in ys:
        q, r = divmod(y, d)
        out.append(Fraction(y, d) if r else q)
    return out


@dataclass(frozen=True)
class MarkTable:
    """The ghost map M and its inverse over one class ordering.

    `components` gives each row's component; rows of a component are
    contiguous and form one lower triangular block, so M·a and M⁻¹·v only
    read a row's own block, up to the diagonal. Both work in integers on
    L times the input, L the lcm of its denominators, and enter each
    block at the input's first nonzero entry there: the rows above map
    to 0. A block's results share one denominator, L for the ghost map
    and det·L for a solve, det the block's determinant.
    """
    groupoid: FiniteGroupoid
    reps: tuple
    matrix: tuple
    labels: tuple
    components: tuple

    @cached_property
    def _blocks(self):
        # (start, stop, det) of each run of rows in one component
        comps, out, start = self.components, [], 0
        for stop in range(1, len(comps) + 1):
            if stop == len(comps) or comps[stop] != comps[start]:
                out.append((start, stop, prod(self.matrix[k][k]
                                              for k in range(start, stop))))
                start = stop
        return tuple(out)

    def ghost(self, coeffs) -> tuple:
        """M·a: the fixed point counts of the element with these coefficients."""
        scale, w = _integral(coeffs)
        out = [0] * len(self.matrix)
        for start, stop, _ in self._blocks:
            first = next((k for k in range(start, stop) if w[k]), stop)
            for i in range(first, stop):
                out[i] = sum(map(mul, self.matrix[i][first:i + 1],
                                 w[first:i + 1]))
        return tuple(_over(out, scale))

    def solve(self, ghost) -> tuple:
        """M⁻¹·v by exact forward substitution inside each block.

        Integral entries come back as int, the others as Fraction; a zero
        pivot raises SingularMatrix at its row.
        """
        scale, w = _integral(ghost)
        out = [0] * len(self.matrix)
        for start, stop, det in self._blocks:
            if not det:
                raise SingularMatrix(
                    "zero pivot in triangular solve", row=next(
                        k for k in range(start, stop) if not self.matrix[k][k]))
            first = next((k for k in range(start, stop) if w[k]), stop)
            out[first:stop] = self._solve_rows(first, stop, det,
                                               w[first:stop], scale)
        return tuple(out)

    def _solve_rows(self, first, stop, det, w, scale=1):
        """x on rows first..stop-1 of a block of determinant det, where
        M x = w / scale for integers w and x is 0 above first.

        Substitutes for y = det·scale·x, which is integral (det·M⁻¹ is the
        block's adjugate), so each division by a pivot is exact.
        """
        matrix, ys = self.matrix, []
        for i, wi in zip(range(first, stop), w):
            row = matrix[i]
            ys.append((det * wi - sum(map(mul, row[first:i], ys))) // row[i])
        return _over(ys, det * scale)

    def det(self) -> int:
        """Exact determinant: the diagonal product of a triangular matrix."""
        return prod(row[i] for i, row in enumerate(self.matrix))

    def to_json(self):
        return {
            "labels": list(self.labels),
            "components": list(self.components),
            "matrix": [list(row) for row in self.matrix],
            "det": self.det(),
        }

    def to_csv_string(self) -> str:
        import csv
        import io
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([""] + list(self.labels))
        for lab, row in zip(self.labels, self.matrix):
            writer.writerow([lab] + list(row))
        return buf.getvalue()


def rep_label(g: FiniteGroupoid, rep: OneObjectSubgroupoid) -> str:
    comp = g.component_index(rep.base)
    return "c%d:%s|{%s}" % (comp, g.object_labels[rep.base],
                            ",".join(str(a) for a in rep.arrows))


def mark_table(g: FiniteGroupoid, cap=DEFAULT_ISOTROPY_CAP) -> MarkTable:
    """Table of marks over the produced class ordering, shape-checked.

    Entry (i, j) counts H_i-fixed points on G/H_j, as #{K ~ H_j : H_i <= K}
    times |N(H_j)|/|H_j| inside a component and 0 across. The ordering
    guarantees lower triangular blocks with nonzero diagonal; any violation
    raises instead of returning.
    Results are memoized on the groupoid instance, per cap.
    """
    cached = g._derived.get(("marks", cap))
    if cached is not None:
        return cached
    reps = enumerate_reps(g, cap=cap)
    components = tuple(g.component_index(r.base) for r in reps)
    masks, columns = [], []
    for r, c in zip(reps, components):
        loops, pos, table, inv = _cayley(g, r.base)
        masks.append(sum(1 << pos[a] for a in r.arrows))
        orbit = _orbit(table, inv, masks[-1])
        columns.append((c, orbit, len(loops) // len(orbit) // r.order))
    matrix = tuple(tuple(sum(not h & ~k for k in orbit) * index if c == d else 0
                         for d, orbit, index in columns)
                   for h, c in zip(masks, components))
    for i, row in enumerate(matrix):
        for j in range(i + 1, len(row)):
            if row[j]:
                raise TriangularityViolation(
                    "nonzero mark above the diagonal", row=i, column=j)
        if row[i] == 0:
            raise TriangularityViolation("zero diagonal mark", row=i)
    labels = tuple(rep_label(g, r) for r in reps)
    table = MarkTable(g, tuple(reps), matrix, labels, components)
    g._derived[("marks", cap)] = table
    return table
