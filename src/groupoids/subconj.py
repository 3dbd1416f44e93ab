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
Those classes index the table of marks, whose rows count fixed points on
coset G-sets; the produced ordering makes the table block diagonal over
components with lower triangular, nonzero-diagonal blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import prod
from operator import mul

from .core import FiniteGroupoid, OneObjectSubgroupoid, Subgroupoid
from .errors import (
    GroupoidMismatch,
    IsotropyTooLarge,
    SearchBudgetExceeded,
    SingularMatrix,
    TriangularityViolation,
)
from .gset import coset_gset, fixed_points

DEFAULT_ISOTROPY_CAP = 24
DEFAULT_SEARCH_BUDGET = 200_000


# -- subgroup lattices of isotropy groups ----------------------------------

def _loop_closure(g: FiniteGroupoid, base, gens):
    """Smallest subgroup of the isotropy group at base containing gens."""
    els = {g.identity(base)}
    els.update(gens)
    boundary = sorted(els)
    while boundary:
        fresh = []
        for a in boundary:
            for b in sorted(els):
                for c in (g.compose(a, b), g.compose(b, a)):
                    if c not in els:
                        els.add(c)
                        fresh.append(c)
        boundary = fresh
    return frozenset(els)


def enumerate_subgroups(g: FiniteGroupoid, base, cap=DEFAULT_ISOTROPY_CAP):
    """All subgroups of the isotropy group at base, as arrow sets.

    Seeds with closures of generating sets of size at most two, then
    saturates by adjoining single generators until nothing new appears.
    """
    loops = g.loops(base)
    if len(loops) > cap:
        raise IsotropyTooLarge("isotropy group exceeds the subgroup "
                               "enumeration cap", object=base,
                               order=len(loops), cap=cap)
    found = {frozenset({g.identity(base)})}
    for i, a in enumerate(loops):
        found.add(_loop_closure(g, base, (a,)))
        for b in loops[i + 1:]:
            found.add(_loop_closure(g, base, (a, b)))
    frontier = sorted(found, key=sorted)
    while frontier:
        fresh = []
        for sub in frontier:
            for x in loops:
                if x in sub:
                    continue
                bigger = _loop_closure(g, base, set(sub) | {x})
                if bigger not in found:
                    found.add(bigger)
                    fresh.append(bigger)
        frontier = fresh
    return sorted(found, key=lambda s: (len(s), sorted(s)))


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
        loops = g.loops(base)
        classes = []
        seen = set()
        for sub in subgroups:
            if sub in seen:
                continue
            members = set()
            for d in loops:
                d_inv = g.inverse(d)
                members.add(frozenset(g.compose(g.compose(d, arr), d_inv)
                                      for arr in sub))
            seen |= members
            classes.append(min(members, key=sorted))
        classes.sort(key=lambda s: (-len(s), sorted(s)))
        reps.extend(OneObjectSubgroupoid(g, base, sorted(s), check=False)
                    for s in classes)
    g._derived[("reps", cap)] = reps
    return reps


def conjugacy_class_index(h: OneObjectSubgroupoid, reps):
    """Position of h's conjugacy class in a representative list."""
    g = h.parent
    comp = g.component_index(h.base)
    for i, rep in enumerate(reps):
        if g.component_index(rep.base) != comp:
            continue
        ok, _ = conjugated_isotropy_subgroups(h, rep)
        if ok:
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

@dataclass(frozen=True)
class MarkTable:
    """The ghost map M and its inverse over one class ordering.

    `components` gives each row's component; rows of a component are
    contiguous and form one lower triangular block, so M·a and M⁻¹·v only
    read a row's own block, up to the diagonal.
    """
    groupoid: FiniteGroupoid
    reps: tuple
    matrix: tuple
    labels: tuple
    components: tuple

    @cached_property
    def _block_starts(self):
        # index of the first row of each row's block
        return [self.components.index(c) for c in self.components]

    def ghost(self, coeffs) -> tuple:
        """M·a: the fixed point counts of the element with these coefficients."""
        return tuple(sum(map(mul, row[s:i + 1], coeffs[s:i + 1]))
                     for i, (row, s) in enumerate(zip(self.matrix,
                                                      self._block_starts)))

    def solve(self, ghost) -> tuple:
        """M⁻¹·v by exact forward substitution inside each block.

        Integral entries come back as int, the others as Fraction; a zero
        pivot raises SingularMatrix.
        """
        out = []
        for i, (row, s) in enumerate(zip(self.matrix, self._block_starts)):
            pivot = row[i]
            if not pivot:
                raise SingularMatrix("zero pivot in triangular solve", row=i)
            acc = ghost[i] - sum(map(mul, row[s:i], out[s:i]))
            q, r = divmod(acc, pivot)
            out.append(Fraction(acc) / pivot if r else int(q))
        return tuple(out)

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

    Entry (i, j) counts H_i-fixed points on G/H_j. The ordering guarantees a
    block diagonal matrix over components whose blocks are lower triangular
    with nonzero diagonal; any violation raises instead of returning.
    Results are memoized on the groupoid instance, per cap.
    """
    cached = g._derived.get(("marks", cap))
    if cached is not None:
        return cached
    reps = enumerate_reps(g, cap=cap)
    components = tuple(g.component_index(r.base) for r in reps)
    cosets = [coset_gset(g, r) for r in reps]
    matrix = tuple(tuple(len(fixed_points(coset, h)) for coset in cosets)
                   for h in reps)
    for i in range(len(reps)):
        for j in range(len(reps)):
            if components[i] != components[j] and matrix[i][j]:
                raise TriangularityViolation(
                    "nonzero mark across components", row=i, column=j)
            if components[i] == components[j] and j > i and matrix[i][j]:
                raise TriangularityViolation(
                    "nonzero mark above the diagonal", row=i, column=j)
        if matrix[i][i] == 0:
            raise TriangularityViolation("zero diagonal mark", row=i)
    labels = tuple(rep_label(g, r) for r in reps)
    table = MarkTable(g, tuple(reps), matrix, labels, components)
    g._derived[("marks", cap)] = table
    return table
