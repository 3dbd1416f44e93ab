"""Independent brute-force reference implementations for tests.

Everything here recomputes results from first principles, trading speed
for obviousness, so the package's optimized routes can be checked against
a second opinion. Size guards keep the exponential searches honest.
"""

from fractions import Fraction
from itertools import product
from operator import mul

from groupoids.core import OneObjectSubgroupoid
from groupoids.errors import (
    AssociativityFailure,
    CompositionDomainMismatch,
    DanglingArrowEndpoint,
    GroupoidMismatch,
    InverseFailure,
    IsotropyTooLarge,
    MalformedInput,
    MissingIdentity,
    SingularMatrix,
)
from groupoids.gset import coset_gset, decompose, fibered_product
from groupoids.subconj import DEFAULT_ISOTROPY_CAP, conjugated_isotropy_subgroups


def check_groupoid(g):
    """Every groupoid axiom by direct table lookups, raising the first failure.

    Entries are checked in sorted order, missing pairs by scanning all m²
    arrow pairs, and associativity by three compose lookups per triple.
    """
    n, m = g.n_objects, g.n_arrows
    for a in range(m):
        if not 0 <= g._src[a] < n:
            raise DanglingArrowEndpoint("src out of range", arrow=a)
        if not 0 <= g._tgt[a] < n:
            raise DanglingArrowEndpoint("tgt out of range", arrow=a)
    for x in range(n):
        i = g._identity[x]
        if not 0 <= i < m:
            raise MissingIdentity("identity arrow missing", object=x)
        if g._src[i] != x or g._tgt[i] != x:
            raise MissingIdentity("identity arrow is not a loop at its object",
                                  object=x, arrow=i)
    if len(g._inverse) != m:
        raise InverseFailure("inverse table size mismatch")
    for a in range(m):
        if not 0 <= g._inverse[a] < m:
            raise InverseFailure("inverse out of range", arrow=a)
    for (p, q), pq in sorted(g._compose.items()):
        if not (0 <= p < m and 0 <= q < m and 0 <= pq < m):
            raise CompositionDomainMismatch("composition entry out of range",
                                            g=p, h=q)
        if g._src[p] != g._tgt[q]:
            raise CompositionDomainMismatch("pair is not composable", g=p, h=q)
        if g._src[pq] != g._src[q] or g._tgt[pq] != g._tgt[p]:
            raise CompositionDomainMismatch(
                "endpoints of gh disagree with g, h", g=p, h=q, gh=pq)
    for p in range(m):
        for q in range(m):
            if g._src[p] == g._tgt[q] and (p, q) not in g._compose:
                raise CompositionDomainMismatch(
                    "composable pair missing from table", g=p, h=q)
    for a in range(m):
        if g._compose[(a, g._identity[g._src[a]])] != a:
            raise MissingIdentity("right identity law fails", arrow=a)
        if g._compose[(g._identity[g._tgt[a]], a)] != a:
            raise MissingIdentity("left identity law fails", arrow=a)
    for a in range(m):
        ai = g._inverse[a]
        if g._src[ai] != g._tgt[a] or g._tgt[ai] != g._src[a]:
            raise InverseFailure("inverse endpoints are swapped incorrectly",
                                 arrow=a)
        if g._compose[(a, ai)] != g._identity[g._tgt[a]] or \
           g._compose[(ai, a)] != g._identity[g._src[a]]:
            raise InverseFailure("g * inverse(g) is not an identity", arrow=a)
    for (p, q), pq in g._compose.items():
        for r in g.arrows_into(g._src[q]):
            if g._compose[(pq, r)] != g._compose[(p, g._compose[(q, r)])]:
                raise AssociativityFailure("(gh)k != g(hk)", g=p, h=q, k=r)


def equivariant_maps(x, y, limit=None):
    """All action-preserving maps x -> y, by exhaustive assignment."""
    if x.size > 12:
        raise ValueError("oracle capped at 12 elements")
    g = x.groupoid
    candidates = [[f for f in range(y.size) if y.sigma[f] == x.sigma[e]]
                  for e in range(x.size)]
    out = []
    for assignment in product(*candidates):
        good = True
        for (e, p), v in x.action.items():
            if y.action[(assignment[e], p)] != assignment[v]:
                good = False
                break
        if good:
            out.append(assignment)
            if limit is not None and len(out) >= limit:
                break
    return out


def count_equivariant_maps(x, y):
    return len(equivariant_maps(x, y))


def exists_equivariant_bijection(x, y):
    if x.size != y.size:
        return False
    return any(len(set(m)) == x.size for m in equivariant_maps(x, y))


def orbit_of(x, e):
    """Reachability closure of one element under the action, by BFS."""
    seen = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for v in frontier:
            for (w, _), u in x.action.items():
                if w == v and u not in seen:
                    seen.add(u)
                    nxt.append(u)
                if u == v and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return frozenset(seen)


def fixed_elements(x, base, arrows):
    """Fixed points straight from the definition."""
    return [e for e in range(x.size)
            if x.sigma[e] == base
            and all(x.action[(e, p)] == e for p in arrows)]


def mark(g, h, k):
    """Number of H-fixed points on the coset G-set G/K, by definition."""
    return len(fixed_elements(coset_gset(g, k), h.base, h.arrows))


def subgroups_bitmask(group):
    """Every subgroup of a group of order <= 12, by subset enumeration."""
    n = group.n
    if n > 12:
        raise ValueError("oracle capped at order 12")
    subgroups = []
    for mask in range(1 << n):
        if not mask & 1:  # must contain the identity (index 0)
            continue
        members = [i for i in range(n) if mask >> i & 1]
        if all(mask >> group.mul(a, b) & 1 for a in members for b in members):
            subgroups.append(frozenset(members))
    return subgroups


def _loop_closure(g, base, gens):
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


def subgroups_by_closure(g, base):
    """All subgroups of the isotropy group at base, as sorted arrow sets.

    Seeds with closures of generating sets of size at most two, then
    saturates by adjoining single elements until nothing new appears;
    every closure multiplies on both sides through g.compose.
    """
    loops = g.loops(base)
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


def class_reps_by_scan(g, cap=DEFAULT_ISOTROPY_CAP):
    """Conjugacy class representatives, by conjugating each subgroup from
    subgroups_by_closure by every loop through g.compose.

    Classes come per component, then by decreasing order, then by the
    least arrow tuple, which is also the representative.
    """
    reps = []
    for comp in g.components():
        base = comp[0]
        loops = g.loops(base)
        if len(loops) > cap:
            raise IsotropyTooLarge("isotropy group exceeds the subgroup "
                                   "enumeration cap", object=base,
                                   order=len(loops), cap=cap)
        subgroups = subgroups_by_closure(g, base)
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
    return reps


def class_index_by_scan(h, reps):
    """Position of h's conjugacy class in reps, by testing h for conjugacy
    through g.compose against every rep of its component in turn."""
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


def generating_set(group):
    """A small generating set, greedily grown."""
    gens = []
    closed = {0}
    for x in range(group.n):
        if x in closed:
            continue
        gens.append(x)
        frontier = list(closed | {x})
        closed.add(x)
        while frontier:
            fresh = []
            for a in frontier:
                for b in list(closed):
                    for c in (group.mul(a, b), group.mul(b, a)):
                        if c not in closed:
                            closed.add(c)
                            fresh.append(c)
            frontier = fresh
        if len(closed) == group.n:
            break
    return gens


def groups_isomorphic(a, b, cap=16):
    """Brute force over generator images, capped at order 16."""
    if a.n != b.n:
        return False
    if a.n > cap:
        raise ValueError("oracle capped at order %d" % cap)
    gens = generating_set(a)
    if not gens:
        return True
    for images in product(range(b.n), repeat=len(gens)):
        # grow the partial homomorphism from the generator images
        mapping = {0: 0}
        for g, im in zip(gens, images):
            mapping[g] = im
        frontier = list(mapping)
        consistent = True
        while frontier and consistent:
            fresh = []
            for u in frontier:
                for v in list(mapping):
                    for s, t in ((a.mul(u, v), b.mul(mapping[u], mapping[v])),
                                 (a.mul(v, u), b.mul(mapping[v], mapping[u]))):
                        if s in mapping:
                            if mapping[s] != t:
                                consistent = False
                        else:
                            mapping[s] = t
                            fresh.append(s)
            frontier = fresh
        if (consistent and len(mapping) == a.n
                and len(set(mapping.values())) == b.n):
            return True
    return False


def det_gauss(matrix):
    """Exact determinant by fraction Gaussian elimination."""
    n = len(matrix)
    m = [[Fraction(v) for v in row] for row in matrix]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] * inv
            if factor:
                m[r] = [v - factor * w for v, w in zip(m[r], m[col])]
    return det


def _block_starts(table):
    # index of the first row of each row's block
    return [table.components.index(c) for c in table.components]


def ghost_by_rows(table, coeffs):
    """M·a row by row in the input's own arithmetic, up to the diagonal."""
    return tuple(sum(map(mul, row[s:i + 1], coeffs[s:i + 1]))
                 for i, (row, s) in enumerate(zip(table.matrix,
                                                  _block_starts(table))))


def solve_by_fractions(table, ghost):
    """M⁻¹·v by forward substitution over every row, one division per row.

    Integral entries come back as int, the others as Fraction; a zero
    pivot raises SingularMatrix.
    """
    out = []
    for i, (row, s) in enumerate(zip(table.matrix, _block_starts(table))):
        pivot = row[i]
        if not pivot:
            raise SingularMatrix("zero pivot in triangular solve", row=i)
        acc = ghost[i] - sum(map(mul, row[s:i], out[s:i]))
        q, r = divmod(acc, pivot)
        out.append(Fraction(acc) / pivot if r else int(q))
    return tuple(out)


def structure_constant_triples(ring):
    """`to_json()["structure_constants"]` over all rank² / 2 pairs i <= j,
    each solved by `solve_by_fractions` on the product of columns i, j."""
    table = ring.mark_table()
    triples = []
    for i in range(ring.rank):
        for j in range(i, ring.rank):
            coeffs = solve_by_fractions(
                table, [row[i] * row[j] for row in table.matrix])
            terms = [[k, c] for k, c in enumerate(coeffs) if c]
            if terms:
                triples.append([i, j, terms])
    return triples


def check_group_table(table):
    """Group axioms on a Cayley table over 0..n-1 with identity 0, every
    associativity triple (i, j, k) in order; raises the first failure."""
    n = len(table)
    for i, row in enumerate(table):
        if len(row) != n or any(not (0 <= v < n) for v in row):
            raise MalformedInput("row %d is not a permutation range" % i, row=i)
    if any(table[0][j] != j or table[j][0] != j for j in range(n)):
        raise MalformedInput("index 0 is not an identity element")
    for i, j, k in product(range(n), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            raise MalformedInput("associativity fails", triple=(i, j, k))
    for i in range(n):
        if not any(table[i][j] == 0 for j in range(n)):
            raise MalformedInput("element has no inverse", element=i)


def structure_constants(ring, i, j):
    """Product of basis cosets i and j as a fibered product, decomposed."""
    return decompose(fibered_product(ring.coset(i), ring.coset(j)),
                     ring.reps).coefficients


def idempotents_by_products(ring, idems):
    """e_i e_j = delta_ij e_i for all rank² pairs, through ring.mul, and sum 1.

    Weaker than `ghost.verify_idempotents`: any complete orthogonal system
    of rank idempotents passes, in any order and with zeros, such as
    [one, 0, ..., 0]. The two agree on the primitive system.
    """
    if len(idems) != ring.rank or any(e.ring is not ring for e in idems):
        return False
    zero = ring.zero().coeffs
    return (all(ring.mul(ei, ej).coeffs == (ei.coeffs if i == j else zero)
                for i, ei in enumerate(idems) for j, ej in enumerate(idems))
            and tuple(map(sum, zip(*(e.coeffs for e in idems))))
            == ring.one().coeffs)


def _subgroups(group):
    """Every subgroup, grown from the trivial one by adjoining elements."""
    def closure(gens):
        els = {0}
        frontier = [0]
        while frontier:
            fresh = [group.mul(a, x) for a in frontier for x in gens]
            frontier = [c for c in set(fresh) if c not in els]
            els.update(frontier)
        return frozenset(els)

    found = {frozenset({0})}
    frontier = list(found)
    while frontier:
        fresh = {closure(sub | {x}) for sub in frontier
                 for x in range(group.n) if x not in sub}
        frontier = [sub for sub in fresh if sub not in found]
        found.update(frontier)
    return found


def gluck_idempotents(ring):
    """Primitive idempotents by Gluck's formula, component by component.

    On the isotropy group G at each component's base object,
    e_H = (1/|N(H)|) sum_{K <= H} |K| mu(K, H) [G/K], with mu the Moebius
    function of the subgroup lattice (D. Gluck, Illinois J. Math. 25,
    1981). Uses subgroups, normalizers and conjugation only, never marks.
    Returns coefficient vectors ordered like ring.reps.
    """
    g = ring.groupoid
    out = []
    for rep in ring.reps:
        group, arrow_at = g.isotropy(rep.base).as_group()
        index = {arr: x for x, arr in enumerate(arrow_at)}
        subs = _subgroups(group)

        def conjugate(sub, x):
            return frozenset(group.mul(group.mul(x, k), group.inv(x))
                             for k in sub)

        def class_index(sub):
            return next(i for i, r in enumerate(ring.reps) if r.base == rep.base
                        and any(conjugate(sub, x) == frozenset(
                            index[a] for a in r.arrows)
                            for x in range(group.n)))

        h = frozenset(index[a] for a in rep.arrows)
        mu = {h: 1}
        for k in sorted((s for s in subs if s < h), key=len, reverse=True):
            mu[k] = -sum(mu[m] for m in mu if k < m)
        normalizer = sum(1 for x in range(group.n) if conjugate(h, x) == h)
        coeffs = [Fraction(0)] * ring.rank
        for k, m in mu.items():
            coeffs[class_index(k)] += Fraction(len(k) * m, normalizer)
        out.append(tuple(coeffs))
    return out
