"""Small finite groups given by explicit Cayley tables.

These feed the groupoid constructors (one-object groupoids, action and
induced groupoids) and the CLI generator grammar. Elements are the indices
0..n-1; index 0 is always the identity.
"""

from __future__ import annotations

import itertools

from .errors import MalformedInput


class Group:
    """A finite group as a Cayley table on element indices."""

    def __init__(self, table, names=None, name="G", check=True):
        self.table = tuple(tuple(row) for row in table)
        self.n = len(self.table)
        self.names = tuple(str(x) for x in names) if names else tuple(
            str(i) for i in range(self.n))
        self.name = name
        if len(self.names) != self.n:
            raise MalformedInput("name list length differs from table size")
        if check:
            self._check()
        self._inv = tuple(self._find_inverse(i) for i in range(self.n))

    def _check(self):
        n = self.n
        for i, row in enumerate(self.table):
            if len(row) != n or any(not (0 <= v < n) for v in row):
                raise MalformedInput("row %d is not a permutation range" % i, row=i)
        if any(self.table[0][j] != j or self.table[j][0] != j for j in range(n)):
            raise MalformedInput("index 0 is not an identity element")
        t = self.table
        # Light's test: (ij)k = i(jk) for all i, k carries over from j in a
        # generating set to products of such j, hence to every j
        if not all(t[t[i][j]] == tuple(map(t[i].__getitem__, t[j]))
                   for j in self._generators() for i in range(n)):
            for i, j, k in itertools.product(range(n), repeat=3):
                if t[t[i][j]][k] != t[i][t[j][k]]:
                    raise MalformedInput("associativity fails", triple=(i, j, k))
        for i in range(n):
            if not any(self.table[i][j] == 0 for j in range(n)):
                raise MalformedInput("element has no inverse", element=i)

    def _generators(self):
        """Greedy generators: each element not yet a product of earlier ones,
        products taken from 0 by right multiplication; needs no associativity."""
        t, reached, gens = self.table, {0}, []
        for s in range(self.n):
            if s not in reached:
                gens.append(s)
                new = reached
                while new:
                    new = {t[r][g] for r in new for g in gens} - reached
                    reached |= new
        return gens

    def _find_inverse(self, i):
        for j in range(self.n):
            if self.table[i][j] == 0 and self.table[j][i] == 0:
                return j
        raise MalformedInput("element has no two-sided inverse", element=i)

    def mul(self, i, j):
        return self.table[i][j]

    def inv(self, i):
        return self._inv[i]

    def __len__(self):
        return self.n

    def __repr__(self):
        return "Group(%s, order %d)" % (self.name, self.n)


def _perm_mul(p, q):
    # (p*q)(x) = p(q(x))
    return tuple(p[q[x]] for x in range(len(p)))


def from_permutations(gens, degree, name="G"):
    """Close a set of permutations (image tuples) under composition."""
    idem = tuple(range(degree))
    els = {idem}
    frontier = [idem]
    gens = [tuple(g) for g in gens]
    while frontier:
        new = []
        for g in gens:
            for p in frontier:
                q = _perm_mul(g, p)
                if q not in els:
                    els.add(q)
                    new.append(q)
        frontier = new
    order = sorted(els)  # the identity is least, so it gets index 0
    index = {p: i for i, p in enumerate(order)}
    table = [[index[_perm_mul(p, q)] for q in order] for p in order]
    names = ["".join(map(str, p)) if degree <= 10 else str(i)
             for i, p in enumerate(order)]
    return Group(table, names=names, name=name, check=False)


def cyclic(n, name=None):
    if n < 1:
        raise MalformedInput("cyclic group order must be positive", order=n)
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return Group(table, name=name or "C%d" % n, check=False)


def symmetric3():
    return from_permutations([(1, 0, 2), (1, 2, 0)], 3, name="S3")


def dihedral4():
    """Symmetries of the square, order 8."""
    return from_permutations([(1, 2, 3, 0), (3, 2, 1, 0)], 4, name="D4")


def quaternion8():
    """The quaternion group {±1, ±i, ±j, ±k}."""
    # element = (sign bit, basis index) encoded as 2*basis + sign
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    basis_mul = {  # (b1, b2) -> (sign, basis) for b1*b2, bases 0=1,1=i,2=j,3=k
        (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
        (1, 0): (0, 1), (2, 0): (0, 2), (3, 0): (0, 3),
        (1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0),
        (1, 2): (0, 3), (2, 3): (0, 1), (3, 1): (0, 2),
        (2, 1): (1, 3), (3, 2): (1, 1), (1, 3): (1, 2),
    }
    def mul(a, b):
        sa, ba = a % 2, a // 2
        sb, bb = b % 2, b // 2
        s, bc = basis_mul[(ba, bb)]
        return 2 * bc + (sa ^ sb ^ s)
    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    return Group(table, names=names, name="Q8", check=False)


def direct_product(a: Group, b: Group):
    n, m = a.n, b.n
    table = [[(a.mul(i // m, j // m)) * m + b.mul(i % m, j % m)
              for j in range(n * m)] for i in range(n * m)]
    names = ["(%s,%s)" % (a.names[i // m], b.names[i % m]) for i in range(n * m)]
    return Group(table, names=names, name="%sx%s" % (a.name, b.name), check=False)


def named(spec: str) -> Group:
    """Look up a catalog group: C1..C24, S3, D4, Q8, C2xC2."""
    spec = spec.strip()
    if spec.upper().startswith("C") and "X" not in spec.upper():
        try:
            n = int(spec[1:])
        except ValueError:
            raise MalformedInput("unknown group name", group=spec)
        if not 1 <= n <= 24:
            raise MalformedInput("cyclic catalog covers C1..C24", group=spec)
        return cyclic(n)
    key = spec.upper().replace(" ", "")
    if key == "S3":
        return symmetric3()
    if key == "D4":
        return dihedral4()
    if key == "Q8":
        return quaternion8()
    if key == "C2XC2":
        return direct_product(cyclic(2), cyclic(2))
    raise MalformedInput("unknown group name", group=spec)
