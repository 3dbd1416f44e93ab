"""Benchmark inputs: group tables, groupoid JSON, G-sets and subgroupoids.

Everything here is built by the benchmark itself, without the package under
test, so that the inputs (and the expected answers attached to them) do not
move when the package changes. Each workload draws from a fixed pool of
jobs; the run's seed only picks the order in which the pool is cycled.
Digests of every pool job's output are pinned in refs.json.
"""

from __future__ import annotations

import itertools
import json
import os
from random import Random

# -- group tables ------------------------------------------------------------


def cyclic(n):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def perm_group(gens, degree):
    """Cayley table of the permutation group generated by gens.

    Elements are sorted image tuples, so index 0 is the identity.
    """
    ident = tuple(range(degree))
    seen, frontier = {ident}, [ident]
    while frontier:
        fresh = []
        for p in frontier:
            for g in gens:
                q = tuple(g[p[x]] for x in range(degree))
                if q not in seen:
                    seen.add(q)
                    fresh.append(q)
        frontier = fresh
    els = sorted(seen)
    index = {p: i for i, p in enumerate(els)}
    return [[index[tuple(p[q[x]] for x in range(degree))] for q in els]
            for p in els]


def direct_product(a, b):
    n, m = len(a), len(b)
    return [[a[i // m][j // m] * m + b[i % m][j % m] for j in range(n * m)]
            for i in range(n * m)]


def quaternion8():
    # element 2*basis + sign over the basis 1, i, j, k
    basis = {(0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
             (1, 0): (0, 1), (2, 0): (0, 2), (3, 0): (0, 3),
             (1, 1): (1, 0), (2, 2): (1, 0), (3, 3): (1, 0),
             (1, 2): (0, 3), (2, 3): (0, 1), (3, 1): (0, 2),
             (2, 1): (1, 3), (3, 2): (1, 1), (1, 3): (1, 2)}

    def mul(a, b):
        s, c = basis[(a // 2, b // 2)]
        return 2 * c + (a % 2 ^ b % 2 ^ s)
    return [[mul(a, b) for b in range(8)] for a in range(8)]


def sl23():
    """SL(2,3) as 2x2 matrices over F3, identity first."""
    def mm(x, y):
        return tuple(tuple(sum(x[i][k] * y[k][j] for k in range(2)) % 3
                           for j in range(2)) for i in range(2))
    ident = ((1, 0), (0, 1))
    mats = sorted(((a, b), (c, d))
                  for a, b, c, d in itertools.product(range(3), repeat=4)
                  if (a * d - b * c) % 3 == 1 and ((a, b), (c, d)) != ident)
    mats = [ident] + mats
    index = {m: i for i, m in enumerate(mats)}
    return [[index[mm(x, y)] for y in mats] for x in mats]


S3 = perm_group([(1, 0, 2), (1, 2, 0)], 3)
D4 = perm_group([(1, 2, 3, 0), (3, 2, 1, 0)], 4)
CATALOG = {"C%d" % n: cyclic(n) for n in range(1, 25)}
CATALOG.update({"C2xC2": direct_product(cyclic(2), cyclic(2)), "S3": S3,
                "D4": D4, "Q8": quaternion8()})
SMALL = [name for name, t in CATALOG.items() if len(t) <= 8]

# groups of the deep workload, written to table files during set-up
DEEP_GROUPS = {
    "S4": perm_group([(1, 2, 3, 0), (1, 0, 2, 3)], 4),
    "SL23": sl23(),
    "Q8xC3": direct_product(quaternion8(), cyclic(3)),
    "D4xC3": direct_product(D4, cyclic(3)),
    "S3xC4": direct_product(S3, cyclic(4)),
    "S3xS3": direct_product(S3, S3),
    "A5": perm_group([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], 5),
}


def n_divisors(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


# Conjugacy classes of subgroups, from the literature (coprime direct
# products multiply). These anchor the rank checks independently of the
# package; groups missing here are checked by digest only.
CLASS_COUNTS = {"S3": 4, "D4": 8, "Q8": 6, "C2xC2": 5, "S4": 11, "A4": 5,
                "SL23": 7, "A5": 9, "Q8xC3": 12, "D4xC3": 16}
CLASS_COUNTS.update({"C%d" % n: n_divisors(n) for n in range(1, 25)})


def inverse_of(table, x):
    return table[x].index(0)


# -- subgroups (brute force, small groups only) -------------------------------

def closure(table, gens):
    els = {0} | set(gens)
    while True:
        new = {table[a][b] for a in els for b in els} - els
        if not new:
            return frozenset(els)
        els |= new


def subgroups(table):
    """All subgroups of a group of order <= 8 (at most two generators)."""
    n = len(table)
    found = {closure(table, (a, b)) for a in range(n) for b in range(n)}
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def conjugate(table, c, sub):
    ci = inverse_of(table, c)
    return frozenset(table[table[c][h]][ci] for h in sub)


def class_id(table, sub, subs):
    """Index of the first subgroup in subs conjugate to sub."""
    conj = {conjugate(table, c, sub) for c in range(len(table))}
    return next(i for i, s in enumerate(subs) if s in conj)


# -- transitive groupoids as JSON --------------------------------------------

class Trg:
    """trg(G, n): arrows (s, t, x) from object s to t carrying x in G.

    Arrow ids are ints; objects are labelled o0..o{n-1}. (t, c, y) after
    (s, t, x) is (s, c, y*x).
    """

    def __init__(self, table, n):
        self.table, self.n, self.order = table, n, len(table)

    def arrow(self, s, t, x):
        return (s * self.n + t) * self.order + x

    @property
    def n_arrows(self):
        return self.order * self.n * self.n

    def to_json(self):
        n, o, tab = self.n, self.order, self.table
        objs = ["o%d" % a for a in range(n)]
        arrows, inverse, compose = [], {}, []
        for s in range(n):
            for t in range(n):
                for x in range(o):
                    g = self.arrow(s, t, x)
                    arrows.append({"id": g, "src": objs[s], "tgt": objs[t]})
                    inverse[str(g)] = self.arrow(t, s, inverse_of(tab, x))
                    for c in range(n):
                        base = (t * n + c) * o
                        for y in range(o):
                            compose.append([base + y, g,
                                            self.arrow(s, c, tab[y][x])])
        return {"objects": objs, "arrows": arrows,
                "identity": {objs[a]: self.arrow(a, a, 0) for a in range(n)},
                "inverse": inverse, "compose": compose}


# -- right G-sets and subgroupoids of trg(G, n) -------------------------------

def coset_elements(trg, sub):
    """Carrier of G/H for H = sub at o0: pairs (object, right coset Hz)."""
    cosets = sorted({frozenset(trg.table[h][z] for h in sub)
                     for z in range(trg.order)}, key=min)
    return [(a, c) for a in range(trg.n) for c in cosets]


def gset_json(trg, subs, rng, prefix):
    """Disjoint union of G/H over subs, carrier shuffled, as JSON.

    (a, Hz) . (s -> a, y) = (s, H z y): defined over tgt, lands over src.
    """
    carrier = []
    for k, sub in enumerate(subs):
        carrier.extend((k, a, c) for a, c in coset_elements(trg, sub))
    rng.shuffle(carrier)
    where = {}
    for i, (k, a, c) in enumerate(carrier):
        where[(k, a, c)] = i
    labels = ["%s%d" % (prefix, i) for i in range(len(carrier))]
    tab = trg.table
    action = []
    for i, (k, a, c) in enumerate(carrier):
        z = min(c)
        for s in range(trg.n):
            for y in range(trg.order):
                moved = frozenset(tab[h][tab[z][y]] for h in subs[k])
                action.append([labels[i], trg.arrow(s, a, y),
                               labels[where[(k, s, moved)]]])
    return {"elements": labels,
            "sigma": {labels[i]: "o%d" % a for i, (_, a, _) in enumerate(carrier)},
            "action": action}


def subgroupoid_json(trg, objects, sub, twist):
    """Arrows (a, b, d_b x d_a^-1) for x in sub over the object set.

    With every twist d the identity this is sub spread over the objects;
    any twist gives a conjugally equivalent subgroupoid.
    """
    tab = trg.table
    arrows = []
    for a in objects:
        da_inv = inverse_of(tab, twist[a])
        for b in objects:
            for x in sub:
                arrows.append(trg.arrow(a, b, tab[tab[twist[b]][x]][da_inv]))
    return {"objects": ["o%d" % a for a in objects], "arrows": sorted(arrows)}


# -- pools -------------------------------------------------------------------
#
# A pool entry is a dict with a stable "key" (the digest key in refs.json),
# the job "kind", and whatever the job needs; "copies" is how often it runs
# per cycle (default once).

WIDE_LADDER = [("D4", 12), ("C6", 10), ("C24", 2)]


def wide_pool():
    """Transitive groupoids loaded from JSON text.

    The draws run twice per cycle: the ladder makes a cycle long, and the
    extra runs give each draw's median more samples.
    """
    out = [{"key": "trg:%s:%d" % (g, n), "group": g, "n": n}
           for g, n in WIDE_LADDER]
    for g in SMALL:
        order = len(CATALOG[g])
        for n in range(1, 40):
            if 150 <= order * n * n <= 300:
                out.append({"key": "trg:%s:%d" % (g, n), "group": g, "n": n,
                            "copies": 2})
    for e in out:
        e["kind"] = "pipeline"
        e["components"] = [e["group"]]
    return out


DEEP_SPECS = [(g, n) for g in ("S4", "SL23", "Q8xC3", "D4xC3", "S3xC4")
              for n in (1, 2)]
# Above order 24 the pipeline fails in `split` at this commit (the factor
# rings and BurnsideRing.mark_table ignore `cap`); these run as a probe in
# the traced run only, never among the timed jobs.
CAP_PROBE = [("S3xS3", 1, 36), ("A5", 1, 60)]


def deep_pool():
    return [{"key": "trg:%s:%d" % (g, n), "kind": "pipeline", "group": g,
             "n": n, "cap": 24, "components": [g]} for g, n in DEEP_SPECS]


SPLIT_LADDER = "coprod:trg:D4:2,trg:Q8:2,trg:C12:2"


def _part_rank(part):
    return 1 if part.startswith("pair:") else CLASS_COUNTS[part.split(":")[1]]


def split_pool(size=24):
    """Coproducts of 3-6 small parts with total rank 12-24 (fixed draw)."""
    rng = Random(20181)
    groups = [g for g in SMALL if g != "C1"]
    specs = [SPLIT_LADDER]
    while len(specs) < size + 1:
        parts = []
        for _ in range(rng.randint(3, 6)):
            if rng.random() < 0.2:
                parts.append("pair:%d" % rng.randint(2, 3))
            else:
                parts.append("trg:%s:%d" % (rng.choice(groups), rng.randint(1, 2)))
        spec = "coprod:" + ",".join(parts)
        if 12 <= sum(map(_part_rank, parts)) <= 24 and spec not in specs:
            specs.append(spec)
    return [{"key": s, "kind": "pipeline", "spec": s,
             "components": [p.split(":")[1] if p.startswith("trg:") else "pair"
                            for p in s[len("coprod:"):].split(",")]}
            for s in specs]


# groupoids the queries run against: (group, objects)
QUERY_GROUPOIDS = [("S3", 2), ("D4", 2), ("C2xC2", 3), ("Q8", 2), ("C6", 3),
                   ("D4", 3)]
VALIDATE_ONLY = [("S3", 4), ("C4", 6), ("C2", 12)]


def query_pool():
    """Requests over fixture files; expected answers known by construction.

    Returns the entries and the files they name, relative to the fixture
    directory; `build` writes the files and makes the paths absolute.
    """
    rng = Random(1807)
    files, out = {}, []
    for gi, (name, n) in enumerate(QUERY_GROUPOIDS + VALIDATE_ONLY):
        trg = Trg(CATALOG[name], n)
        gfile = "g%d.json" % gi
        files[gfile] = trg.to_json()
        out.append({"key": "validate:%s" % gfile, "argv": ["validate", gfile],
                    "expect": {"valid": True, "objects": n,
                               "arrows": trg.n_arrows, "components": 1}})
        if (name, n) in VALIDATE_ONLY:
            continue
        subs = subgroups(trg.table)
        ids = [class_id(trg.table, s, subs) for s in subs]

        def draw(limit=24):
            """1-3 random subgroups whose cosets total at most limit elements."""
            while True:
                chosen = [rng.choice(subs) for _ in range(rng.randint(1, 3))]
                if sum(n * trg.order // len(s) for s in chosen) <= limit:
                    return chosen

        for k in range(6):
            stem = "g%d_iso%d" % (gi, k)
            x = draw()
            if k % 2 == 0:
                y, same = x, True
            else:
                key = sorted(ids[subs.index(s)] for s in x)
                while True:
                    y = draw()
                    if sorted(ids[subs.index(s)] for s in y) != key:
                        break
                same = False
            files[stem + "x.json"] = gset_json(trg, x, rng, "x")
            files[stem + "y.json"] = gset_json(trg, y, rng, "y")
            out.append({"key": "isomorphic:" + stem,
                        "argv": ["gset", "isomorphic", stem + "x.json",
                                 stem + "y.json", "--groupoid", gfile],
                        "expect": {"isomorphic": same}})
        for k in range(6):
            stem = "g%d_dec%d" % (gi, k)
            x = draw()
            files[stem + ".json"] = gset_json(trg, x, rng, "e")
            out.append({"key": "decompose:" + stem,
                        "argv": ["gset", "decompose", stem + ".json",
                                 "--groupoid", gfile],
                        "expect": {"orders": sorted(len(s) for s in x)}})
        for k in range(6):
            stem = "g%d_conj%d" % (gi, k)
            a = rng.choice(subs[1:])
            if k % 2 == 0:
                b, same = a, True
            else:
                others = [s for s in subs if ids[subs.index(s)] != ids[subs.index(a)]]
                same_order = [s for s in others if len(s) == len(a)]
                b, same = rng.choice(same_order or others), False
            objs = [sorted(rng.sample(range(n), rng.randint(2, n)))
                    for _ in range(2)]
            ident = [0] * n
            twist = [rng.randrange(trg.order) for _ in range(n)]
            files[stem + "h.json"] = subgroupoid_json(trg, objs[0], a, ident)
            files[stem + "k.json"] = subgroupoid_json(trg, objs[1], b, twist)
            out.append({"key": "conjugate:" + stem,
                        "argv": ["conjugate", stem + "h.json", stem + "k.json",
                                 "--groupoid", gfile],
                        "expect": {"equivalent": same}})
    for e in out:
        e["kind"] = "query"
    return out, files


POOLS = {"wide": wide_pool, "deep": deep_pool, "split": split_pool}


def build(workload, workdir):
    """Pool entries with their inputs made concrete under workdir."""
    if workload == "queries":
        pool, files = query_pool()
        for fname, data in files.items():
            with open(os.path.join(workdir, fname), "w") as fh:
                json.dump(data, fh)
        for e in pool:
            e["argv"] = [os.path.join(workdir, a) if a.endswith(".json") else a
                         for a in e["argv"]]
            e["files"] = {a: files[os.path.basename(a)] for a in e["argv"]
                          if a.endswith(".json")}
        return pool
    pool = POOLS[workload]()
    tables = {}
    for e in pool:
        if workload == "wide":
            trg = Trg(CATALOG[e["group"]], e["n"])
            e["text"] = json.dumps(trg.to_json())
        elif workload == "deep":
            if e["group"] not in tables:
                tables[e["group"]] = write_table(workdir, e["group"])
            e["spec"] = "trg:%s:%d" % (tables[e["group"]], e["n"])
    return pool


def write_table(workdir, group):
    path = os.path.join(workdir, group + ".json")
    with open(path, "w") as fh:
        json.dump({"name": group, "table": DEEP_GROUPS[group]}, fh)
    return path


def probe_pool(workdir):
    return [{"key": "trg:%s:%d@cap%d" % (g, n, cap), "kind": "pipeline",
             "group": g, "n": n, "cap": cap, "components": [g],
             "spec": "trg:%s:%d" % (write_table(workdir, g), n)}
            for g, n, cap in CAP_PROBE]


def schedule(pool, seed):
    """Endless cycles over the pool, each in a new seeded order.

    A run stops only at a cycle boundary, so every run covers the same mix
    of jobs whatever the number of cycles that fit.
    """
    rng = Random(seed)
    cycle = [e for e in pool for _ in range(e.get("copies", 1))]
    while True:
        cycle = cycle[:]
        rng.shuffle(cycle)
        yield cycle
