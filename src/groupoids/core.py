"""Finite groupoids over dense integer index tables.

A groupoid here is the full data (objects, arrows, src, tgt, identity,
inverse, composition); composition gh is defined exactly when src(g)=tgt(h),
with src(gh)=src(h) and tgt(gh)=tgt(g). An arrow g with src(g)=a and
tgt(g)=b is "an arrow a -> b", and hom(a,b) collects all of them.

Everything is immutable after construction and safe to share. Objects and
arrows are referred to by small dense indices; the original input labels are
kept for output. Validation checks the tables themselves, with no presentations
and no word problem; associativity is tested on a generating set (Light's
test), which is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from .errors import (
    AssociativityFailure,
    CompositionDomainMismatch,
    DanglingArrowEndpoint,
    EndpointMismatch,
    GroupoidMismatch,
    IdentityNotPreserved,
    CompositionNotPreserved,
    InvalidGroupAction,
    InvalidRelation,
    InverseFailure,
    MalformedInput,
    MissingIdentity,
    NotASubgroupoid,
    MultiObjectSubgroupoid,
    StructureMapOutOfRange,
    UnknownObject,
)
from .groups import Group


class FiniteGroupoid:
    """Objects 0..n-1, arrows 0..m-1, dense structure tables.

    `compose` maps composable index pairs (g, h) to the index of gh and
    contains exactly the pairs with src(g)=tgt(h).
    """

    def __init__(self, src, tgt, identity, inverse, compose,
                 object_labels=None, arrow_labels=None, check=True):
        self._src = tuple(src)
        self._tgt = tuple(tgt)
        self._identity = tuple(identity)
        self._inverse = tuple(inverse)
        self._compose = dict(compose)
        self.object_labels = tuple(object_labels) if object_labels is not None \
            else tuple(range(len(self._identity)))
        self.arrow_labels = tuple(arrow_labels) if arrow_labels is not None \
            else tuple(range(len(self._src)))
        if len(self.object_labels) != self.n_objects:
            raise MalformedInput("object label count mismatch")
        if len(self.arrow_labels) != self.n_arrows:
            raise MalformedInput("arrow label count mismatch")
        self._object_index = {lab: i for i, lab in enumerate(self.object_labels)}
        self._arrow_index = {lab: i for i, lab in enumerate(self.arrow_labels)}
        if len(self._object_index) != self.n_objects:
            raise MalformedInput("duplicate object labels")
        if len(self._arrow_index) != self.n_arrows:
            raise MalformedInput("duplicate arrow labels")
        self._components = None
        self._hom = None
        self._into = None
        self._derived = {}  # memo for expensive derived data (reps, marks)
        if check:
            self._check()

    # -- basic accessors ---------------------------------------------------

    @property
    def n_objects(self):
        return len(self._identity)

    @property
    def n_arrows(self):
        return len(self._src)

    def objects(self):
        return range(self.n_objects)

    def arrows(self):
        return range(self.n_arrows)

    def src(self, g):
        return self._src[g]

    def tgt(self, g):
        return self._tgt[g]

    def identity(self, a):
        if not 0 <= a < self.n_objects:
            raise UnknownObject("no such object", object=a)
        return self._identity[a]

    def inverse(self, g):
        return self._inverse[g]

    def compose(self, g, h):
        """The arrow gh; raises if src(g) != tgt(h)."""
        try:
            return self._compose[(g, h)]
        except KeyError:
            raise CompositionDomainMismatch(
                "src(g) != tgt(h)", g=g, h=h) from None

    def object_index(self, label):
        try:
            return self._object_index[label]
        except KeyError:
            raise UnknownObject("no such object label", label=label) from None

    def arrow_index(self, label):
        try:
            return self._arrow_index[label]
        except KeyError:
            raise MalformedInput("no such arrow label", label=label) from None

    # -- cached adjacency --------------------------------------------------

    def _adjacency(self):
        if self._hom is None:
            hom = {}
            into = [[] for _ in range(self.n_objects)]
            for g in range(self.n_arrows):
                hom.setdefault((self._src[g], self._tgt[g]), []).append(g)
                into[self._tgt[g]].append(g)
            self._hom = {k: tuple(v) for k, v in hom.items()}
            self._into = tuple(tuple(v) for v in into)
        return self._hom

    def hom(self, a, b):
        """All arrows a -> b (src=a, tgt=b)."""
        return self._adjacency().get((a, b), ())

    def arrows_into(self, a):
        """All arrows with target a."""
        self._adjacency()
        return self._into[a]

    def loops(self, a):
        return self.hom(a, a)

    # -- structure ---------------------------------------------------------

    def components(self):
        """Partition of objects into connected classes, ordered by least member."""
        if self._components is None:
            parent = list(range(self.n_objects))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for g in range(self.n_arrows):
                ra, rb = find(self._src[g]), find(self._tgt[g])
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
            classes = {}
            for a in range(self.n_objects):
                classes.setdefault(find(a), []).append(a)
            self._components = tuple(
                tuple(sorted(v)) for _, v in sorted(classes.items()))
        return self._components

    def component_index(self, a):
        for i, comp in enumerate(self.components()):
            if a in comp:
                return i
        raise UnknownObject("no such object", object=a)

    def is_transitive(self):
        # the empty groupoid counts as transitive
        return len(self.components()) <= 1

    def isotropy(self, a):
        if not 0 <= a < self.n_objects:
            raise UnknownObject("no such object", object=a)
        return IsotropyGroup(self, a, self.loops(a))

    def full_subgroupoid(self, objects):
        """Restriction to an object subset, with index maps back to self."""
        objs = tuple(sorted(set(objects)))
        for a in objs:
            if not 0 <= a < self.n_objects:
                raise UnknownObject("no such object", object=a)
        keep = set(objs)
        arrows = tuple(g for g in range(self.n_arrows)
                       if self._src[g] in keep and self._tgt[g] in keep)
        obj_new = {a: i for i, a in enumerate(objs)}
        arr_new = {g: i for i, g in enumerate(arrows)}
        sub = FiniteGroupoid(
            src=[obj_new[self._src[g]] for g in arrows],
            tgt=[obj_new[self._tgt[g]] for g in arrows],
            identity=[arr_new[self._identity[a]] for a in objs],
            inverse=[arr_new[self._inverse[g]] for g in arrows],
            compose={(arr_new[g], arr_new[h]): arr_new[gh]
                     for (g, h), gh in self._compose.items()
                     if g in arr_new and h in arr_new},
            object_labels=[self.object_labels[a] for a in objs],
            arrow_labels=[self.arrow_labels[g] for g in arrows],
            check=False)
        return sub, objs, arrows

    # -- validation --------------------------------------------------------

    def _check(self):
        """Check every axiom; the first failure, in a fixed order, is raised.

        Composition is checked on position rows: pos[h] is the index of h
        in arrows_into(tgt h), and row[g][pos[k]] = pos[gk] for every k in
        arrows_into(src g). A hole (None) is a missing composable pair, and
        associativity (gh)k = g(hk) over all k becomes the list equality
        row[gh] == [row[g][x] for x in row[h]]. That equality is checked
        for h in a generating set (`_generators`) and every g, which is
        exact; only if it fails are all composable pairs checked, so the
        reported (g, h, k) is the first failure in table order.
        """
        n, m = self.n_objects, self.n_arrows
        src, tgt, compose = self._src, self._tgt, self._compose
        identity = self._identity
        for g in range(m):
            if not 0 <= src[g] < n:
                raise DanglingArrowEndpoint("src out of range", arrow=g)
            if not 0 <= tgt[g] < n:
                raise DanglingArrowEndpoint("tgt out of range", arrow=g)
        for a in range(n):
            i = identity[a]
            if not 0 <= i < m:
                raise MissingIdentity("identity arrow missing", object=a)
            if src[i] != a or tgt[i] != a:
                raise MissingIdentity("identity arrow is not a loop at its object",
                                      object=a, arrow=i)
        if len(self._inverse) != m:
            raise InverseFailure("inverse table size mismatch")
        for g in range(m):
            if not 0 <= self._inverse[g] < m:
                raise InverseFailure("inverse out of range", arrow=g)
        self._adjacency()
        into = self._into
        pos = [0] * m
        for arrows in into:
            for i, h in enumerate(arrows):
                pos[h] = i
        row = [[None] * len(into[src[g]]) for g in range(m)]
        for (g, h), gh in compose.items():
            if (0 <= g < m and 0 <= h < m and 0 <= gh < m and src[g] == tgt[h]
                    and src[gh] == src[h] and tgt[gh] == tgt[g]):
                row[g][pos[h]] = pos[gh]
            else:
                # report the least failing pair, whatever the table's order
                first = min(key for key, v in compose.items()
                            if self._entry_error(key, v))
                raise self._entry_error(first, compose[first])
        for g in range(m):
            if None in row[g]:
                h = into[src[g]][row[g].index(None)]
                raise CompositionDomainMismatch(
                    "composable pair missing from table", g=g, h=h)
        for g in range(m):
            if compose[(g, identity[src[g]])] != g:
                raise MissingIdentity("right identity law fails", arrow=g)
            if compose[(identity[tgt[g]], g)] != g:
                raise MissingIdentity("left identity law fails", arrow=g)
        for g in range(m):
            gi = self._inverse[g]
            if src[gi] != tgt[g] or tgt[gi] != src[g]:
                raise InverseFailure("inverse endpoints are swapped incorrectly",
                                     arrow=g)
            if compose[(g, gi)] != identity[tgt[g]] or \
               compose[(gi, g)] != identity[src[g]]:
                raise InverseFailure("g * inverse(g) is not an identity", arrow=g)
        # gather[h](row[g]) is one C-level gather of pos[g(hk)] over k; an
        # itemgetter of a single index returns the bare item, so one-entry
        # rows are compared bare (row[gh] and row[h] have the same length)
        row = [tuple(r) for r in row]
        shaped = [r if len(r) > 1 else r[0] for r in row]
        out = [[] for _ in range(n)]  # arrows by source
        for g in range(m):
            out[src[g]].append(g)
        # Light's test: the middle arrows h that pass are closed under
        # composition and include the identities (identity laws hold by
        # now), so checking h in a generating set is exact
        if all(shaped[compose[(g, h)]] == get(row[g])
               for h in self._generators()
               for get in (itemgetter(*row[h]),)
               for g in out[tgt[h]]):
            return
        gather = [itemgetter(*r) for r in row]
        for (g, h), gh in compose.items():
            if shaped[gh] != gather[h](row[g]):
                k = next(k for k, x, y in zip(into[src[h]], row[gh],
                                              map(row[g].__getitem__, row[h]))
                         if x != y)
                raise AssociativityFailure("(gh)k != g(hk)", g=g, h=h, k=k)

    def _generators(self):
        """A list S of arrows that, with the identities, generates every arrow.

        Greedy in arrow order: an arrow not yet reached from the identities
        becomes a generator, and the reached set is closed under right
        multiplication by the generators. Each (reached arrow, generator)
        pair is composed once: when the later of the two arrives. Needs a
        complete composition table and the left identity law.
        """
        src, tgt, compose = self._src, self._tgt, self._compose
        reached = bytearray(self.n_arrows)
        reached_from = [[] for _ in range(self.n_objects)]  # by source
        gens_into = [[] for _ in range(self.n_objects)]  # by target
        for a, i in enumerate(self._identity):
            reached[i] = 1
            reached_from[a].append(i)
        gens = []
        for s in range(self.n_arrows):
            if reached[s]:
                continue
            gens.append(s)
            gens_into[tgt[s]].append(s)
            todo = [compose[(r, s)] for r in reached_from[tgt[s]]]
            while todo:
                r = todo.pop()
                if not reached[r]:
                    reached[r] = 1
                    reached_from[src[r]].append(r)
                    todo.extend(compose[(r, t)] for t in gens_into[src[r]])
        return gens

    def _entry_error(self, pair, gh):
        """The error for one bad compose entry, or None if it is sound."""
        (g, h), m = pair, self.n_arrows
        if not (0 <= g < m and 0 <= h < m and 0 <= gh < m):
            return CompositionDomainMismatch("composition entry out of range",
                                             g=g, h=h)
        if self._src[g] != self._tgt[h]:
            return CompositionDomainMismatch("pair is not composable", g=g, h=h)
        if self._src[gh] != self._src[h] or self._tgt[gh] != self._tgt[g]:
            return CompositionDomainMismatch(
                "endpoints of gh disagree with g, h", g=g, h=h, gh=gh)
        return None

    def validated(self):
        """Re-run the full axiom check; returns self."""
        self._check()
        return self

    # -- serialization -----------------------------------------------------

    def to_json(self):
        return {
            "objects": list(self.object_labels),
            "arrows": [{"id": self.arrow_labels[g],
                        "src": self.object_labels[self._src[g]],
                        "tgt": self.object_labels[self._tgt[g]]}
                       for g in range(self.n_arrows)],
            "identity": {str(self.object_labels[a]): self.arrow_labels[self._identity[a]]
                         for a in range(self.n_objects)},
            "inverse": {str(self.arrow_labels[g]): self.arrow_labels[self._inverse[g]]
                        for g in range(self.n_arrows)},
            "compose": sorted(
                ([self.arrow_labels[g], self.arrow_labels[h],
                  self.arrow_labels[gh]]
                 for (g, h), gh in self._compose.items()),
                key=lambda t: (str(t[0]), str(t[1]))),
        }

    def __repr__(self):
        return "FiniteGroupoid(%d objects, %d arrows)" % (
            self.n_objects, self.n_arrows)


def _dict_get(d, label):
    # JSON object keys arrive as strings; programmatic dicts may keep raw labels
    try:
        if label in d:
            return d[label]
    except TypeError:  # unhashable, e.g. a JSON array: no such label
        return _MISSING
    return d.get(str(label), _MISSING)


def _label(label, key):
    try:
        hash(label)
    except TypeError:
        raise MalformedInput("labels must be strings or numbers",
                             key=key, label=label) from None
    return label


_MISSING = object()
_JSON_TYPES = {"array": (list, tuple), "object": dict}
_SHAPES = (("objects", "array"), ("arrows", "array"), ("identity", "object"),
           ("inverse", "object"), ("compose", "array"))


def _check_shapes(data, shapes):
    """Raise MalformedInput naming the first key missing or of a wrong type."""
    for key, kind in shapes:
        if key not in data:
            raise MalformedInput("missing key", key=key)
        if not isinstance(data[key], _JSON_TYPES[kind]):
            raise MalformedInput("wrong JSON type", key=key, expected=kind)


def _compose_batch(entries, arr_index):
    """The compose dict if every entry is [g, h, gh] of raw arrow labels and
    no (g, h) repeats; None otherwise, for the per-entry path to report."""
    if not (set(map(type, entries)) <= {list, tuple}
            and set(map(len, entries)) == {3}):
        return None
    try:
        ids = iter(list(map(arr_index.__getitem__, chain.from_iterable(entries))))
    except (KeyError, TypeError):  # TypeError: an unhashable label
        return None
    compose = {(g, h): gh for g, h, gh in zip(ids, ids, ids)}
    return compose if len(compose) == len(entries) else None


def validate(data) -> FiniteGroupoid:
    """Check raw groupoid data (the JSON shape) and build a FiniteGroupoid."""
    if not isinstance(data, dict):
        raise MalformedInput("groupoid data must be a mapping")
    _check_shapes(data, _SHAPES)
    object_labels = [_label(lab, "objects") for lab in data["objects"]]
    obj_index = {lab: i for i, lab in enumerate(object_labels)}
    if len(obj_index) != len(object_labels):
        raise MalformedInput("duplicate object labels")
    arrow_labels, src, tgt = [], [], []
    for rec in data["arrows"]:
        if not isinstance(rec, dict) or not {"id", "src", "tgt"} <= set(rec):
            raise MalformedInput("arrow records need id/src/tgt", record=rec)
        arrow_labels.append(_label(rec["id"], "arrows"))
        for end, ends in (("src", src), ("tgt", tgt)):
            try:
                ends.append(obj_index[rec[end]])
            except (KeyError, TypeError):  # TypeError: an unhashable label
                raise DanglingArrowEndpoint("unknown %s object" % end,
                                            arrow=rec["id"],
                                            object=rec[end]) from None
    arr_index = {lab: i for i, lab in enumerate(arrow_labels)}
    if len(arr_index) != len(arrow_labels):
        raise MalformedInput("duplicate arrow labels")

    def arrow_of(lab, why):
        g = _dict_get(arr_index, lab)
        if g is _MISSING:
            raise MalformedInput("unknown arrow label", label=lab, where=why)
        return g

    identity = []
    for lab in object_labels:
        ident = _dict_get(data["identity"], lab)
        if ident is _MISSING:
            raise MissingIdentity("no identity assigned", object=lab)
        identity.append(arrow_of(ident, "identity"))
    inverse = [None] * len(arrow_labels)
    for lab in arrow_labels:
        inv = _dict_get(data["inverse"], lab)
        if inv is _MISSING:
            raise InverseFailure("no inverse assigned", arrow=lab)
        inverse[arr_index[lab]] = arrow_of(inv, "inverse")
    compose = _compose_batch(data["compose"], arr_index)
    if compose is None:  # a miss: resolve entry by entry, raising the first
        compose = {}
        for entry in data["compose"]:
            if not isinstance(entry, _JSON_TYPES["array"]) or len(entry) != 3:
                raise MalformedInput("compose entries are [g, h, gh]",
                                     entry=entry)
            g, h, gh = (arrow_of(x, "compose") for x in entry)
            if (g, h) in compose and compose[(g, h)] != gh:
                raise CompositionDomainMismatch("conflicting compose entries",
                                                g=entry[0], h=entry[1])
            compose[(g, h)] = gh
    return FiniteGroupoid(src, tgt, identity, inverse, compose,
                          object_labels=object_labels,
                          arrow_labels=arrow_labels, check=True)


# -- components ------------------------------------------------------------

@dataclass(frozen=True)
class Component:
    objects: tuple
    groupoid: FiniteGroupoid
    object_to_parent: tuple
    arrow_to_parent: tuple


def connected_components(g: FiniteGroupoid):
    """One full subgroupoid per connected class of objects."""
    out = []
    for objs in g.components():
        sub, obj_parent, arr_parent = g.full_subgroupoid(objs)
        out.append(Component(objs, sub, obj_parent, arr_parent))
    return out


# -- isotropy --------------------------------------------------------------

class IsotropyGroup:
    """The group of loops at a base object, multiplication inherited."""

    def __init__(self, groupoid, base, arrows):
        self.groupoid = groupoid
        self.base = base
        self.arrows = tuple(sorted(arrows))

    @property
    def order(self):
        return len(self.arrows)

    @property
    def identity_arrow(self):
        return self.groupoid.identity(self.base)

    def as_group(self):
        """Abstract Cayley table plus the arrow listed at each element index."""
        ident = self.identity_arrow
        order = [ident] + [g for g in self.arrows if g != ident]
        pos = {g: i for i, g in enumerate(order)}
        table = [[pos[self.groupoid.compose(a, b)] for b in order] for a in order]
        names = [str(self.groupoid.arrow_labels[g]) for g in order]
        return Group(table, names=names, name="isotropy@%s" %
                     self.groupoid.object_labels[self.base], check=False), tuple(order)

    def __len__(self):
        return len(self.arrows)

    def __repr__(self):
        return "IsotropyGroup(base=%r, order=%d)" % (
            self.groupoid.object_labels[self.base], self.order)


# -- subgroupoids ----------------------------------------------------------

class Subgroupoid:
    """A sub-collection of objects and arrows, closed under the structure maps."""

    def __init__(self, parent: FiniteGroupoid, objects, arrows, check=True):
        self.parent = parent
        self.objects = tuple(sorted(set(objects)))
        self.arrows = tuple(sorted(set(arrows)))
        self._object_set = frozenset(self.objects)
        self._arrow_set = frozenset(self.arrows)
        if check:
            self._check()

    def _check(self):
        p = self.parent
        for a in self.objects:
            if not 0 <= a < p.n_objects:
                raise UnknownObject("no such object", object=a)
            if p.identity(a) not in self._arrow_set:
                raise NotASubgroupoid("identity of member object missing",
                                      object=a)
        for g in self.arrows:
            if not 0 <= g < p.n_arrows:
                raise NotASubgroupoid("no such arrow", arrow=g)
            if p.src(g) not in self._object_set or p.tgt(g) not in self._object_set:
                raise NotASubgroupoid("arrow endpoint outside object subset",
                                      arrow=g)
            if p.inverse(g) not in self._arrow_set:
                raise NotASubgroupoid("not closed under inverse", arrow=g)
        into = {}  # member arrows by target, ascending like self.arrows
        for h in self.arrows:
            into.setdefault(p.tgt(h), []).append(h)
        for g in self.arrows:
            for h in into.get(p.src(g), ()):
                if p.compose(g, h) not in self._arrow_set:
                    raise NotASubgroupoid("not closed under composition",
                                          g=g, h=h)

    def hom(self, a, b):
        p = self.parent
        return tuple(g for g in p.hom(a, b) if g in self._arrow_set)

    def to_json(self):
        p = self.parent
        return {"objects": [p.object_labels[a] for a in self.objects],
                "arrows": [p.arrow_labels[g] for g in self.arrows]}

    def __eq__(self, other):
        return (isinstance(other, Subgroupoid)
                and self.parent is other.parent
                and self.objects == other.objects
                and self.arrows == other.arrows)

    def __hash__(self):
        return hash((id(self.parent), self.objects, self.arrows))

    def __repr__(self):
        return "Subgroupoid(%d objects, %d arrows)" % (
            len(self.objects), len(self.arrows))


class OneObjectSubgroupoid(Subgroupoid):
    """A subgroup of an isotropy group, seen as a subgroupoid."""

    def __init__(self, parent, base, arrows, check=True):
        super().__init__(parent, (base,), arrows, check=check)
        self.base = base

    def _check(self):
        super()._check()
        if len(self.objects) != 1:
            raise MultiObjectSubgroupoid("expected a single object",
                                         objects=self.objects)

    @property
    def order(self):
        return len(self.arrows)

    def conjugate_by(self, d):
        """d H d^{-1}: send each loop h at base to dhd^{-1}; needs src(d)=base."""
        p = self.parent
        if p.src(d) != self.base:
            raise CompositionDomainMismatch("src(d) must be the base object",
                                            d=d, base=self.base)
        di = p.inverse(d)
        moved = [p.compose(p.compose(d, h), di) for h in self.arrows]
        return OneObjectSubgroupoid(p, p.tgt(d), moved, check=False)

    def __repr__(self):
        return "OneObjectSubgroupoid(base=%r, order=%d)" % (
            self.parent.object_labels[self.base], self.order)


def one_object_subgroupoid(parent, base, arrows) -> OneObjectSubgroupoid:
    return OneObjectSubgroupoid(parent, base, arrows, check=True)


def subgroupoid_from_json(parent: FiniteGroupoid, data) -> Subgroupoid:
    if not isinstance(data, dict) or "objects" not in data or "arrows" not in data:
        raise MalformedInput("subgroupoid data needs objects and arrows")
    _check_shapes(data, (("objects", "array"), ("arrows", "array")))
    objs = [parent.object_index(_label(lab, "objects"))
            for lab in data["objects"]]
    arrs = [parent.arrow_index(_label(lab, "arrows")) for lab in data["arrows"]]
    if len(objs) == 1:
        return OneObjectSubgroupoid(parent, objs[0], arrs, check=True)
    return Subgroupoid(parent, objs, arrs, check=True)


# -- morphisms -------------------------------------------------------------

class GroupoidMorphism:
    """phi = (phi0, phi1): source -> target, commuting with all structure."""

    def __init__(self, source, target, phi0, phi1, check=True):
        self.source = source
        self.target = target
        self.phi0 = tuple(phi0)
        self.phi1 = tuple(phi1)
        if check:
            self._check()

    def _check(self):
        s, t = self.source, self.target
        if len(self.phi0) != s.n_objects or len(self.phi1) != s.n_arrows:
            raise MalformedInput("morphism table size mismatch")
        for a in s.objects():
            if not 0 <= self.phi0[a] < t.n_objects:
                raise MalformedInput("phi0 out of range", object=a)
        for g in s.arrows():
            fg = self.phi1[g]
            if not 0 <= fg < t.n_arrows:
                raise MalformedInput("phi1 out of range", arrow=g)
            if t.src(fg) != self.phi0[s.src(g)] or t.tgt(fg) != self.phi0[s.tgt(g)]:
                raise EndpointMismatch("phi1 breaks src/tgt", arrow=g)
        for a in s.objects():
            if self.phi1[s.identity(a)] != t.identity(self.phi0[a]):
                raise IdentityNotPreserved("identity arrow not preserved",
                                           object=a)
        for g in s.arrows():
            for h in s.arrows_into(s.src(g)):
                if self.phi1[s.compose(g, h)] != \
                   t.compose(self.phi1[g], self.phi1[h]):
                    raise CompositionNotPreserved("phi1(gh) != phi1(g)phi1(h)",
                                                  g=g, h=h)

    def then(self, other: "GroupoidMorphism") -> "GroupoidMorphism":
        """other o self (self first); target of self must be source of other."""
        if self.target is not other.source:
            raise GroupoidMismatch("morphisms are not composable")
        return GroupoidMorphism(
            self.source, other.target,
            [other.phi0[x] for x in self.phi0],
            [other.phi1[x] for x in self.phi1], check=False)

    def __repr__(self):
        return "GroupoidMorphism(%r -> %r)" % (self.source, self.target)


def validate_morphism(source, target, phi0, phi1) -> GroupoidMorphism:
    """Check functor laws for raw object/arrow mappings (index lists or dicts)."""
    if isinstance(phi0, dict):
        phi0 = [phi0[a] for a in source.objects()]
    if isinstance(phi1, dict):
        phi1 = [phi1[g] for g in source.arrows()]
    return GroupoidMorphism(source, target, phi0, phi1, check=True)


def identity_morphism(g: FiniteGroupoid) -> GroupoidMorphism:
    return GroupoidMorphism(g, g, range(g.n_objects), range(g.n_arrows),
                            check=False)


def component_inclusion(g: FiniteGroupoid, which: int) -> GroupoidMorphism:
    comp = connected_components(g)[which]
    return GroupoidMorphism(comp.groupoid, g, comp.object_to_parent,
                            comp.arrow_to_parent, check=False)


# -- constructors ----------------------------------------------------------

def from_group(group: Group) -> FiniteGroupoid:
    """The one-object groupoid with the group as its arrows."""
    n = group.n
    compose = {(i, j): group.mul(i, j) for i in range(n) for j in range(n)}
    return FiniteGroupoid(
        src=[0] * n, tgt=[0] * n, identity=[0],
        inverse=[group.inv(i) for i in range(n)], compose=compose,
        object_labels=["*"], arrow_labels=list(group.names), check=False)


def pair_groupoid(x) -> FiniteGroupoid:
    """All ordered pairs over a set: (a,b) is the unique arrow b -> a."""
    labels = list(range(x)) if isinstance(x, int) else list(x)
    n = len(labels)
    # arrow (a, b) has index a*n + b, src b, tgt a
    src = [b for a in range(n) for b in range(n)]
    tgt = [a for a in range(n) for b in range(n)]
    identity = [a * n + a for a in range(n)]
    inverse = [(i % n) * n + i // n for i in range(n * n)]
    compose = {}
    for a in range(n):
        for b in range(n):
            for c in range(n):
                # (a,b)(b,c) = (a,c)
                compose[(a * n + b, b * n + c)] = a * n + c
    arrow_labels = ["(%s,%s)" % (labels[a], labels[b])
                    for a in range(n) for b in range(n)]
    return FiniteGroupoid(src, tgt, identity, inverse, compose,
                          object_labels=labels, arrow_labels=arrow_labels,
                          check=False)


def equivalence_relation(x, pairs) -> FiniteGroupoid:
    """The groupoid of an equivalence relation given as a pair list."""
    labels = list(range(x)) if isinstance(x, int) else list(x)
    n = len(labels)
    index = {lab: i for i, lab in enumerate(labels)}
    rel = set()
    for (a, b) in pairs:
        if a not in index or b not in index:
            raise InvalidRelation("pair mentions an unknown element", pair=(a, b))
        rel.add((index[a], index[b]))
    for a in range(n):
        if (a, a) not in rel:
            raise InvalidRelation("not reflexive", element=labels[a])
    for (a, b) in rel:
        if (b, a) not in rel:
            raise InvalidRelation("not symmetric", pair=(labels[a], labels[b]))
    for (a, b) in rel:
        for (c, d) in rel:
            if b == c and (a, d) not in rel:
                raise InvalidRelation("not transitive",
                                      pair=(labels[a], labels[d]))
    # arrow (a, b) means b -> a, one for each related pair
    arrows = sorted(rel)
    arr_index = {p: i for i, p in enumerate(arrows)}
    compose = {}
    for (a, b) in arrows:
        for (c, d) in arrows:
            if b == c:
                compose[(arr_index[(a, b)], arr_index[(c, d)])] = arr_index[(a, d)]
    return FiniteGroupoid(
        src=[b for (a, b) in arrows],
        tgt=[a for (a, b) in arrows],
        identity=[arr_index[(a, a)] for a in range(n)],
        inverse=[arr_index[(b, a)] for (a, b) in arrows],
        compose=compose,
        object_labels=labels,
        arrow_labels=["(%s,%s)" % (labels[a], labels[b]) for (a, b) in arrows],
        check=False)


def fibered_pair(nu) -> FiniteGroupoid:
    """Kernel-pair groupoid of a map: x ~ x' iff nu(x) = nu(x')."""
    if isinstance(nu, dict):
        items = sorted(nu.items(), key=lambda kv: str(kv[0]))
        labels = [k for k, _ in items]
        values = [v for _, v in items]
    else:
        values = list(nu)
        labels = list(range(len(values)))
    pairs = [(labels[i], labels[j])
             for i in range(len(labels)) for j in range(len(labels))
             if values[i] == values[j]]
    return equivalence_relation(labels, pairs)


def action_groupoid(group: Group, n_points: int, action) -> FiniteGroupoid:
    """Right action of a group on points; arrows are the pairs (x, g): xg -> x.

    `action[x][g]` is x acted on by group element g. The action axioms are
    checked up front and reported, not assumed.
    """
    act = [list(row) for row in action]
    if len(act) != n_points or any(len(row) != group.n for row in act):
        raise InvalidGroupAction("action table must be points x elements")
    for x in range(n_points):
        for u in range(group.n):
            if not 0 <= act[x][u] < n_points:
                raise InvalidGroupAction("action lands outside the point set",
                                         point=x, element=u)
    for x in range(n_points):
        if act[x][0] != x:
            raise InvalidGroupAction("identity must act trivially", point=x)
    for x in range(n_points):
        for u in range(group.n):
            for v in range(group.n):
                if act[act[x][u]][v] != act[x][group.mul(u, v)]:
                    raise InvalidGroupAction("(xu)v != x(uv)", point=x,
                                             elements=(u, v))
    m = group.n
    # arrow (x, u) has index x*m + u, tgt x, src x.u
    src = [act[x][u] for x in range(n_points) for u in range(m)]
    tgt = [x for x in range(n_points) for u in range(m)]
    identity = [x * m for x in range(n_points)]
    inverse = [act[i // m][i % m] * m + group.inv(i % m)
               for i in range(n_points * m)]
    compose = {}
    for x in range(n_points):
        for u in range(m):
            xu = act[x][u]
            for v in range(m):
                # (x,u)(xu,v) = (x, uv)
                compose[(x * m + u, xu * m + v)] = x * m + group.mul(u, v)
    arrow_labels = ["(%s,%s)" % (x, group.names[u])
                    for x in range(n_points) for u in range(m)]
    return FiniteGroupoid(src, tgt, identity, inverse, compose,
                          object_labels=list(range(n_points)),
                          arrow_labels=arrow_labels, check=False)


def induced_groupoid(g: FiniteGroupoid, sigma) -> FiniteGroupoid:
    """Pull a groupoid back along a map into its objects.

    Points x with sigma(x) in g's objects; an arrow (x, p, y): y -> x for
    each p with tgt(p)=sigma(x) and src(p)=sigma(y).
    """
    if isinstance(sigma, dict):
        items = sorted(sigma.items(), key=lambda kv: str(kv[0]))
        labels = [k for k, _ in items]
        sig = [v for _, v in items]
    else:
        sig = list(sigma)
        labels = list(range(len(sig)))
    for x, a in enumerate(sig):
        if not 0 <= a < g.n_objects:
            raise StructureMapOutOfRange("sigma value is not an object",
                                         point=labels[x], value=a)
    n = len(sig)
    arrows = []
    for x in range(n):
        for p in g.arrows():
            if g.tgt(p) == sig[x]:
                for y in range(n):
                    if sig[y] == g.src(p):
                        arrows.append((x, p, y))
    arr_index = {t: i for i, t in enumerate(arrows)}
    compose = {}
    for (x, p, y) in arrows:
        for q in g.arrows():
            if g.src(p) == g.tgt(q):
                pq = g.compose(p, q)
                for z in range(n):
                    if sig[z] == g.src(q):
                        compose[(arr_index[(x, p, y)], arr_index[(y, q, z)])] = \
                            arr_index[(x, pq, z)]
    return FiniteGroupoid(
        src=[y for (x, p, y) in arrows],
        tgt=[x for (x, p, y) in arrows],
        identity=[arr_index[(x, g.identity(sig[x]), x)] for x in range(n)],
        inverse=[arr_index[(y, g.inverse(p), x)] for (x, p, y) in arrows],
        compose=compose,
        object_labels=labels,
        arrow_labels=["(%s,%s,%s)" % (labels[x], g.arrow_labels[p], labels[y])
                      for (x, p, y) in arrows],
        check=False)


def trg(group: Group, size: int) -> FiniteGroupoid:
    """The transitive groupoid with the given isotropy group on `size` objects."""
    return induced_groupoid(from_group(group), [0] * size)


def product(g: FiniteGroupoid, h: FiniteGroupoid) -> FiniteGroupoid:
    no, mo = g.n_objects, h.n_objects
    na, ma = g.n_arrows, h.n_arrows
    src = [g.src(i) * mo + h.src(j) for i in range(na) for j in range(ma)]
    tgt = [g.tgt(i) * mo + h.tgt(j) for i in range(na) for j in range(ma)]
    identity = [g.identity(a) * ma + h.identity(b)
                for a in range(no) for b in range(mo)]
    inverse = [g.inverse(i) * ma + h.inverse(j)
               for i in range(na) for j in range(ma)]
    compose = {}
    for (i1, i2), i3 in g._compose.items():
        for (j1, j2), j3 in h._compose.items():
            compose[(i1 * ma + j1, i2 * ma + j2)] = i3 * ma + j3
    return FiniteGroupoid(
        src, tgt, identity, inverse, compose,
        object_labels=["(%s,%s)" % (g.object_labels[a], h.object_labels[b])
                       for a in range(no) for b in range(mo)],
        arrow_labels=["(%s,%s)" % (g.arrow_labels[i], h.arrow_labels[j])
                      for i in range(na) for j in range(ma)],
        check=False)


def coproduct(parts) -> FiniteGroupoid:
    """Disjoint union; labels are tagged with the part index."""
    parts = list(parts)
    src, tgt, identity, inverse = [], [], [], []
    compose = {}
    object_labels, arrow_labels = [], []
    obj_off = arr_off = 0
    for i, p in enumerate(parts):
        src.extend(a + obj_off for a in p._src)
        tgt.extend(a + obj_off for a in p._tgt)
        identity.extend(x + arr_off for x in p._identity)
        inverse.extend(x + arr_off for x in p._inverse)
        for (x, y), z in p._compose.items():
            compose[(x + arr_off, y + arr_off)] = z + arr_off
        object_labels.extend("%d.%s" % (i, lab) for lab in p.object_labels)
        arrow_labels.extend("%d.%s" % (i, lab) for lab in p.arrow_labels)
        obj_off += p.n_objects
        arr_off += p.n_arrows
    return FiniteGroupoid(src, tgt, identity, inverse, compose,
                          object_labels=object_labels,
                          arrow_labels=arrow_labels, check=False)


def opposite(g: FiniteGroupoid) -> FiniteGroupoid:
    """Swap source and target; composition flips accordingly."""
    return FiniteGroupoid(
        src=g._tgt, tgt=g._src, identity=g._identity, inverse=g._inverse,
        compose={(h, k): v for (k, h), v in g._compose.items()},
        object_labels=g.object_labels, arrow_labels=g.arrow_labels,
        check=False)
