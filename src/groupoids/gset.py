"""Right actions of a finite groupoid on a finite set.

A right G-set is a carrier with a structure map sigma into the objects and a
partial action x·g defined exactly when sigma(x) = tgt(g), satisfying
  (1) sigma(x·g) = src(g)
  (2) x·id = x
  (3) (x·g)·h = x·(gh) whenever src(g) = tgt(h).
Action tables are stored sparsely: only the pairs in the required domain.

Alongside the type this module provides orbits, stabilizers, coset G-sets,
fixed points, the two monoidal operations, canonical decomposition into
cosets, isomorphism testing with explicit witnesses, and the induction
functor along a groupoid morphism (with its induced transformations).
Left actions are handled by taking right actions over core.opposite(g).
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    _JSON_TYPES,
    _MISSING,
    FiniteGroupoid,
    GroupoidMorphism,
    OneObjectSubgroupoid,
    Subgroupoid,
    _check_shapes,
    _dict_get,
    _label,
)
from .errors import (
    ActionDomainGap,
    AssociativityActionViolation,
    DecompositionMismatch,
    GroupoidMismatch,
    IdentityActionViolation,
    MalformedInput,
    MultiObjectSubgroupoid,
    NotASubgroupoid,
    NotNatural,
    StructureMapViolation,
    UnknownElement,
)
from .subconj import (DEFAULT_ISOTROPY_CAP, conjugacy_class_index,
                      conjugated_isotropy_subgroups, enumerate_reps)


class RightGSet:
    """Carrier indices 0..n-1 with structure map and sparse action table."""

    def __init__(self, groupoid: FiniteGroupoid, sigma, action,
                 element_labels=None, check=True):
        self.groupoid = groupoid
        self.sigma = tuple(sigma)
        self.action = dict(action)
        self.element_labels = tuple(element_labels) if element_labels is not None \
            else tuple(range(len(self.sigma)))
        if len(self.element_labels) != self.size:
            raise MalformedInput("element label count mismatch")
        self._element_index = {lab: i for i, lab in enumerate(self.element_labels)}
        if len(self._element_index) != self.size:
            raise MalformedInput("duplicate element labels")
        self._orbits = None
        if check:
            self._check()

    @property
    def size(self):
        return len(self.sigma)

    def elements(self):
        return range(self.size)

    def element_index(self, label):
        try:
            return self._element_index[label]
        except KeyError:
            raise UnknownElement("no such element label", label=label) from None

    def act(self, x, g):
        try:
            return self.action[(x, g)]
        except KeyError:
            raise ActionDomainGap("x·g undefined: sigma(x) != tgt(g)",
                                  element=x, arrow=g) from None

    def _check(self):
        g = self.groupoid
        for x, a in enumerate(self.sigma):
            if not 0 <= a < g.n_objects:
                raise StructureMapViolation("sigma out of range", element=x)
        for (x, p), y in sorted(self.action.items()):
            if not (0 <= x < self.size and 0 <= p < g.n_arrows
                    and 0 <= y < self.size):
                raise MalformedInput("action entry out of range",
                                     element=x, arrow=p)
            if self.sigma[x] != g.tgt(p):
                raise StructureMapViolation(
                    "action defined where sigma(x) != tgt(g)", element=x, arrow=p)
        for x in range(self.size):
            for p in g.arrows_into(self.sigma[x]):
                if (x, p) not in self.action:
                    raise ActionDomainGap("missing required action entry",
                                          element=x, arrow=p)
        for (x, p), y in sorted(self.action.items()):
            if self.sigma[y] != g.src(p):
                raise StructureMapViolation("sigma(x·g) != src(g)",
                                            element=x, arrow=p)
        for x in range(self.size):
            if self.action[(x, g.identity(self.sigma[x]))] != x:
                raise IdentityActionViolation("x·id != x", element=x)
        for (x, p), y in sorted(self.action.items()):
            for q in g.arrows_into(g.src(p)):
                if self.action[(y, q)] != self.action[(x, g.compose(p, q))]:
                    raise AssociativityActionViolation(
                        "(x·g)·h != x·(gh)", element=x, arrows=(p, q))

    def validated(self):
        self._check()
        return self

    def orbits(self):
        """Partition of the carrier into reachability classes."""
        if self._orbits is None:
            parent = list(range(self.size))

            def find(i):
                while parent[i] != i:
                    parent[i] = parent[parent[i]]
                    i = parent[i]
                return i

            for (x, _), y in self.action.items():
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[max(rx, ry)] = min(rx, ry)
            classes = {}
            for x in range(self.size):
                classes.setdefault(find(x), []).append(x)
            self._orbits = tuple(tuple(sorted(v))
                                 for _, v in sorted(classes.items()))
        return self._orbits

    def stabilizer(self, e) -> OneObjectSubgroupoid:
        if not 0 <= e < self.size:
            raise UnknownElement("no such element", element=e)
        a = self.sigma[e]
        arrows = [p for p in self.groupoid.arrows_into(a)
                  if self.action[(e, p)] == e]
        return OneObjectSubgroupoid(self.groupoid, a, arrows, check=False)

    def to_json(self):
        g = self.groupoid
        return {
            "elements": list(self.element_labels),
            "sigma": {str(self.element_labels[x]): g.object_labels[self.sigma[x]]
                      for x in range(self.size)},
            "action": sorted(
                ([self.element_labels[x], g.arrow_labels[p],
                  self.element_labels[y]]
                 for (x, p), y in self.action.items()),
                key=lambda t: (str(t[0]), str(t[1]))),
        }

    def __repr__(self):
        return "RightGSet(%d elements over %r)" % (self.size, self.groupoid)


def validate_gset(data, g: FiniteGroupoid) -> RightGSet:
    """Check raw G-set data (JSON shape) against a groupoid."""
    if not isinstance(data, dict):
        raise MalformedInput("gset data must be a mapping")
    _check_shapes(data, (("elements", "array"), ("sigma", "object"),
                         ("action", "array")))
    labels = [_label(lab, "elements") for lab in data["elements"]]
    elem_index = {lab: i for i, lab in enumerate(labels)}
    if len(elem_index) != len(labels):
        raise MalformedInput("duplicate element labels")
    sigma = []
    for lab in labels:
        target = _dict_get(data["sigma"], lab)
        if target is _MISSING or target is None:
            raise StructureMapViolation("no sigma value for element", element=lab)
        sigma.append(g.object_index(_label(target, "sigma")))
    action = {}
    for entry in data["action"]:
        if not isinstance(entry, _JSON_TYPES["array"]) or len(entry) != 3:
            raise MalformedInput("action entries are [x, g, xg]", key="action",
                                 entry=entry)
        x, p, y = (_label(v, "action") for v in entry)
        if x not in elem_index or y not in elem_index:
            raise UnknownElement("action entry names unknown element", entry=entry)
        key = (elem_index[x], g.arrow_index(p))
        if action.setdefault(key, elem_index[y]) != elem_index[y]:
            raise MalformedInput("conflicting action entries", key="action",
                                 element=x, arrow=p)
    return RightGSet(g, sigma, action, element_labels=labels, check=True)


# -- canonical G-sets ------------------------------------------------------

def unit_gset(g: FiniteGroupoid) -> RightGSet:
    """(G0, id): objects acted on by a·g = src(g)."""
    action = {(a, p): g.src(p)
              for a in g.objects() for p in g.arrows_into(a)}
    return RightGSet(g, range(g.n_objects), action,
                     element_labels=g.object_labels, check=False)


def empty_gset(g: FiniteGroupoid) -> RightGSet:
    return RightGSet(g, (), {}, element_labels=(), check=False)


def regular_gset(g: FiniteGroupoid) -> RightGSet:
    """(G1, src) with right multiplication."""
    action = {(e, p): g.compose(e, p)
              for e in g.arrows() for p in g.arrows_into(g.src(e))}
    return RightGSet(g, [g.src(e) for e in g.arrows()], action,
                     element_labels=g.arrow_labels, check=False)


def coset_gset(g: FiniteGroupoid, h: Subgroupoid) -> RightGSet:
    """Right cosets G/H as a right G-set.

    Carrier elements are the classes H[(a,p)] = {(tgt(k), kp) : k in H,
    src(k) = a} over pairs (a, p) with a in H's objects and tgt(p) = a;
    sigma is src(p) and the action appends on the right.
    """
    if h.parent is not g:
        raise NotASubgroupoid("subgroupoid belongs to a different groupoid")
    pair_class = {}
    classes = []
    for a in h.objects:
        for p in g.arrows_into(a):
            if (a, p) in pair_class:
                continue
            members = sorted((g.tgt(k), g.compose(k, p))
                             for k in h.arrows if g.src(k) == a)
            idx = len(classes)
            classes.append(tuple(members))
            for pair in members:
                pair_class[pair] = idx
    # reorder classes by their least member pair for determinism
    order = sorted(range(len(classes)), key=lambda i: classes[i][0])
    rank = {old: new for new, old in enumerate(order)}
    classes = [classes[i] for i in order]
    pair_class = {pair: rank[i] for pair, i in pair_class.items()}
    sigma = [g.src(cls[0][1]) for cls in classes]
    action = {}
    for i, cls in enumerate(classes):
        a, p = cls[0]
        for q in g.arrows_into(sigma[i]):
            action[(i, q)] = pair_class[(a, g.compose(p, q))]
    labels = ["[%s;%s]" % (g.object_labels[a], g.arrow_labels[p])
              for (a, p) in (cls[0] for cls in classes)]
    return RightGSet(g, sigma, action, element_labels=labels, check=False)


# -- fixed points ----------------------------------------------------------

def fixed_points(x: RightGSet, h: Subgroupoid):
    """Elements in the fiber over h's object fixed by every arrow of h."""
    if len(h.objects) != 1:
        raise MultiObjectSubgroupoid("fixed points need a one-object subgroupoid",
                                     objects=h.objects)
    if h.parent is not x.groupoid:
        raise GroupoidMismatch("subgroupoid of a different groupoid")
    a = h.objects[0]
    return [e for e in x.elements()
            if x.sigma[e] == a
            and all(x.action[(e, k)] == e for k in h.arrows)]


# -- monoidal structure ----------------------------------------------------

def disjoint_union(x: RightGSet, y: RightGSet) -> RightGSet:
    if x.groupoid is not y.groupoid:
        raise GroupoidMismatch("G-sets over different groupoids")
    n = x.size
    action = dict(x.action)
    for (e, p), f in y.action.items():
        action[(e + n, p)] = f + n
    labels = ["0.%s" % lab for lab in x.element_labels] + \
             ["1.%s" % lab for lab in y.element_labels]
    return RightGSet(x.groupoid, x.sigma + y.sigma, action,
                     element_labels=labels, check=False)


def fibered_pairs(x: RightGSet, y: RightGSet):
    """Carrier of the fibered product, in its canonical order."""
    return [(i, j) for i in x.elements() for j in y.elements()
            if x.sigma[i] == y.sigma[j]]


def fibered_product(x: RightGSet, y: RightGSet) -> RightGSet:
    """Pairs with matching structure maps, acted on componentwise."""
    if x.groupoid is not y.groupoid:
        raise GroupoidMismatch("G-sets over different groupoids")
    g = x.groupoid
    pairs = fibered_pairs(x, y)
    index = {pair: k for k, pair in enumerate(pairs)}
    sigma = [x.sigma[i] for (i, j) in pairs]
    action = {}
    for k, (i, j) in enumerate(pairs):
        for p in g.arrows_into(sigma[k]):
            action[(k, p)] = index[(x.action[(i, p)], y.action[(j, p)])]
    labels = ["(%s,%s)" % (x.element_labels[i], y.element_labels[j])
              for (i, j) in pairs]
    return RightGSet(g, sigma, action, element_labels=labels, check=False)


# -- equivariant maps ------------------------------------------------------

class EquivariantMap:
    """A map of right G-sets: preserves sigma and commutes with the action."""

    def __init__(self, dom: RightGSet, cod: RightGSet, mapping, check=True):
        if dom.groupoid is not cod.groupoid:
            raise GroupoidMismatch("G-sets over different groupoids")
        self.dom = dom
        self.cod = cod
        self.mapping = tuple(mapping)
        if check:
            self._check()

    def _check(self):
        if len(self.mapping) != self.dom.size:
            raise MalformedInput("mapping size mismatch")
        for x, fx in enumerate(self.mapping):
            if not 0 <= fx < self.cod.size:
                raise MalformedInput("mapping out of range", element=x)
            if self.cod.sigma[fx] != self.dom.sigma[x]:
                raise StructureMapViolation("map breaks sigma", element=x)
        for (x, p), y in self.dom.action.items():
            if self.cod.action[(self.mapping[x], p)] != self.mapping[y]:
                raise StructureMapViolation("map is not equivariant",
                                            element=x, arrow=p)

    def __call__(self, x):
        return self.mapping[x]

    def is_bijection(self):
        return len(set(self.mapping)) == self.dom.size == self.cod.size

    def inverse(self) -> "EquivariantMap":
        if not self.is_bijection():
            raise MalformedInput("map is not a bijection")
        inv = [0] * self.cod.size
        for x, fx in enumerate(self.mapping):
            inv[fx] = x
        return EquivariantMap(self.cod, self.dom, inv, check=False)

    def then(self, other: "EquivariantMap") -> "EquivariantMap":
        if self.cod is not other.dom:
            raise GroupoidMismatch("maps are not composable")
        return EquivariantMap(self.dom, other.cod,
                              [other.mapping[v] for v in self.mapping],
                              check=False)

    def to_json(self):
        return {str(self.dom.element_labels[x]):
                self.cod.element_labels[self.mapping[x]]
                for x in self.dom.elements()}

    def __repr__(self):
        return "EquivariantMap(%d -> %d elements)" % (self.dom.size,
                                                      self.cod.size)


def identity_map(x: RightGSet) -> EquivariantMap:
    return EquivariantMap(x, x, range(x.size), check=False)


# -- decomposition and isomorphism ----------------------------------------

@dataclass(frozen=True)
class GSetDecomposition:
    """Multiplicity of each coset class in the canonical decomposition."""
    orbit_representatives: tuple
    coefficients: tuple


def decompose(x: RightGSet, reps) -> GSetDecomposition:
    """Match each orbit's stabilizer against the representative classes.

    `reps` is the ordered rep(S_G) list from subconj.enumerate_reps; the
    coefficient vector counts orbits per conjugacy class. Each orbit is
    checked against orbit-stabilizer: |orbit| * |Stab| must equal the number
    of arrows into the orbit representative's object, otherwise
    DecompositionMismatch is raised.
    """
    coeffs = [0] * len(reps)
    orbit_reps = []
    for orbit in x.orbits():
        e = orbit[0]
        orbit_reps.append(e)
        stab = x.stabilizer(e)
        k = conjugacy_class_index(stab, reps)
        coeffs[k] += 1
        # orbit size must match the coset space it will be identified with
        if len(orbit) * stab.order != len(x.groupoid.arrows_into(x.sigma[e])):
            raise DecompositionMismatch(
                "orbit size times stabilizer order is not the number of "
                "arrows into the object", element=e)
    return GSetDecomposition(tuple(orbit_reps), tuple(coeffs))


def isomorphic(x: RightGSet, y: RightGSet, cap=DEFAULT_ISOTROPY_CAP):
    """Burnside test: equal coset multiplicities, with an explicit witness.

    Returns (True, EquivariantMap bijection) or (False, certificate) where the
    certificate is a one-object subgroupoid H with |X^H| != |Y^H|.
    """
    if x.groupoid is not y.groupoid:
        raise GroupoidMismatch("G-sets over different groupoids")
    g = x.groupoid
    reps = enumerate_reps(g, cap=cap)
    dx = decompose(x, reps)
    dy = decompose(y, reps)
    if dx.coefficients != dy.coefficients:
        for h in reps:
            if len(fixed_points(x, h)) != len(fixed_points(y, h)):
                return False, h
        raise DecompositionMismatch("decompositions differ but all marks agree")
    # pair up orbits class by class and transport each one along a witness d
    by_class_y = {}
    for orbit in y.orbits():
        e = orbit[0]
        k = conjugacy_class_index(y.stabilizer(e), reps)
        by_class_y.setdefault(k, []).append(e)
    mapping = [None] * x.size
    for orbit in x.orbits():
        e = orbit[0]
        stab_x = x.stabilizer(e)
        k = conjugacy_class_index(stab_x, reps)
        f = by_class_y[k].pop(0)
        stab_y = y.stabilizer(f)
        ok, d = conjugated_isotropy_subgroups(stab_x, stab_y)
        if not ok:
            raise DecompositionMismatch(
                "paired orbits have stabilizers that are not conjugated",
                element=e, partner=f)
        # f·(d g) is well defined on e·g since d Stab(e) d^{-1} = Stab(f)
        for p in g.arrows_into(x.sigma[e]):
            mapping[x.action[(e, p)]] = y.action[(f, g.compose(d, p))]
    return True, EquivariantMap(x, y, mapping, check=True)


# -- induction along a morphism -------------------------------------------

def induction(phi: GroupoidMorphism, x: RightGSet) -> RightGSet:
    """Pull a G-set back to an H-set along phi: H -> G.

    Carrier pairs (e, a) with sigma(e) = phi0(a); structure map pr2; the
    action is (e, a)·h = (e·phi1(h), src(h)).
    """
    if x.groupoid is not phi.target:
        raise GroupoidMismatch("G-set does not live over the morphism target")
    hgpd = phi.source
    pairs, index = induction_carrier_index(phi, x)
    sigma = [a for (_, a) in pairs]
    action = {}
    for k, (e, a) in enumerate(pairs):
        for h in hgpd.arrows_into(a):
            action[(k, h)] = index[(x.action[(e, phi.phi1[h])], hgpd.src(h))]
    labels = ["(%s,%s)" % (x.element_labels[e], hgpd.object_labels[a])
              for (e, a) in pairs]
    return RightGSet(hgpd, sigma, action, element_labels=labels, check=False)


def induction_carrier_index(phi: GroupoidMorphism, x: RightGSet):
    """The pair list and index used by induction, for building maps on it."""
    hgpd = phi.source
    pairs = [(e, a) for e in x.elements() for a in hgpd.objects()
             if x.sigma[e] == phi.phi0[a]]
    return pairs, {pair: k for k, pair in enumerate(pairs)}


def induced_transformation(alpha, phi: GroupoidMorphism, psi: GroupoidMorphism,
                           x: RightGSet) -> EquivariantMap:
    """The H-equivariant map phi*X -> psi*X of a natural transformation.

    `alpha` assigns to each object a of H an arrow phi0(a) -> psi0(a) in G;
    naturality alpha(tgt h) . phi1(h) = psi1(h) . alpha(src h) is checked.
    The map itself sends (e, a) to (e·alpha(a)^{-1}, a).
    """
    if phi.source is not psi.source or phi.target is not psi.target:
        raise GroupoidMismatch("transformations need parallel morphisms")
    hgpd, g = phi.source, phi.target
    if isinstance(alpha, dict):
        alpha = [alpha[a] for a in hgpd.objects()]
    alpha = tuple(alpha)
    if len(alpha) != hgpd.n_objects:
        raise MalformedInput("one arrow per object required")
    for a in hgpd.objects():
        arr = alpha[a]
        if g.src(arr) != phi.phi0[a] or g.tgt(arr) != psi.phi0[a]:
            raise NotNatural("component has wrong endpoints", object=a)
    for h in hgpd.arrows():
        a, b = hgpd.src(h), hgpd.tgt(h)
        if g.compose(alpha[b], phi.phi1[h]) != g.compose(psi.phi1[h], alpha[a]):
            raise NotNatural("naturality square fails", arrow=h)
    dom = induction(phi, x)
    cod = induction(psi, x)
    _, cod_index = induction_carrier_index(psi, x)
    pairs, _ = induction_carrier_index(phi, x)
    mapping = [cod_index[(x.action[(e, g.inverse(alpha[a]))], a)]
               for (e, a) in pairs]
    return EquivariantMap(dom, cod, mapping, check=True)


def _bijection(witness: EquivariantMap) -> EquivariantMap:
    if not witness.is_bijection():
        raise MalformedInput("witness is not a bijection")
    return witness


def induction_union_witness(phi: GroupoidMorphism, x: RightGSet,
                            y: RightGSet) -> EquivariantMap:
    """Validated bijection pulling back a disjoint union termwise."""
    dom = induction(phi, disjoint_union(x, y))
    cod = disjoint_union(induction(phi, x), induction(phi, y))
    pairs, _ = induction_carrier_index(phi, disjoint_union(x, y))
    _, left = induction_carrier_index(phi, x)
    _, right = induction_carrier_index(phi, y)
    offset = len(left)
    mapping = [left[(e, a)] if e < x.size else offset + right[(e - x.size, a)]
               for (e, a) in pairs]
    return _bijection(EquivariantMap(dom, cod, mapping, check=True))


def induction_product_witness(phi: GroupoidMorphism, x: RightGSet,
                              y: RightGSet) -> EquivariantMap:
    """Validated bijection pulling back a fibered product factorwise."""
    inner = fibered_product(x, y)
    dom = induction(phi, inner)
    ix = induction(phi, x)
    iy = induction(phi, y)
    cod = fibered_product(ix, iy)
    inner_pairs = fibered_pairs(x, y)
    dom_pairs, _ = induction_carrier_index(phi, inner)
    _, x_index = induction_carrier_index(phi, x)
    _, y_index = induction_carrier_index(phi, y)
    cod_index = {pair: k for k, pair in enumerate(fibered_pairs(ix, iy))}
    mapping = []
    for (k, a) in dom_pairs:
        i, j = inner_pairs[k]
        mapping.append(cod_index[(x_index[(i, a)], y_index[(j, a)])])
    return _bijection(EquivariantMap(dom, cod, mapping, check=True))
