from random import Random

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoids import core, errors, generate, groups, gset, subconj


def test_unit_gset_shape(s3_two_objects):
    u = gset.unit_gset(s3_two_objects).validated()
    assert u.size == 2
    assert len(u.orbits()) == 1
    assert u.stabilizer(0).order == 6


def test_regular_gset_orbits_are_target_fibers(pair3):
    r = gset.regular_gset(pair3).validated()
    assert len(r.orbits()) == 3
    for orbit in r.orbits():
        tgts = {pair3.tgt(e) for e in orbit}
        assert len(tgts) == 1


def test_regular_gset_is_free(s3_two_objects):
    r = gset.regular_gset(s3_two_objects).validated()
    assert all(r.stabilizer(e).order == 1 for e in r.elements())


def test_orbits_match_bruteforce_closure(two_component):
    x = gset.disjoint_union(gset.unit_gset(two_component),
                            gset.regular_gset(two_component))
    for orbit in x.orbits():
        assert set(orbit) == set(oracles.orbit_of(x, orbit[0]))


def test_stabilizers_along_an_orbit_are_conjugated(s3_two_objects):
    g = s3_two_objects
    rep = subconj.enumerate_reps(g)[2]  # an order-2 class
    x = gset.coset_gset(g, rep)
    e = x.orbits()[0][0]
    for p in g.arrows_into(x.sigma[e]):
        ok, _ = subconj.conjugated_isotropy_subgroups(
            x.stabilizer(e), x.stabilizer(x.act(e, p)))
        assert ok


def test_coset_gset_identity_class_is_fixed(s3_groupoid):
    g = s3_groupoid
    for rep in subconj.enumerate_reps(g):
        c = gset.coset_gset(g, rep)
        fixed = gset.fixed_points(c, rep)
        assert len(fixed) >= 1


def test_coset_gset_is_transitive_per_component(s3_two_objects):
    g = s3_two_objects
    for rep in subconj.enumerate_reps(g):
        c = gset.coset_gset(g, rep).validated()
        assert len(c.orbits()) == 1


def test_fixed_points_match_bruteforce(s3_two_objects):
    g = s3_two_objects
    reps = subconj.enumerate_reps(g)
    x = gset.disjoint_union(gset.coset_gset(g, reps[1]),
                            gset.coset_gset(g, reps[2]))
    for h in reps:
        assert gset.fixed_points(x, h) == oracles.fixed_elements(
            x, h.base, h.arrows)


def test_fixed_points_requires_one_object(s3_two_objects, pair3):
    h = core.Subgroupoid(pair3, [0, 1], [0, 1, 3, 4])
    with pytest.raises(errors.MultiObjectSubgroupoid):
        gset.fixed_points(gset.unit_gset(pair3), h)
    one = core.one_object_subgroupoid(pair3, 0, [0])
    with pytest.raises(errors.GroupoidMismatch):
        gset.fixed_points(gset.unit_gset(s3_two_objects), one)


def test_validate_gset_error_names(pair3):
    base = gset.unit_gset(pair3).to_json()

    missing = {k: (v[1:] if k == "action" else v) for k, v in base.items()}
    with pytest.raises(errors.ActionDomainGap):
        gset.validate_gset(missing, pair3)

    broken_sigma = dict(base)
    broken_sigma["sigma"] = {k: "not-an-object" for k in base["sigma"]}
    with pytest.raises(errors.GroupoidError):
        gset.validate_gset(broken_sigma, pair3)


def test_identity_action_violation():
    # two cosets in the same fiber: redirect x·id to the other element
    g = core.from_group(groups.cyclic(2))
    x = gset.regular_gset(g)
    data = x.to_json()
    ident = g.arrow_labels[g.identity(0)]
    swapped = []
    for a, p, b in data["action"]:
        if p == ident:
            b = next(lab for lab in data["elements"] if lab != a)
        swapped.append([a, p, b])
    data["action"] = swapped
    with pytest.raises(errors.IdentityActionViolation):
        gset.validate_gset(data, g)


def test_associativity_action_violation():
    g = core.from_group(groups.cyclic(4))
    x = gset.regular_gset(g)
    data = x.to_json()
    # break one non-identity entry inside the same fiber; all sigma values
    # agree, so only the mixed associativity law can catch it
    names = g.arrow_labels
    table = {(a, p): b for a, p, b in data["action"]}
    assert table[(names[1], names[1])] == names[2]
    table[(names[1], names[1])] = names[3]
    data["action"] = [[a, p, b] for (a, p), b in table.items()]
    with pytest.raises(errors.AssociativityActionViolation):
        gset.validate_gset(data, g)


def test_structure_map_violation():
    g = core.pair_groupoid(2)
    u = gset.unit_gset(g)
    data = u.to_json()
    table = {(a, p): b for a, p, b in data["action"]}
    # send one result to the wrong fiber
    a, p = sorted(table)[0]
    wrong = next(lab for lab in data["elements"]
                 if g.object_index(lab) != g.src(g.arrow_index(p)))
    table[(a, p)] = wrong
    data["action"] = [[x, y, z] for (x, y), z in table.items()]
    with pytest.raises(errors.StructureMapViolation):
        gset.validate_gset(data, g)


def test_equivariant_map_validation(s3_groupoid):
    g = s3_groupoid
    r = gset.regular_gset(g)
    # right translation by a fixed loop is equivariant for the left action
    # only; an arbitrary permutation is caught
    with pytest.raises(errors.StructureMapViolation):
        gset.EquivariantMap(r, r, [(i + 1) % r.size for i in range(r.size)])


def test_equivariant_map_compose_and_inverse(pair3):
    u = gset.unit_gset(pair3)
    sh = generate.shuffle_gset(Random(5), u)
    ok, f = gset.isomorphic(u, sh)
    assert ok
    back = f.inverse()
    assert f.then(back).mapping == gset.identity_map(u).mapping


def test_decompose_counts_sizes(s3_two_objects):
    g = s3_two_objects
    reps = subconj.enumerate_reps(g)
    x = gset.disjoint_union(gset.coset_gset(g, reps[0]),
                            gset.coset_gset(g, reps[3]))
    dec = gset.decompose(x, reps)
    assert dec.coefficients == (1, 0, 0, 1)
    total = sum(c * gset.coset_gset(g, reps[i]).size
                for i, c in enumerate(dec.coefficients))
    assert total == x.size


def test_decompose_rejects_orbit_stabilizer_mismatch():
    # over C2 both elements act by s onto element 0: one orbit of size 2
    # whose stabilizer is all of C2, so 2 * 2 != 2 arrows into the object
    g = core.from_group(groups.cyclic(2))
    e = g.identity(0)
    s = 1 - e
    x = gset.RightGSet(g, (0, 0), {(0, e): 0, (1, e): 1, (0, s): 0, (1, s): 0},
                       check=False)
    with pytest.raises(errors.DecompositionMismatch) as info:
        gset.decompose(x, subconj.enumerate_reps(g))
    assert info.value.detail["element"] == 0


def test_isomorphic_matches_bruteforce_bijection_search(s3_groupoid):
    g = s3_groupoid
    reps = subconj.enumerate_reps(g)
    rng = Random(11)
    for _ in range(12):
        x = generate.random_gset(rng, g, reps, max_orbits=2, max_carrier=8)
        y = generate.random_gset(rng, g, reps, max_orbits=2, max_carrier=8)
        ok, _ = gset.isomorphic(x, y)
        assert ok == oracles.exists_equivariant_bijection(x, y)


def test_isomorphic_witness_and_certificate(s3_two_objects):
    g = s3_two_objects
    reps = subconj.enumerate_reps(g)
    x = gset.coset_gset(g, reps[1])
    y = generate.shuffle_gset(Random(3), x)
    ok, f = gset.isomorphic(x, y)
    assert ok and f.is_bijection()
    ok2, cert = gset.isomorphic(x, gset.coset_gset(g, reps[2]))
    assert not ok2
    assert len(gset.fixed_points(x, cert)) != len(
        gset.fixed_points(gset.coset_gset(g, reps[2]), cert))


def test_disjoint_union_and_product_rig_laws(s3_groupoid):
    g = s3_groupoid
    reps = subconj.enumerate_reps(g)
    rng = Random(23)
    a = generate.random_gset(rng, g, reps, max_orbits=2, max_carrier=8)
    b = generate.random_gset(rng, g, reps, max_orbits=2, max_carrier=8)
    c = generate.random_gset(rng, g, reps, max_orbits=1, max_carrier=6)

    def cls(x):
        return gset.decompose(x, reps).coefficients

    assert cls(gset.disjoint_union(a, b)) == cls(gset.disjoint_union(b, a))
    assert cls(gset.fibered_product(a, b)) == cls(gset.fibered_product(b, a))
    left = gset.fibered_product(a, gset.disjoint_union(b, c))
    right = gset.disjoint_union(gset.fibered_product(a, b),
                                gset.fibered_product(a, c))
    assert cls(left) == cls(right)
    unit = gset.unit_gset(g)
    assert cls(gset.fibered_product(a, unit)) == cls(a)


def test_induction_along_identity_is_identity(s3_two_objects):
    g = s3_two_objects
    x = gset.regular_gset(g)
    ind = gset.induction(core.identity_morphism(g), x)
    reps = subconj.enumerate_reps(g)
    assert gset.decompose(ind, reps) == gset.decompose(x, reps)


def test_induction_restricts_along_inclusion(two_component):
    g = two_component
    inc = core.component_inclusion(g, 1)
    u = gset.unit_gset(g)
    ind = gset.induction(inc, u).validated()
    assert ind.size == inc.source.n_objects


def test_induced_transformation_is_equivariant_bijection(s3_two_objects):
    g = s3_two_objects
    # swap the two objects; conjugating the arrow part keeps it a morphism
    n, m = 2, 6
    sw0 = [1, 0]
    sw1 = [sw0[p // (m * n)] * (m * n) + ((p // n) % m) * n + sw0[p % n]
           for p in g.arrows()]
    swap = core.GroupoidMorphism(g, g, sw0, sw1)
    alpha = [sw0[a] * (m * n) + 0 * n + a for a in g.objects()]
    x = gset.regular_gset(g)
    t = gset.induced_transformation(alpha, core.identity_morphism(g), swap, x)
    assert t.is_bijection()


def test_induced_transformation_rejects_unnatural_families(s3_two_objects):
    g = s3_two_objects
    iden = core.identity_morphism(g)
    # components must be loops at each object for parallel identities; a
    # non-central loop breaks naturality in S3
    bad = [g.loops(a)[1] for a in g.objects()]
    with pytest.raises(errors.NotNatural):
        gset.induced_transformation(bad, iden, iden, gset.regular_gset(g))


def test_induction_union_and_product_witnesses(two_component):
    g = two_component
    inc = core.component_inclusion(g, 0)
    reps = subconj.enumerate_reps(g)
    rng = Random(9)
    x = generate.random_gset(rng, g, reps, max_orbits=2, max_carrier=8)
    y = generate.random_gset(rng, g, reps, max_orbits=2, max_carrier=8)
    wu = gset.induction_union_witness(inc, x, y)
    wp = gset.induction_product_witness(inc, x, y)
    assert wu.is_bijection() and wp.is_bijection()


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_gsets_validate_and_decompose(seed):
    rng = Random(seed)
    _, g = generate.random_groupoid(rng, max_arrows=100, max_isotropy=8)
    reps = subconj.enumerate_reps(g)
    x = generate.random_gset(rng, g, reps)
    x.validated()
    dec = gset.decompose(x, reps)
    assert sum(dec.coefficients) == len(x.orbits())
