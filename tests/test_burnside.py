from fractions import Fraction
from random import Random

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoids import burnside, core, errors, generate, ghost, groups, gset, subconj


@pytest.fixture
def s3_ring(s3_groupoid):
    return burnside.BurnsideRing(s3_groupoid)


def test_one_is_multiplicative_identity(s3_ring):
    for i in range(s3_ring.rank):
        b = s3_ring.basis(i)
        assert (s3_ring.one() * b).coeffs == b.coeffs


def test_s3_products_frozen(s3_ring):
    # order-2 cosets square to themselves plus a free orbit
    c3, c2 = s3_ring.basis(1), s3_ring.basis(2)
    assert (c2 * c2).coeffs == (0, 0, 1, 1)
    assert (c3 * c3).coeffs == (0, 2, 0, 0)
    assert (c3 * c2).coeffs == (0, 0, 0, 1)


def test_structure_constants_symmetric(s3_ring):
    for i in range(s3_ring.rank):
        for j in range(s3_ring.rank):
            assert s3_ring.structure_constants(i, j) == \
                s3_ring.structure_constants(j, i)


def _oracle_suite():
    rng = Random(40904)
    suite = [generate.from_spec(spec) for spec in
             ("trg:S3:2", "trg:D4:1", "coprod:trg:Q8:1,trg:C6:1,pair:2")]
    seen = set()
    while len(suite) < 23:
        spec, g = generate.random_groupoid(rng, max_arrows=200,
                                           max_isotropy=12)
        if spec not in seen:
            seen.add(spec)
            suite.append(g)
    return suite


def test_structure_constants_match_fibered_products():
    for g in _oracle_suite():
        ring = burnside.BurnsideRing(g)
        for i in range(ring.rank):
            for j in range(i, ring.rank):
                assert ring.structure_constants(i, j) == \
                    oracles.structure_constants(ring, i, j)


def test_cross_component_structure_constants_skip_the_solve(monkeypatch):
    ring = burnside.BurnsideRing(
        generate.from_spec("coprod:trg:Q8:1,trg:C6:1,pair:2"))
    components = ring.mark_table().components
    solve_rows = subconj.MarkTable._solve_rows
    calls = []

    def counting_solve_rows(self, first, stop, det, w, scale=1):
        calls.append((first, stop))
        return solve_rows(self, first, stop, det, w, scale)

    monkeypatch.setattr(subconj.MarkTable, "_solve_rows", counting_solve_rows)
    cross = [(i, j) for i in range(ring.rank) for j in range(ring.rank)
             if components[i] != components[j]]
    assert len(set(components)) == 3 and cross
    for i, j in cross:
        assert ring.structure_constants(i, j) == (0,) * ring.rank
        assert ring.structure_constants(i, j) == \
            oracles.structure_constants(ring, i, j)
    assert calls == []
    ring.structure_constants(0, 0)
    assert len(calls) == 1
    # to_json solves each in-block pair i <= j once, and no other pair
    calls.clear()
    ring.to_json()
    inside = [(i, j) for i in range(ring.rank) for j in range(i, ring.rank)
              if components[i] == components[j]]
    assert len(calls) == len(inside)


def test_non_integral_structure_constant_raises(s3_ring, monkeypatch):
    table = s3_ring.mark_table()
    assert table.components[1] == table.components[2]
    monkeypatch.setattr(
        type(table), "_solve_rows",
        lambda self, first, stop, det, w, scale=1: [Fraction(1, 2)] + w[1:])
    with pytest.raises(errors.DecompositionMismatch) as info:
        s3_ring.structure_constants(1, 2)
    assert info.value.detail == {"i": 1, "j": 2}


@pytest.mark.parametrize("bad", [0.1, 1.5, "x", True, None, [1]])
def test_elements_take_only_int_and_fraction_coefficients(bad):
    ring = burnside.BurnsideRing(generate.from_spec("trg:S3:1"))
    with pytest.raises(errors.TableMismatch) as info:
        ring.element([0, 0, bad, 0])
    assert info.value.detail == {"index": 2, "type": type(bad).__name__}
    with pytest.raises(errors.TableMismatch):
        ghost.ghost_apply(ring, ring.element([bad, 0, 0, 0]))
    half = ring.element([Fraction(1, 2), -3, 0, 0])
    assert (half * ring.one()).coeffs == half.coeffs


def test_from_gset_is_additive_and_multiplicative(s3_two_objects):
    ring = burnside.BurnsideRing(s3_two_objects)
    rng = Random(31)
    reps = ring.reps
    x = generate.random_gset(rng, s3_two_objects, reps, max_carrier=10)
    y = generate.random_gset(rng, s3_two_objects, reps, max_carrier=10)
    cx, cy = ring.from_gset(x), ring.from_gset(y)
    assert ring.from_gset(gset.disjoint_union(x, y)).coeffs == (cx + cy).coeffs
    assert ring.from_gset(gset.fibered_product(x, y)).coeffs == (cx * cy).coeffs


def test_ring_laws_on_random_elements(two_component):
    ring = burnside.BurnsideRing(two_component)
    rng = Random(7)
    for _ in range(20):
        a = ring.element(generate.random_element_coeffs(rng, ring.rank))
        b = ring.element(generate.random_element_coeffs(rng, ring.rank))
        c = ring.element(generate.random_element_coeffs(rng, ring.rank))
        assert (a * b).coeffs == (b * a).coeffs
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
        assert (a * (b + c)).coeffs == (a * b + a * c).coeffs
        assert (a - a).coeffs == ring.zero().coeffs


def test_elements_of_different_rings_do_not_mix(s3_ring, two_component):
    other = burnside.BurnsideRing(two_component)
    with pytest.raises(errors.TableMismatch):
        s3_ring.one() + other.one()


def test_effective_cone(s3_ring):
    assert s3_ring.one().is_effective()
    assert not (s3_ring.zero() - s3_ring.one()).is_effective()


def test_to_json_sparse_triples(s3_ring):
    data = s3_ring.to_json()
    assert data["basis"][0].startswith("c0:")
    seen = {(i, j): dict(terms) for i, j, terms in data["structure_constants"]}
    assert seen[(2, 2)] == {2: 1, 3: 1}
    assert all(i <= j for (i, j) in seen)


def test_product_decomposition_roundtrip(two_component):
    ring = burnside.BurnsideRing(two_component)
    pd = burnside.product_decomposition(ring)
    rng = Random(13)
    for _ in range(10):
        a = ring.element(generate.random_element_coeffs(rng, ring.rank))
        b = ring.element(generate.random_element_coeffs(rng, ring.rank))
        assert pd.combine(pd.project(a)).coeffs == a.coeffs
        parts = [x * y for x, y in zip(pd.project(a), pd.project(b))]
        assert pd.combine(parts).coeffs == (a * b).coeffs


def test_product_decomposition_blocks_match_group_rings():
    g = core.coproduct([core.trg(groups.symmetric3(), 2),
                        core.from_group(groups.cyclic(4)),
                        core.pair_groupoid(3)])
    ring = burnside.BurnsideRing(g)
    pd = burnside.product_decomposition(ring)
    assert [f.rank for f in pd.factors] == [4, 3, 1]
    # structure constants across components vanish
    for i in range(ring.rank):
        for j in range(ring.rank):
            ci, _ = pd.index_maps[i]
            cj, _ = pd.index_maps[j]
            vec = ring.structure_constants(i, j)
            if ci != cj:
                assert all(v == 0 for v in vec)
            else:
                for k, v in enumerate(vec):
                    ck, kk = pd.index_maps[k]
                    if ck != ci:
                        assert v == 0


def test_trivial_isotropy_rings_are_integer_products():
    pairs = [(a, b) for a in range(5) for b in range(5) if (a - b) % 2 == 0]
    g = core.equivalence_relation(5, pairs)
    ring = burnside.BurnsideRing(g)
    assert ring.rank == 2
    assert ring.one().coeffs == (1, 1)
    for i in range(2):
        for j in range(2):
            expect = tuple(int(k == i == j) for k in range(2))
            assert ring.structure_constants(i, j) == expect


def test_induction_hom_is_ring_hom(two_component):
    g = two_component
    ring = burnside.BurnsideRing(g)
    inc = core.component_inclusion(g, 0)
    sub_ring = burnside.BurnsideRing(inc.source)
    h = burnside.induction_hom(inc, ring, sub_ring)
    rng = Random(19)
    for _ in range(10):
        a = ring.element(generate.random_element_coeffs(rng, ring.rank))
        b = ring.element(generate.random_element_coeffs(rng, ring.rank))
        assert h(a + b).coeffs == (h(a) + h(b)).coeffs
        assert h(a * b).coeffs == (h(a) * h(b)).coeffs
    assert h(ring.one()).coeffs == sub_ring.one().coeffs


def test_induction_hom_contravariant_composition(two_component):
    g = two_component
    inc = core.component_inclusion(g, 0)           # C -> G
    iden = core.identity_morphism(inc.source)      # C -> C
    comp = iden.then(inc)                          # C -> G
    ring_g = burnside.BurnsideRing(g)
    ring_c = burnside.BurnsideRing(inc.source)
    h_inc = burnside.induction_hom(inc, ring_g, ring_c)
    h_id = burnside.induction_hom(iden, ring_c, ring_c)
    h_comp = burnside.induction_hom(comp, ring_g, ring_c)
    rng = Random(3)
    for _ in range(5):
        a = ring_g.element(generate.random_element_coeffs(rng, ring_g.rank))
        assert h_inc.then(h_id)(a).coeffs == h_comp(a).coeffs


def test_difference_pairs_over_integers_behave_like_integers():
    ints = burnside.GrothendieckRing(lambda a, b: a + b,
                                     lambda a, b: a * b, 0,
                                     cancellative=True)
    rng = Random(41)
    for _ in range(100):
        a, b, c, d = (rng.randrange(100) for _ in range(4))
        p, q = ints.pair(a, b), ints.pair(c, d)
        assert ints.eq(p, q) == ((a - b) == (c - d))
        s = ints.add(p, q)
        assert ints.eq(s, ints.pair(a + c, b + d))
        m = ints.mul(p, q)
        assert (m.plus - m.minus) == (a - b) * (c - d)
        n = ints.neg(p)
        assert (n.plus - n.minus) == -(a - b)


def test_burnside_difference_ring_is_cancellative(s3_ring):
    ring = burnside.burnside_difference_ring(s3_ring)
    a, b = s3_ring.basis(1), s3_ring.basis(2)
    assert ring.eq(ring.pair(a, b), ring.pair(a + a, b + a))
    assert not ring.eq(ring.pair(a, b), ring.pair(b, a))


def test_ring_keeps_a_cap_above_the_default():
    # C5 x C5 has order 25, one above the default isotropy cap of 24
    c5 = groups.cyclic(5)
    g = core.from_group(groups.direct_product(c5, c5))
    ring = burnside.BurnsideRing(g, cap=25)
    assert ring.mark_table() is subconj.mark_table(g, ring.cap)
    assert ring.mark_table().det() == 25 * 5 ** 6
    assert ghost.verify_idempotents(ring, ghost.primitive_idempotents(ring))
    pd = burnside.product_decomposition(ring)
    assert [f.rank for f in pd.factors] == [ring.rank] == [8]


def test_boolean_rig_collapse_and_undecidable():
    bring, one_pair, zero_pair = burnside.boolean_rig_demo()
    assert bring.eq(one_pair, zero_pair)
    blind = burnside.GrothendieckRing(lambda a, b: a | b,
                                      lambda a, b: a & b, 0)
    with pytest.raises(errors.UndecidableEquality):
        blind.eq(blind.pair(1), blind.pair(0))


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_groupoid_ring_consistency(seed):
    rng = Random(seed)
    _, g = generate.random_groupoid(rng, max_arrows=100, max_isotropy=8)
    ring = burnside.BurnsideRing(g)
    x = generate.random_gset(rng, g, ring.reps, max_carrier=10)
    y = generate.random_gset(rng, g, ring.reps, max_carrier=10)
    cx, cy = ring.from_gset(x), ring.from_gset(y)
    assert ring.from_gset(gset.fibered_product(x, y)).coeffs == (cx * cy).coeffs
    pd = burnside.product_decomposition(ring)
    assert pd.combine(pd.project(cx)).coeffs == cx.coeffs
