"""Timed end-to-end checks, one per advertised guarantee of the package.

Each test registers a pass/fail line with the terminal summary hook in
conftest; tests with a time budget also assert it.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from random import Random

from conftest import record_acceptance

from groupoids import burnside, core, generate, ghost, groups, gset, subconj


@contextmanager
def criterion(number, description, bound=None):
    start = time.perf_counter()
    done = False
    try:
        yield
        done = True
    finally:
        elapsed = time.perf_counter() - start
        ok = done and (bound is None or elapsed < bound)
        record_acceptance(number, description, elapsed, ok)
    if bound is not None:
        assert elapsed < bound, "time budget of %ss exceeded" % bound


def test_criterion_01_cyclic_group_ring_law():
    with criterion(1, "one-object C_p ring law: v*v=v, v*w=w, w*w=p*w "
                      "for p in {2,3,5}", bound=1.0):
        for p in (2, 3, 5):
            ring = burnside.BurnsideRing(core.from_group(groups.cyclic(p)))
            assert ring.rank == 2
            assert [rep.order for rep in ring.reps] == [p, 1]
            v, w = ring.basis(0), ring.basis(1)
            assert v * v == v
            assert v * w == w and w * v == w
            assert w * w == ring.element((0, p))
            assert ring.one() == v


def test_criterion_02_cyclic_group_idempotents():
    with criterion(2, "exact rational idempotents of C_p: (1/p)w and "
                      "v-(1/p)w, orthogonal and summing to one",
                   bound=1.0):
        for p in (2, 3, 5):
            ring = burnside.BurnsideRing(core.from_group(groups.cyclic(p)))
            idems = ghost.primitive_idempotents(ring)
            assert idems[0].coeffs == (Fraction(1), Fraction(-1, p))
            assert idems[1].coeffs == (Fraction(0), Fraction(1, p))
            assert ghost.verify_idempotents(ring, idems)


def test_criterion_03_trivial_isotropy_ring_is_zk():
    with criterion(3, "equivalence-relation groupoids: rank equals the "
                      "component count, identity structure constants",
                   bound=1.0):
        parity = [(a, b) for a in range(5) for b in range(5)
                  if (a - b) % 2 == 0]
        cases = [
            core.pair_groupoid(1),
            core.pair_groupoid(4),
            core.equivalence_relation(5, parity),
            core.coproduct([core.pair_groupoid(2), core.pair_groupoid(3),
                            core.pair_groupoid(1)]),
        ]
        for g in cases:
            k = len(g.components())
            ring = burnside.BurnsideRing(g)
            assert ring.rank == k
            assert all(rep.order == 1 for rep in ring.reps)
            for i in range(k):
                for j in range(k):
                    want = tuple(int(t == i == j) for t in range(k))
                    assert ring.structure_constants(i, j) == want
            assert ring.one().coeffs == (1,) * k


_MARK_SUITE = []  # (spec, groupoid, ring), shared between criteria 4 and 9


def _mark_suite():
    if not _MARK_SUITE:
        rng = Random(40904)
        seen = set()
        while len(_MARK_SUITE) < 20:
            spec, g = generate.random_groupoid(rng, max_arrows=200,
                                               max_isotropy=12)
            if spec in seen:
                continue
            seen.add(spec)
            _MARK_SUITE.append((spec, g, burnside.BurnsideRing(g)))
    return _MARK_SUITE


def test_criterion_04_mark_table_shape():
    with criterion(4, "20 generated groupoids: block lower-triangular "
                      "marks, nonzero diagonal, det != 0, opposite cells "
                      "multiply to zero", bound=30.0):
        for spec, g, ring in _mark_suite():
            assert g.n_arrows <= 200
            assert max(g.isotropy(a).order for a in g.objects()) <= 12
            table = ring.mark_table()
            comp = table.components
            n = len(table.reps)
            for i in range(n):
                assert table.matrix[i][i] != 0
                for j in range(n):
                    if comp[i] != comp[j] or (comp[i] == comp[j] and j > i):
                        assert table.matrix[i][j] == 0
                    if i != j:
                        assert table.matrix[i][j] * table.matrix[j][i] == 0
            assert table.det() != 0


def test_criterion_05_isomorphism_iff_equal_fixed_point_vectors():
    with criterion(5, "100 random G-set pairs: isomorphic iff equal "
                      "fixed-point vectors, bijection witness or "
                      "separating subgroup", bound=60.0):
        rng = Random(50905)
        checked = 0
        while checked < 100:
            _, g = generate.random_groupoid(rng, max_arrows=120,
                                            max_isotropy=8)
            reps = subconj.enumerate_reps(g)
            for _ in range(5):
                x = generate.random_gset(rng, g, reps)
                if rng.random() < 0.5:
                    y = generate.shuffle_gset(rng, x)
                else:
                    y = generate.random_gset(rng, g, reps)
                flag, payload = gset.isomorphic(x, y)
                fx = [len(gset.fixed_points(x, h)) for h in reps]
                fy = [len(gset.fixed_points(y, h)) for h in reps]
                assert flag == (fx == fy)
                if flag:
                    assert payload.is_bijection()
                    gset.EquivariantMap(x, y, payload.mapping, check=True)
                else:
                    assert (len(gset.fixed_points(x, payload))
                            != len(gset.fixed_points(y, payload)))
                checked += 1


def test_criterion_06_disjoint_union_cancellation():
    with criterion(6, "50 triples with X+Z iso Y+Z: X iso Y follows, "
                      "with verified witness", bound=30.0):
        rng = Random(60906)
        done = 0
        while done < 50:
            _, g = generate.random_groupoid(rng, max_arrows=120,
                                            max_isotropy=8)
            reps = subconj.enumerate_reps(g)
            for _ in range(5):
                x = generate.random_gset(rng, g, reps)
                z = generate.random_gset(rng, g, reps)
                if rng.random() < 0.5:
                    y = generate.shuffle_gset(rng, x)
                else:
                    # same decomposition, rebuilt from canonical cosets
                    y = gset.empty_gset(g)
                    coeffs = gset.decompose(x, reps).coefficients
                    for i, c in enumerate(coeffs):
                        for _ in range(c):
                            y = gset.disjoint_union(
                                y, gset.coset_gset(g, reps[i]))
                    y = generate.shuffle_gset(rng, y)
                premise, _ = gset.isomorphic(gset.disjoint_union(x, z),
                                             gset.disjoint_union(y, z))
                assert premise
                conclusion, witness = gset.isomorphic(x, y)
                assert conclusion and witness.is_bijection()
                done += 1


def test_criterion_07_componentwise_product_decomposition():
    with criterion(7, "multi-component groupoids: structure constants "
                      "assemble block-diagonally from the component "
                      "group rings"):
        rng = Random(70907)
        suite = [
            core.coproduct([core.trg(groups.symmetric3(), 2),
                            core.from_group(groups.cyclic(4))]),
            core.coproduct([core.from_group(groups.named("C2xC2")),
                            core.pair_groupoid(3),
                            core.trg(groups.cyclic(2), 2)]),
        ]
        while len(suite) < 10:
            _, g = generate.random_groupoid(rng, max_arrows=150,
                                            max_isotropy=8)
            if len(g.components()) >= 2:
                suite.append(g)
        for g in suite:
            ring = burnside.BurnsideRing(g)
            pd = burnside.product_decomposition(ring)
            for i in range(ring.rank):
                ci, ki = pd.index_maps[i]
                for j in range(ring.rank):
                    cj, kj = pd.index_maps[j]
                    got = ring.structure_constants(i, j)
                    if ci != cj:
                        assert got == (0,) * ring.rank
                        continue
                    factor_constants = pd.factors[ci].structure_constants(
                        ki, kj)
                    want = [0] * ring.rank
                    for t in range(ring.rank):
                        ct, kt = pd.index_maps[t]
                        if ct == ci:
                            want[t] = factor_constants[kt]
                    assert got == tuple(want)


def test_criterion_08_conjugacy_counterexamples():
    with criterion(8, "conjugal equivalence separations: same-group "
                      "subgroups not equivalent, nested pair groupoids "
                      "equivalent, equivalent subgroupoids with "
                      "non-conjugated isotropy", bound=5.0):
        v4 = groups.named("C2xC2")

        # distinct order-2 subgroups of V4 placed at different objects:
        # isomorphic groups, but conjugation cannot match them
        g3 = core.trg(v4, 3)

        def arr3(x, p, y):
            return x * 12 + p * 3 + y

        h = core.OneObjectSubgroupoid(g3, 0, [arr3(0, p, 0) for p in (0, 2)])
        k = core.OneObjectSubgroupoid(g3, 1, [arr3(1, p, 1) for p in (0, 1)])
        ok, _ = subconj.conjugally_equivalent(g3, h, k)
        assert ok is False
        ok, _ = subconj.conjugated_isotropy_subgroups(h, k)
        assert ok is False

        # pair groupoid on one object inside pair groupoid on two, ambient
        # on three: different sizes, still conjugally equivalent
        p3 = core.pair_groupoid(3)
        h = core.Subgroupoid(p3, [0], [p3.identity(0)])
        k_arrows = [a for a in p3.arrows()
                    if p3.src(a) in (0, 1) and p3.tgt(a) in (0, 1)]
        k = core.Subgroupoid(p3, [0, 1], k_arrows)
        ok, witness = subconj.conjugally_equivalent(p3, h, k)
        assert ok is True and len(witness) == 2

        # two-object subgroupoids carrying the two distinct order-2
        # subgroups: equivalent as subgroupoids even though the isotropy
        # subgroups at mismatched objects are not conjugated
        g4 = core.trg(v4, 4)

        def arr4(x, p, y):
            return x * 16 + p * 4 + y

        h = core.Subgroupoid(g4, [0, 2],
                             [arr4(0, p, 0) for p in (0, 2)]
                             + [arr4(2, p, 2) for p in (0, 1)])
        k = core.Subgroupoid(g4, [1, 3],
                             [arr4(1, p, 1) for p in (0, 2)]
                             + [arr4(3, p, 3) for p in (0, 1)])
        ok, _ = subconj.conjugally_equivalent(g4, h, k)
        assert ok is True
        hx = core.OneObjectSubgroupoid(g4, 0,
                                       [arr4(0, p, 0) for p in (0, 2)])
        kw = core.OneObjectSubgroupoid(g4, 3,
                                       [arr4(3, p, 3) for p in (0, 1)])
        ok, _ = subconj.conjugated_isotropy_subgroups(hx, kw)
        assert ok is False


def test_criterion_09_ghost_map_injectivity():
    with criterion(9, "ghost map: nonzero determinant on every generated "
                      "groupoid, separates 100 unequal elements"):
        suite = _mark_suite()
        for _, _, ring in suite:
            assert ring.mark_table().det() != 0
        rng = Random(90909)
        pairs = 0
        while pairs < 100:
            _, _, ring = suite[pairs % len(suite)]
            a = generate.random_element_coeffs(rng, ring.rank)
            b = generate.random_element_coeffs(rng, ring.rank)
            if a == b:
                continue
            assert (ghost.ghost_apply(ring, ring.element(a))
                    != ghost.ghost_apply(ring, ring.element(b)))
            pairs += 1


def _groupoid_map(source, group_s, n, target, group_t, m, obj_map, elem_map):
    """Functor between transitive groupoids from an object map and a
    group homomorphism given elementwise; functor laws are checked."""
    phi1 = []
    for x in range(n):
        for p in range(group_s.n):
            for y in range(n):
                phi1.append(obj_map[x] * group_t.n * m
                            + elem_map(p) * m + obj_map[y])
    return core.validate_morphism(source, target, list(obj_map), phi1)


def test_criterion_10_induction_functorial_and_monoidal():
    with criterion(10, "10 composable morphism pairs: induced ring maps "
                       "compose, union and product preserved up to "
                       "constructed bijections"):
        rng = Random(100910)
        u1, u2, u3 = groups.cyclic(1), groups.cyclic(2), groups.cyclic(3)
        u4, u6 = groups.cyclic(4), groups.cyclic(6)
        chains = [
            (u4, u2, lambda p: p % 2, u1, lambda p: 0),
            (u6, u3, lambda p: p % 3, u3, lambda p: (2 * p) % 3),
            (u6, u2, lambda p: p % 2, u2, lambda p: p),
            (u4, u4, lambda p: p, u2, lambda p: p % 2),
            (u2, u2, lambda p: p, u1, lambda p: 0),
        ]
        for trial in range(10):
            gu, gv, f1, gw, f2 = chains[trial % len(chains)]
            n, m, k = (rng.randint(1, 3) for _ in range(3))
            ga = core.trg(gu, n)
            gb = core.trg(gv, m)
            gc = core.trg(gw, k)
            phi = _groupoid_map(ga, gu, n, gb, gv, m,
                                [rng.randrange(m) for _ in range(n)], f1)
            psi = _groupoid_map(gb, gv, m, gc, gw, k,
                                [rng.randrange(k) for _ in range(m)], f2)
            composite = phi.then(psi)

            ra, rb, rc = (burnside.BurnsideRing(x) for x in (ga, gb, gc))
            back_psi = burnside.induction_hom(psi, rc, rb)
            back_phi = burnside.induction_hom(phi, rb, ra)
            back_comp = burnside.induction_hom(composite, rc, ra)
            assert back_psi.then(back_phi).columns == back_comp.columns
            e = rc.element(generate.random_element_coeffs(rng, rc.rank))
            assert back_phi(back_psi(e)) == back_comp(e)

            # the composite agrees with iterated pullback up to isomorphism
            c0 = rc.coset(rng.randrange(rc.rank))
            iterated = gset.induction(phi, gset.induction(psi, c0))
            direct = gset.induction(composite, c0)
            flag, _ = gset.isomorphic(iterated, direct)
            assert flag

            reps_b = rb.reps
            x = generate.random_gset(rng, gb, reps_b, max_carrier=8)
            y = generate.random_gset(rng, gb, reps_b, max_carrier=8)
            assert gset.induction_union_witness(phi, x, y).is_bijection()
            assert gset.induction_product_witness(phi, x, y).is_bijection()


def test_criterion_11_difference_completion_matches_integers():
    with criterion(11, "difference pairs over the naturals match integer "
                       "arithmetic; completion respects a two-factor "
                       "product"):
        rng = Random(111011)

        def scalar_add(a, b):
            return a + b

        def scalar_mul(a, b):
            return a * b

        nat = burnside.GrothendieckRing(scalar_add, scalar_mul, 0,
                                        cancellative=True)
        for _ in range(100):
            a, b, c, d = (rng.randrange(40) for _ in range(4))
            p, q = nat.pair(a, b), nat.pair(c, d)
            assert nat.eq(p, q) == ((a - b) == (c - d))
            total = nat.add(p, q)
            assert total.plus - total.minus == (a - b) + (c - d)
            prod = nat.mul(p, q)
            assert prod.plus - prod.minus == (a - b) * (c - d)
            diff = nat.sub(p, q)
            assert diff.plus - diff.minus == (a - b) - (c - d)

        def pair_add(a, b):
            return (a[0] + b[0], a[1] + b[1])

        def pair_mul(a, b):
            return (a[0] * b[0], a[1] * b[1])

        two = burnside.GrothendieckRing(pair_add, pair_mul, (0, 0),
                                        cancellative=True)

        def project(i, dp):
            return nat.pair(dp.plus[i], dp.minus[i])

        samples = [two.pair((3, 5), (1, 2)), two.pair((0, 7), (4, 7)),
                   two.pair((2, 0), (0, 3)), two.pair((5, 6), (3, 4))]
        for p in samples:
            for q in samples:
                both = (nat.eq(project(0, p), project(0, q))
                        and nat.eq(project(1, p), project(1, q)))
                assert two.eq(p, q) == both
                for op, scalar_op in ((two.add, nat.add), (two.mul, nat.mul)):
                    r = op(p, q)
                    for i in (0, 1):
                        assert nat.eq(project(i, r),
                                      scalar_op(project(i, p), project(i, q)))
