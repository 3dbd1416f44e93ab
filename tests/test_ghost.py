from fractions import Fraction
from random import Random

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoids import burnside, core, errors, generate, ghost, groups, gset, subconj


def _ring(g):
    return burnside.BurnsideRing(g)


def test_ghost_matrix_is_the_mark_table(s3_groupoid):
    ring = _ring(s3_groupoid)
    matrix = ring.mark_table().matrix
    for j in range(ring.rank):
        assert ghost.ghost_apply(ring, ring.basis(j)) == tuple(
            row[j] for row in matrix)


def test_determinant_matches_gaussian_oracle():
    for g in (core.from_group(groups.symmetric3()),
              core.from_group(groups.named("D4")),
              core.trg(groups.named("Q8"), 2),
              core.coproduct([core.from_group(groups.cyclic(6)),
                              core.pair_groupoid(3)])):
        table = _ring(g).mark_table()
        assert table.det() == oracles.det_gauss(table.matrix)


def test_ghost_unit_is_all_ones_for_transitive(s3_two_objects):
    ring = _ring(s3_two_objects)
    assert ghost.ghost_apply(ring, ring.one()) == (1,) * ring.rank


def test_ghost_of_free_coset_c2():
    ring = _ring(core.from_group(groups.cyclic(2)))
    assert ghost.ghost_apply(ring, ring.basis(1)) == (0, 2)


def test_ghost_is_a_ring_map(s3_two_objects):
    ring = _ring(s3_two_objects)
    rng = Random(5)
    for _ in range(15):
        a = ring.element(generate.random_element_coeffs(rng, ring.rank))
        b = ring.element(generate.random_element_coeffs(rng, ring.rank))
        ga, gb = ghost.ghost_apply(ring, a), ghost.ghost_apply(ring, b)
        assert ghost.ghost_apply(ring, a + b) == tuple(
            x + y for x, y in zip(ga, gb))
        assert ghost.ghost_apply(ring, a * b) == tuple(
            x * y for x, y in zip(ga, gb))


def test_ghost_matches_concrete_fixed_point_counts(two_component):
    ring = _ring(two_component)
    rng = Random(29)
    x = generate.random_gset(rng, two_component, ring.reps, max_carrier=10)
    vec = ghost.ghost_apply(ring, ring.from_gset(x))
    assert vec == tuple(len(gset.fixed_points(x, h)) for h in ring.reps)


def test_ghost_of_effective_element_is_nonnegative(s3_two_objects):
    ring = _ring(s3_two_objects)
    rng = Random(37)
    for _ in range(10):
        coeffs = tuple(rng.randint(0, 3) for _ in range(ring.rank))
        vec = ghost.ghost_apply(ring, ring.element(coeffs))
        assert all(v >= 0 for v in vec)


def test_ghost_separates_unequal_elements(s3_two_objects):
    ring = _ring(s3_two_objects)
    rng = Random(43)
    for _ in range(100):
        a = ring.element(generate.random_element_coeffs(rng, ring.rank))
        b = ring.element(generate.random_element_coeffs(rng, ring.rank))
        if a.coeffs == b.coeffs:
            continue
        assert ghost.ghost_apply(ring, a) != ghost.ghost_apply(ring, b)


def test_idempotents_cyclic_prime_frozen():
    for p in (2, 3, 5):
        ring = _ring(core.from_group(groups.cyclic(p)))
        es = ghost.primitive_idempotents(ring)
        assert es[0].coeffs == (1, Fraction(-1, p))
        assert es[1].coeffs == (0, Fraction(1, p))
        assert ghost.verify_idempotents(ring, es)


def test_idempotent_system_on_catalog():
    for g in (core.from_group(groups.named("D4")),
              core.from_group(groups.named("Q8")),
              core.from_group(groups.named("C2xC2")),
              core.trg(groups.symmetric3(), 2),
              core.coproduct([core.from_group(groups.cyclic(3)),
                              core.pair_groupoid(2)])):
        ring = _ring(g)
        es = ghost.primitive_idempotents(ring)
        assert len(es) == ring.rank
        assert ghost.verify_idempotents(ring, es)
        for i, e in enumerate(es):
            vec = ghost.ghost_apply(ring, e)
            assert vec == tuple(int(k == i) for k in range(ring.rank))


def test_trivial_isotropy_idempotents_are_component_indicators():
    g = core.coproduct([core.pair_groupoid(2), core.pair_groupoid(3)])
    ring = _ring(g)
    es = ghost.primitive_idempotents(ring)
    assert [e.coeffs for e in es] == [(1, 0), (0, 1)]


def _table(matrix, components):
    return subconj.MarkTable(None, (), matrix, (), components)


def test_solver_rejects_zero_pivot():
    with pytest.raises(errors.SingularMatrix) as info:
        _table(((1, 0), (5, 0)), (0, 0)).solve((1, 0))
    assert info.value.detail == {"row": 1}


def _check_inverse(table):
    n = len(table.matrix)
    for i in range(n):
        rhs = [int(i == j) for j in range(n)]
        x = table.solve(rhs)
        assert table.ghost(x) == tuple(rhs)
        for r in range(n):
            acc = sum(Fraction(table.matrix[r][c]) * x[c] for c in range(n))
            assert acc == rhs[r]


def test_solver_agrees_with_gauss_inverse():
    _check_inverse(_table(((2, 0, 0), (3, 4, 0), (5, 6, 7)), (0, 0, 0)))


def test_solver_works_block_by_block():
    table = _table(((2, 0, 0, 0), (2, 1, 0, 0), (0, 0, 3, 0), (0, 0, 3, 1)),
                   (0, 0, 1, 1))
    _check_inverse(table)
    assert table.solve((1, 0, 1, 0)) == (Fraction(1, 2), -1,
                                         Fraction(1, 3), -1)
    # a row reads only its own block, so an entry across blocks is not read
    stray = _table(((2, 0, 0, 0), (2, 1, 0, 0), (7, 0, 3, 0), (0, 0, 3, 1)),
                   (0, 0, 1, 1))
    assert stray.solve((2, 3, 3, 5)) == (1, 1, 1, 2)
    assert stray.ghost((1, 1, 1, 2)) == (2, 3, 3, 5)


def test_integral_solutions_stay_int(s3_two_objects):
    ring = _ring(s3_two_objects)
    table = ring.mark_table()
    for j in range(ring.rank):
        col = table.solve(tuple(row[j] for row in table.matrix))
        assert col == ring.basis(j).coeffs
        assert all(type(c) is int for c in col)


def test_idempotents_match_gluck_formula():
    s4 = groups.from_permutations([(1, 0, 2, 3), (1, 2, 3, 0)], 4, name="S4")
    for g in (core.from_group(groups.symmetric3()),
              core.from_group(groups.named("D4")),
              core.from_group(groups.named("Q8")),
              core.from_group(groups.cyclic(12)),
              core.from_group(s4),
              core.coproduct([core.trg(groups.symmetric3(), 2),
                              core.from_group(groups.named("C2xC2")),
                              core.pair_groupoid(2)])):
        ring = _ring(g)
        es = ghost.primitive_idempotents(ring)
        assert [e.coeffs for e in es] == oracles.gluck_idempotents(ring)
        assert ghost.verify_idempotents(ring, es) is True
        assert oracles.idempotents_by_products(ring, es) is True
        doubled = es[:-1] + [es[-1] + es[-1]]
        assert ghost.verify_idempotents(ring, doubled) is False
        assert oracles.idempotents_by_products(ring, doubled) is False


@pytest.mark.parametrize("spec", ["trg:D4:1", "coprod:trg:Q8:1,trg:C6:1,pair:2"])
def test_verify_idempotents_rejects_other_systems(spec):
    g = generate.from_spec(spec)
    ring = _ring(g)
    es = ghost.primitive_idempotents(ring)
    assert ghost.verify_idempotents(ring, es)
    trivial = [ring.one()] + [ring.zero()] * (ring.rank - 1)
    # both are complete orthogonal systems, which the product check accepts
    for bad in (trivial, es[::-1]):
        assert oracles.idempotents_by_products(ring, bad)
        assert not ghost.verify_idempotents(ring, bad)
    assert not ghost.verify_idempotents(ring, es[:-1])
    other = _ring(g)
    assert not ghost.verify_idempotents(
        ring, es[:-1] + [other.element(es[-1].coeffs)])


def test_csv_export_contains_labels(s3_groupoid):
    text = _ring(s3_groupoid).mark_table().to_csv_string()
    assert text.count("\n") == 5


@settings(max_examples=8, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_random_groupoid_ghost_and_idempotents(seed):
    rng = Random(seed)
    _, g = generate.random_groupoid(rng, max_arrows=100, max_isotropy=8)
    ring = _ring(g)
    table = ring.mark_table()
    assert table.det() == oracles.det_gauss(table.matrix)
    es = ghost.primitive_idempotents(ring)
    assert ghost.verify_idempotents(ring, es)
    assert oracles.idempotents_by_products(ring, es)
