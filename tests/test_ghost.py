import functools
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


# -- the integer kernel against the row-by-row Fraction routes --------------

_PERMUTATIONS = {"S4": ([(1, 0, 2, 3), (1, 2, 3, 0)], 4, 24),
                 "A5": ([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], 5, 60),
                 "S5": ([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], 5, 120)}
_HAND_MADE = {
    "lower": (((2, 0, 0), (3, 4, 0), (5, 6, 7)), (0, 0, 0)),
    "blocks": (((2, 0, 0, 0), (2, 1, 0, 0), (0, 0, 3, 0), (0, 0, 3, 1)),
               (0, 0, 1, 1)),
    # an entry across blocks, which neither route reads
    "stray": (((2, 0, 0, 0), (2, 1, 0, 0), (7, 0, 3, 0), (0, 0, 3, 1)),
              (0, 0, 1, 1)),
}
_SPLIT_LADDER = "coprod:trg:D4:2,trg:Q8:2,trg:C12:2"
_RANDOM_SEEDS = (3, 17, 29)


@functools.cache
def _kernel_table(name):
    if name in _PERMUTATIONS:
        gens, degree, cap = _PERMUTATIONS[name]
        g = core.from_group(groups.from_permutations(gens, degree, name=name))
        return subconj.mark_table(g, cap)
    if name in _HAND_MADE:
        return _table(*_HAND_MADE[name])
    if name.startswith("random:"):
        rng = Random(int(name[7:]))
        return subconj.mark_table(generate.random_groupoid(
            rng, max_arrows=150, max_isotropy=24)[1])
    return subconj.mark_table(generate.from_spec(name))


_KERNEL_TABLES = (sorted(_PERMUTATIONS) + sorted(_HAND_MADE)
                  + [_SPLIT_LADDER]
                  + ["random:%d" % seed for seed in _RANDOM_SEEDS])
_ENTRIES = st.one_of(st.integers(-10**6, 10**6),
                     st.fractions(-50, 50, max_denominator=36))


@st.composite
def _table_and_vector(draw):
    """A table and a vector with zero blocks and leading zeros per block."""
    table = _kernel_table(draw(st.sampled_from(_KERNEL_TABLES)))
    vec = []
    for start, stop, _ in table._blocks:
        size = stop - start
        zeros = draw(st.integers(0, size))  # size: the whole block is zero
        vec += [0] * zeros + draw(st.lists(_ENTRIES, min_size=size - zeros,
                                           max_size=size - zeros))
    return table, vec


def _same(got, want):
    # equal values, and int exactly where the value is integral
    assert got == want
    assert [type(x) is int for x in got] == \
        [Fraction(x).denominator == 1 for x in want]


@settings(max_examples=300, deadline=None)
@given(_table_and_vector())
def test_solve_and_ghost_match_the_fraction_routes(case):
    table, vec = case
    x = table.solve(vec)
    _same(x, oracles.solve_by_fractions(table, vec))
    _same(table.ghost(vec), oracles.ghost_by_rows(table, vec))
    _same(table.ghost(x), tuple(vec))


@pytest.mark.parametrize("matrix, components", [
    (((1, 0), (5, 0)), (0, 0)),
    (((1, 0, 0), (0, 0, 0), (0, 4, 0)), (0, 1, 1)),
    (((0, 0, 0), (0, 2, 0), (0, 0, 0)), (0, 1, 2))])
def test_zero_pivot_is_reported_at_its_row(matrix, components):
    table = _table(matrix, components)
    n = len(matrix)
    for vec in ([0] * n, [1] * n, [0] * (n - 1) + [Fraction(1, 3)]):
        with pytest.raises(errors.SingularMatrix) as want:
            oracles.solve_by_fractions(table, vec)
        with pytest.raises(errors.SingularMatrix) as got:
            table.solve(vec)
        assert got.value.detail == want.value.detail
        # the ghost map itself never needs a pivot
        assert table.ghost(vec) == oracles.ghost_by_rows(table, vec)


@pytest.mark.parametrize("name", [n for n in _KERNEL_TABLES
                                  if n not in _HAND_MADE])
def test_in_block_structure_constants_match_all_pairs(name):
    table = _kernel_table(name)
    cap = _PERMUTATIONS[name][2] if name in _PERMUTATIONS else \
        subconj.DEFAULT_ISOTROPY_CAP
    ring = burnside.BurnsideRing(table.groupoid, cap=cap)
    assert ring.mark_table() is table
    assert ring.to_json()["structure_constants"] == \
        oracles.structure_constant_triples(ring)
