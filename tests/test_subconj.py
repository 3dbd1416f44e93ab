import ast
import pathlib
import sys
from random import Random

import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoids import burnside, core, errors, generate, ghost, groups, gset, subconj


def _loops_to_elements(g, base, arrows):
    """Translate loop arrows to group element indices via as_group."""
    _, arrow_at = g.isotropy(base).as_group()
    back = {arr: i for i, arr in enumerate(arrow_at)}
    return frozenset(back[a] for a in arrows)


@pytest.mark.parametrize("name", ["C1", "C6", "C12", "C2xC2", "S3", "D4", "Q8"])
def test_subgroup_enumeration_matches_bitmask_oracle(name):
    grp = groups.named(name)
    g = core.from_group(grp)
    ours = subconj.enumerate_subgroups(g, 0)
    expected = set(oracles.subgroups_bitmask(grp))
    assert {_loops_to_elements(g, 0, s) for s in ours} == expected


def test_subgroup_enumeration_off_the_base_object():
    g = core.trg(groups.named("D4"), 3)
    base = 2
    ours = subconj.enumerate_subgroups(g, base)
    expected = set(oracles.subgroups_bitmask(groups.named("D4")))
    assert {_loops_to_elements(g, base, s) for s in ours} == expected


# permutation generators and degree of the groups beyond the catalog
PERMUTATION_GROUPS = {
    "A4": ([(1, 2, 0, 3), (0, 2, 3, 1)], 4),
    "S4": ([(1, 0, 2, 3), (1, 2, 3, 0)], 4),
    "A5": ([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)], 5),
    "S5": ([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], 5),
    "D4xC4": ([(1, 2, 3, 0, 4, 5, 6, 7), (3, 2, 1, 0, 4, 5, 6, 7),
               (0, 1, 2, 3, 5, 6, 7, 4)], 8),
}


def _permutation_group(name):
    gens, degree = PERMUTATION_GROUPS[name]
    return groups.from_permutations(gens, degree, name=name)


def _oracle_cases():
    cases = ["trg:%s:1" % name for name in generate.CATALOG]
    cases += ["S4", "A4", "D4xC4", "trg:D4:3"]
    rng = Random(5)
    while len(cases) < len(generate.CATALOG) + 24:
        spec, _ = generate.random_groupoid(rng, max_arrows=200,
                                           max_isotropy=24)
        if spec not in cases:
            cases.append(spec)
    return cases


@pytest.mark.parametrize("case", _oracle_cases())
def test_kernel_matches_the_closure_oracle(case):
    if case in PERMUTATION_GROUPS:
        g = core.from_group(_permutation_group(case))
    else:
        g = generate.from_spec(case)
    cap = max([len(g.loops(b)) for b in g.objects()] + [24])
    for base in g.objects():  # off the component bases too
        assert subconj.enumerate_subgroups(g, base, cap) == \
            oracles.subgroups_by_closure(g, base)
    assert [(r.base, r.arrows, r.order)
            for r in subconj.enumerate_reps(g, cap)] == \
        [(r.base, r.arrows, r.order)
         for r in oracles.class_reps_by_scan(g, cap)]


@pytest.mark.parametrize("name, cap, n_subgroups, n_classes", [
    ("A4", 24, 10, 5), ("S4", 24, 30, 11), ("A5", 60, 59, 9),
    ("S5", 120, 156, 19), ("D4xC4", 32, None, 47)])
def test_subgroup_and_class_counts_match_the_literature(name, cap,
                                                        n_subgroups,
                                                        n_classes):
    group = _permutation_group(name)
    g = core.from_group(group)
    subgroups = subconj.enumerate_subgroups(g, 0, cap)
    if n_subgroups is not None:
        assert len(subgroups) == n_subgroups
    assert len(subconj.enumerate_reps(g, cap)) == n_classes
    if group.n <= 32:
        # cross-check by brute force: adjoin-every-element subgroups and
        # conjugation by every element, on the abstract group
        subs = oracles._subgroups(group)
        assert len(subs) == len(subgroups)
        classes = {frozenset(frozenset(group.mul(group.mul(x, k),
                                                 group.inv(x)) for k in sub)
                             for x in range(group.n)) for sub in subs}
        assert len(classes) == n_classes


def test_isotropy_cap_raises():
    g = core.from_group(groups.cyclic(24))
    with pytest.raises(errors.IsotropyTooLarge):
        subconj.enumerate_subgroups(g, 0, cap=12)
    with pytest.raises(errors.IsotropyTooLarge):
        subconj.enumerate_reps(g, cap=12)


def test_rep_ordering_is_by_component_then_size(two_component):
    reps = subconj.enumerate_reps(two_component)
    comps = [two_component.component_index(r.base) for r in reps]
    assert comps == sorted(comps)
    for i in range(len(reps) - 1):
        if comps[i] == comps[i + 1]:
            assert reps[i].order >= reps[i + 1].order


def test_rep_count_s3():
    g = core.trg(groups.symmetric3(), 3)
    reps = subconj.enumerate_reps(g)
    assert [r.order for r in reps] == [6, 3, 2, 1]


def test_conjugated_isotropy_subgroups_witness(s3_two_objects):
    g = s3_two_objects
    # all three order-2 subgroups at object 0 are conjugate in S3
    subs = [s for s in subconj.enumerate_subgroups(g, 0) if len(s) == 2]
    assert len(subs) == 3
    a = core.OneObjectSubgroupoid(g, 0, sorted(subs[0]))
    b = core.OneObjectSubgroupoid(g, 1, sorted(
        subconj.enumerate_subgroups(g, 1)[1]))
    ok, d = subconj.conjugated_isotropy_subgroups(a, b)
    if ok:
        assert g.src(d) == 0 and g.tgt(d) == 1
        conj = {g.compose(g.compose(d, arr), g.inverse(d)) for arr in a.arrows}
        assert conj == set(b.arrows)


def test_distinct_cyclic_subgroups_of_v4_not_conjugated():
    g = core.from_group(groups.named("C2xC2"))
    subs = sorted(s for s in subconj.enumerate_subgroups(g, 0) if len(s) == 2)
    a = core.OneObjectSubgroupoid(g, 0, sorted(subs[0]))
    b = core.OneObjectSubgroupoid(g, 0, sorted(subs[1]))
    ok, _ = subconj.conjugated_isotropy_subgroups(a, b)
    assert not ok


def test_conjugacy_class_index_total(s3_two_objects):
    g = s3_two_objects
    reps = subconj.enumerate_reps(g)
    for base in g.objects():
        for sub in subconj.enumerate_subgroups(g, base):
            h = core.OneObjectSubgroupoid(g, base, sorted(sub))
            i = subconj.conjugacy_class_index(h, reps)
            assert reps[i].order == h.order


def test_conjugally_equivalent_identical(pair3):
    k = core.Subgroupoid(pair3, [0, 1], [0, 1, 3, 4])
    ok, witness = subconj.conjugally_equivalent(pair3, k, k)
    assert ok and set(witness) == {0, 1}


def test_conjugally_equivalent_nested_pair_subgroupoids(pair3):
    h = core.Subgroupoid(pair3, [0], [0])
    k = core.Subgroupoid(pair3, [0, 1], [0, 1, 3, 4])
    ok, witness = subconj.conjugally_equivalent(pair3, h, k)
    assert ok
    for b, (u, d) in witness.items():
        assert pair3.src(d) == u and pair3.tgt(d) == b
    ok_rev, _ = subconj.conjugally_equivalent(pair3, k, h)
    assert ok_rev


def test_conjugally_equivalent_rejects_parallel_factors():
    v4 = groups.named("C2xC2")
    g = core.trg(v4, 3)
    n, m = 3, 4

    def arr(x, p, y):
        return x * (n * m) + p * n + y

    objs = list(range(n))
    h = core.Subgroupoid(g, objs, [arr(x, p, y) for x in objs for y in objs
                                   for p in (0, 2)])
    k = core.Subgroupoid(g, objs, [arr(x, p, y) for x in objs for y in objs
                                   for p in (0, 1)])
    ok, witness = subconj.conjugally_equivalent(g, h, k)
    assert not ok and witness is None


def test_conjugally_equivalent_detects_isotropy_swap():
    v4 = groups.named("C2xC2")
    g = core.trg(v4, 4)

    def arr(x, p, y):
        return x * 16 + p * 4 + y

    first, second = (0, 2), (0, 1)
    h = core.Subgroupoid(g, [0, 2], [arr(0, p, 0) for p in first]
                         + [arr(2, p, 2) for p in second])
    k = core.Subgroupoid(g, [1, 3], [arr(1, p, 1) for p in first]
                         + [arr(3, p, 3) for p in second])
    ok, witness = subconj.conjugally_equivalent(g, h, k)
    assert ok
    # the witness must cross-match the bases carrying equal subgroups
    assert witness[1][0] == 0 and witness[3][0] == 2
    hx = core.OneObjectSubgroupoid(g, 0, [arr(0, p, 0) for p in first])
    kw = core.OneObjectSubgroupoid(g, 3, [arr(3, p, 3) for p in second])
    ok2, _ = subconj.conjugated_isotropy_subgroups(hx, kw)
    assert not ok2


def test_conjugally_equivalent_empty_cases(pair3):
    empty = core.Subgroupoid(pair3, [], [])
    h = core.Subgroupoid(pair3, [0], [0])
    assert subconj.conjugally_equivalent(pair3, empty, empty)[0]
    assert not subconj.conjugally_equivalent(pair3, h, empty)[0]
    assert not subconj.conjugally_equivalent(pair3, empty, h)[0]


def test_conjugally_equivalent_matches_coset_isomorphism():
    rng = Random(17)
    g = core.trg(groups.symmetric3(), 2)
    reps = subconj.enumerate_reps(g)
    one_object = [core.OneObjectSubgroupoid(g, b, sorted(s))
                  for b in g.objects()
                  for s in subconj.enumerate_subgroups(g, b)]
    for _ in range(15):
        h = rng.choice(one_object)
        k = rng.choice(one_object)
        ok, _ = subconj.conjugally_equivalent(g, h, k)
        via_cosets = gset.isomorphic(gset.coset_gset(g, h),
                                     gset.coset_gset(g, k))[0]
        assert ok == via_cosets
        iso_ok, _ = subconj.conjugated_isotropy_subgroups(h, k)
        assert ok == iso_ok  # single-object case: the notions coincide


def test_search_budget_exceeded():
    g = core.trg(groups.named("D4"), 3)
    wide = core.Subgroupoid(g, list(g.objects()), list(g.arrows()))
    with pytest.raises(errors.SearchBudgetExceeded):
        subconj.conjugally_equivalent(g, wide, wide, budget=2)


def test_mark_values_match_equivariant_map_counts(s3_groupoid):
    g = s3_groupoid
    reps = subconj.enumerate_reps(g)
    cosets = [gset.coset_gset(g, r) for r in reps]
    for i, h in enumerate(reps):
        for j in range(len(reps)):
            m = oracles.mark(g, h, reps[j])
            assert m == oracles.count_equivariant_maps(cosets[i], cosets[j])


def test_mark_table_c2_frozen():
    table = subconj.mark_table(core.from_group(groups.cyclic(2)))
    assert table.matrix == ((1, 0), (1, 2))
    assert table.det() == 2


def test_mark_table_pair_groupoid_frozen():
    table = subconj.mark_table(core.pair_groupoid(2))
    assert table.matrix == ((1,),)
    assert table.det() == 1


def test_mark_table_s3_frozen(s3_groupoid):
    table = subconj.mark_table(s3_groupoid)
    assert table.matrix == ((1, 0, 0, 0), (1, 2, 0, 0),
                            (1, 0, 1, 0), (1, 2, 3, 6))


def test_mark_table_object_count_invariant():
    base = subconj.mark_table(core.from_group(groups.named("D4"))).matrix
    for n in (2, 3):
        assert subconj.mark_table(core.trg(groups.named("D4"), n)).matrix == base


def test_mark_table_block_structure(two_component):
    table = subconj.mark_table(two_component)
    for i in range(len(table.reps)):
        for j in range(len(table.reps)):
            if table.components[i] != table.components[j]:
                assert table.matrix[i][j] == 0
            if table.components[i] == table.components[j] and j > i:
                assert table.matrix[i][j] == 0
        assert table.matrix[i][i] > 0


def test_mark_table_orthogonality_off_diagonal():
    g = core.trg(groups.named("D4"), 2)
    t = subconj.mark_table(g)
    n = len(t.reps)
    for i in range(n):
        for j in range(n):
            if i != j:
                assert t.matrix[i][j] * t.matrix[j][i] == 0


def test_mark_nonzero_iff_subconjugate(s3_groupoid):
    g = s3_groupoid
    reps = subconj.enumerate_reps(g)
    for i, h in enumerate(reps):
        for j, k in enumerate(reps):
            m = oracles.mark(g, h, k)
            embeds = any(
                {g.compose(g.compose(d, a), g.inverse(d)) for a in h.arrows}
                <= set(k.arrows)
                for d in g.hom(h.base, k.base))
            assert (m > 0) == embeds


def test_csv_and_json_export(s3_groupoid):
    t = subconj.mark_table(s3_groupoid)
    text = t.to_csv_string()
    lines = text.strip().split("\n")
    assert len(lines) == len(t.reps) + 1
    data = t.to_json()
    assert data["det"] == t.det()
    assert data["matrix"][3][3] == 6


@settings(max_examples=12, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_mark_table_shape_on_random_groupoids(seed):
    rng = Random(seed)
    _, g = generate.random_groupoid(rng, max_arrows=150, max_isotropy=12)
    t = subconj.mark_table(g)
    assert t.det() != 0
    n = len(t.reps)
    for i in range(n):
        for j in range(n):
            if t.components[i] != t.components[j] or j > i:
                assert t.matrix[i][j] == 0


def test_reps_go_through_the_module_level_subgroup_enumeration(monkeypatch):
    calls = []
    inner = subconj.enumerate_subgroups

    def counting(g, base, cap=subconj.DEFAULT_ISOTROPY_CAP):
        calls.append((g, base))
        return inner(g, base, cap)

    monkeypatch.setattr(subconj, "enumerate_subgroups", counting)
    g = generate.from_spec("coprod:trg:D4:1,trg:Q8:1,pair:2")
    subconj.enumerate_reps(g)
    assert calls == [(g, comp[0]) for comp in g.components()]

    calls.clear()
    g = generate.from_spec("coprod:trg:D4:1,trg:Q8:1")
    ring = burnside.BurnsideRing(g)
    assert [(h, b) for h, b in calls if h is g] == [(g, 0), (g, 1)]
    burnside.product_decomposition(ring)
    factor_calls = [(h, b) for h, b in calls if h is not g]
    assert len(factor_calls) == 2 and all(b == 0 for _, b in factor_calls)


def _mark_cases():
    cases = [("S4", 24), ("A4", 24), ("D4xC4", 32), ("A5", 60), ("S5", 120),
             ("trg:D4:3", 24), ("coprod:trg:D4:2,trg:Q8:2,trg:C12:2", 24),
             ("coprod:trg:Q8:1,trg:C6:1,pair:2", 24)]
    rng = Random(11)
    while len(cases) < 28:
        spec, _ = generate.random_groupoid(rng, max_arrows=150,
                                           max_isotropy=24)
        if (spec, 24) not in cases:
            cases.append((spec, 24))
    return cases


@pytest.mark.parametrize("case, cap", _mark_cases())
def test_marks_match_the_coset_oracle(case, cap):
    if case in PERMUTATION_GROUPS:
        g = core.from_group(_permutation_group(case))
    else:
        g = generate.from_spec(case)
    table = subconj.mark_table(g, cap)
    reps = table.reps
    for i, h in enumerate(reps):
        for j, k in enumerate(reps):
            if table.components[i] == table.components[j]:
                assert table.matrix[i][j] == oracles.mark(g, h, k), (i, j)
            else:
                assert table.matrix[i][j] == 0, (i, j)


def _class_index_cases():
    cases = [generate.from_spec("trg:S3:2"), generate.from_spec("trg:D4:3"),
             core.coproduct([core.from_group(groups.cyclic(2)),
                             core.pair_groupoid(2)])]
    rng = Random(23)
    cases += [generate.random_groupoid(rng, max_arrows=120,
                                       max_isotropy=12)[1] for _ in range(8)]
    return cases


@pytest.mark.parametrize("g", _class_index_cases())
def test_class_index_matches_the_scan(g):
    reps = subconj.enumerate_reps(g)
    # the same classes, each rep moved to the last object of its component
    moved = []
    for r in reps:
        last = g.components()[g.component_index(r.base)][-1]
        moved.append(r.conjugate_by(g.hom(r.base, last)[0]))
    for base in g.objects():  # bases and non-bases alike
        for sub in subconj.enumerate_subgroups(g, base):
            h = core.OneObjectSubgroupoid(g, base, sorted(sub))
            i = subconj.conjugacy_class_index(h, reps)
            assert i == oracles.class_index_by_scan(h, reps)
            assert subconj.conjugacy_class_index(h, moved) == i
            others = reps[:i] + reps[i + 1:]
            with pytest.raises(errors.GroupoidMismatch):
                subconj.conjugacy_class_index(h, others)


def test_class_index_rejects_reps_of_another_groupoid():
    g = generate.from_spec("trg:S3:2")
    twin = generate.from_spec("trg:S3:2")
    h = core.OneObjectSubgroupoid(g, 1, [g.identity(1)])
    with pytest.raises(errors.GroupoidMismatch):
        subconj.conjugacy_class_index(h, subconj.enumerate_reps(twin))


def test_library_path_builds_no_coset_gsets(monkeypatch):
    counts = {}
    mods = [m for name, m in sys.modules.items()
            if name == "groupoids" or name.startswith("groupoids.")]
    for fn in (gset.coset_gset, gset.fixed_points,
               subconj.conjugated_isotropy_subgroups):
        def counting(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] = counts.get(_fn.__name__, 0) + 1
            return _fn(*args, **kwargs)
        for m in mods:  # every binding site, as the benchmark tracer does
            for key, value in list(vars(m).items()):
                if value is fn:
                    monkeypatch.setattr(m, key, counting)
    for spec in ("trg:D4:3", "coprod:trg:D4:2,trg:Q8:2,trg:C12:2"):
        g = generate.from_spec(spec)
        subconj.mark_table(g)
        ring = burnside.BurnsideRing(g)
        ring.to_json()
        burnside.product_decomposition(ring)
        ghost.primitive_idempotents(ring)
    assert counts == {}
    gset.coset_gset(g, ring.reps[0])  # the counters do see a direct call
    assert counts == {"coset_gset": 1}


def test_subconj_imports_nothing_from_gset():
    # `from .gset import x`, `from . import gset` and `import groupoids.gset`
    names = set()
    for node in ast.walk(ast.parse(pathlib.Path(subconj.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module or "")
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    assert not [n for n in names if n.split(".")[-1] == "gset"]
