import ast
import json
import pathlib
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoids import core, errors, generate, groups


def test_from_group_cyclic3_shape():
    g = core.from_group(groups.cyclic(3))
    assert g.n_objects == 1
    assert g.n_arrows == 3
    g.validated()


def test_catalog_groups_validate():
    for name in ("C1", "C2", "C7", "C24", "C2xC2", "S3", "D4", "Q8"):
        grp = groups.named(name)
        core.from_group(grp).validated()


def test_pair_groupoid_counts():
    g = core.pair_groupoid(4)
    assert g.n_objects == 4
    assert g.n_arrows == 16
    assert len(g.components()) == 1
    assert all(len(g.loops(a)) == 1 for a in g.objects())


def test_equivalence_relation_components():
    pairs = [(a, b) for a in range(4) for b in range(4) if (a - b) % 2 == 0]
    g = core.equivalence_relation(4, pairs)
    assert len(g.components()) == 2


def test_equivalence_relation_rejects_non_transitive():
    with pytest.raises(errors.InvalidRelation):
        core.equivalence_relation(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0),
                                      (1, 2), (2, 1)])


def test_trg_isotropy_order(s3_two_objects):
    for a in s3_two_objects.objects():
        assert len(s3_two_objects.loops(a)) == 6


def test_action_groupoid_axioms_checked():
    # 0·s = 1 but 1·s = 1, so acting twice by s is not the identity
    with pytest.raises(errors.InvalidGroupAction):
        core.action_groupoid(groups.cyclic(2), 2, [[0, 1], [1, 1]])
    g = core.action_groupoid(groups.cyclic(2), 2, [[0, 1], [1, 0]])
    g.validated()
    assert len(g.components()) == 1


def test_fibered_pair_components():
    g = core.fibered_pair([0, 0, 1, 2, 1])
    assert len(g.components()) == 3
    g.validated()


def test_opposite_is_involution(pair3, s3_two_objects):
    for g in (pair3, s3_two_objects):
        gg = core.opposite(core.opposite(g))
        assert gg._src == g._src
        assert gg._tgt == g._tgt
        assert gg._compose == g._compose


def test_opposite_swaps_endpoints(s3_two_objects):
    g = s3_two_objects
    op = core.opposite(g)
    for p in g.arrows():
        assert op.src(p) == g.tgt(p)
        assert op.tgt(p) == g.src(p)


def test_json_round_trip(two_component):
    data = two_component.to_json()
    back = core.validate(json.loads(json.dumps(data)))
    assert back.n_objects == two_component.n_objects
    assert back.n_arrows == two_component.n_arrows
    assert back.to_json() == data


def test_validate_rejects_missing_identity():
    data = core.from_group(groups.cyclic(2)).to_json()
    data["identity"] = {}
    with pytest.raises(errors.MissingIdentity):
        core.validate(data)


def test_validate_rejects_bad_inverse():
    data = core.from_group(groups.cyclic(3)).to_json()
    data["inverse"]["1"] = "1"  # 1·1 = 2, not the identity
    with pytest.raises(errors.InverseFailure):
        core.validate(data)


def test_validate_rejects_dangling_endpoint():
    data = {"objects": [0], "arrows": [{"id": "e", "src": 0, "tgt": 5}],
            "identity": {"0": "e"}, "inverse": {"e": "e"},
            "compose": [["e", "e", "e"]]}
    with pytest.raises(errors.DanglingArrowEndpoint):
        core.validate(data)


def test_validate_rejects_broken_associativity():
    # in C3, redirect 1·1 from 2 to 1: identities and inverses still check
    # out, but (1·1)·2 = 0 while 1·(1·2) = 1
    data = core.from_group(groups.cyclic(3)).to_json()
    table = {(a, b): c for a, b, c in data["compose"]}
    assert table[("1", "1")] == "2"
    table[("1", "1")] = "1"
    data["compose"] = [[a, b, c] for (a, b), c in table.items()]
    with pytest.raises(errors.AssociativityFailure) as info:
        core.validate(data)
    assert info.value.detail == {"g": 1, "h": 1, "k": 2}


def test_compose_domain_mismatch(pair3):
    # arrows (0<-1) and (0<-1) are not composable: src != tgt
    arr = pair3.arrow_index("(0,1)")
    with pytest.raises(errors.CompositionDomainMismatch):
        pair3.compose(arr, arr)


def test_unknown_object_lookup(pair3):
    with pytest.raises(errors.UnknownObject):
        pair3.identity(99)
    with pytest.raises(errors.UnknownObject):
        pair3.object_index("nope")


def test_subgroupoid_closure_enforced(pair3):
    with pytest.raises(errors.NotASubgroupoid):
        # arrow between 0 and 1 without its inverse
        core.Subgroupoid(pair3, [0, 1], [0, 1])


def test_one_object_subgroupoid_requires_loops(s3_two_objects):
    g = s3_two_objects
    non_loop = next(p for p in g.arrows() if g.src(p) != g.tgt(p))
    with pytest.raises(errors.NotASubgroupoid):
        core.OneObjectSubgroupoid(g, g.tgt(non_loop), [non_loop])


def test_subgroupoid_conjugate_by_moves_base(s3_two_objects):
    g = s3_two_objects
    h = core.one_object_subgroupoid(g, 0, g.loops(0))
    d = next(p for p in g.arrows() if g.src(p) == 0 and g.tgt(p) == 1)
    moved = h.conjugate_by(d)
    assert moved.base == 1
    assert moved.order == h.order


def test_morphism_validation_catches_broken_composition(s3_groupoid):
    g = s3_groupoid
    # swapping two non-identity arrows breaks the homomorphism law for C3<S3
    phi1 = list(range(g.n_arrows))
    phi1[1], phi1[2] = phi1[2], phi1[1]
    with pytest.raises(errors.CompositionNotPreserved):
        core.GroupoidMorphism(g, g, [0], phi1)


def test_morphism_identity_preserved_check(two_component):
    g = two_component
    phi0 = list(range(g.n_objects))
    phi1 = list(range(g.n_arrows))
    ident = g.identity(0)
    other = next(p for p in g.arrows()
                 if p != ident and g.src(p) == 0 and g.tgt(p) == 0)
    phi1[ident] = other
    with pytest.raises((errors.IdentityNotPreserved,
                        errors.CompositionNotPreserved)):
        core.GroupoidMorphism(g, g, phi0, phi1)


def test_component_inclusion_is_valid_morphism(two_component):
    for which in range(len(two_component.components())):
        inc = core.component_inclusion(two_component, which)
        assert inc.source.n_objects == len(two_component.components()[which])


def test_product_groupoid_sizes(pair3, s3_groupoid):
    prod = core.product(pair3, s3_groupoid)
    assert prod.n_objects == 3
    assert prod.n_arrows == 9 * 6
    prod.validated()


def test_isotropy_as_group_matches_catalog(s3_two_objects):
    import oracles
    grp, arrow_at = s3_two_objects.isotropy(0).as_group()
    assert oracles.groups_isomorphic(grp, groups.symmetric3())
    assert len(arrow_at) == 6


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_generated_groupoids_validate(seed):
    from random import Random
    spec, g = generate.random_groupoid(Random(seed), max_arrows=120,
                                       max_isotropy=8)
    g.validated()
    again = generate.from_spec(spec)
    assert again.to_json() == g.to_json()


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_composition_associative_on_samples(seed):
    from random import Random
    rng = Random(seed)
    _, g = generate.random_groupoid(rng, max_arrows=120, max_isotropy=8)
    arrows = list(g.arrows())
    for _ in range(50):
        p = rng.choice(arrows)
        qs = g.arrows_into(g.src(p))
        if not qs:
            continue
        q = rng.choice(qs)
        rs = g.arrows_into(g.src(q))
        r = rng.choice(rs)
        assert g.compose(g.compose(p, q), r) == g.compose(p, g.compose(q, r))


def _mutated(rng, kind):
    """A random groupoid with one table corrupted, built without checking."""
    _, g = generate.random_groupoid(rng, max_arrows=120, max_isotropy=8)
    m = g.n_arrows
    compose, inverse = dict(g._compose), list(g._inverse)

    def overwrite():
        g_, h_ = key = rng.choice(sorted(compose))
        if rng.random() < 0.5:  # keep the endpoints right: a subtler fault
            compose[key] = rng.choice(g.hom(g.src(h_), g.tgt(g_)))
        else:
            compose[key] = rng.randrange(-1, m + 1)

    if kind == "overwrite":
        overwrite()
    elif kind == "two overwrites":
        overwrite()
        overwrite()
    elif kind == "delete":
        del compose[rng.choice(sorted(compose))]
    elif kind == "inverse":
        inverse[rng.randrange(m)] = rng.randrange(m)
    return core.FiniteGroupoid(g._src, g._tgt, g._identity, inverse, compose,
                               check=False)


def _record(check):
    try:
        check()
    except errors.GroupoidError as ex:
        return ex.record()
    return None


MUTATIONS = ("overwrite", "two overwrites", "delete", "inverse")


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.sampled_from(MUTATIONS))
def test_validation_matches_the_oracle_on_mutated_tables(seed, kind):
    import oracles
    from random import Random
    g = _mutated(Random(seed), kind)
    assert _record(g.validated) == _record(lambda: oracles.check_groupoid(g))


def test_mutations_reach_every_kind_of_validation_failure():
    from random import Random
    seen = set()
    for seed in range(40):
        for kind in MUTATIONS:
            record = _record(_mutated(Random(seed), kind).validated)
            if record is not None:
                seen.add((record["error"], record["detail"]["message"]))
    assert {name for name, _ in seen} == {
        "AssociativityFailure", "CompositionDomainMismatch",
        "InverseFailure", "MissingIdentity"}
    assert ("CompositionDomainMismatch",
            "composable pair missing from table") in seen
    assert ("CompositionDomainMismatch",
            "composition entry out of range") in seen


def test_validate_reports_the_first_missing_pair():
    # C3 with 2·1 and 1·2 deleted: the first hole in (g, h) order is (1, 2)
    data = core.from_group(groups.cyclic(3)).to_json()
    data["compose"] = [e for e in data["compose"]
                       if (e[0], e[1]) not in {("2", "1"), ("1", "2")}]
    with pytest.raises(errors.CompositionDomainMismatch) as info:
        core.validate(data)
    assert info.value.record() == {
        "error": "CompositionDomainMismatch",
        "detail": {"message": "composable pair missing from table",
                   "g": 1, "h": 2}}


def test_validate_reports_the_least_bad_compose_entry():
    # two bad entries, inserted after the sound ones: (1, 3) is reported,
    # the least failing key, not (5, 7), the first one in table order
    g = core.pair_groupoid(3)
    compose = dict(g._compose)
    compose[(5, 7)] = 99
    compose[(1, 3)] = 8
    bad = core.FiniteGroupoid(g._src, g._tgt, g._identity, g._inverse,
                              compose, check=False)
    with pytest.raises(errors.CompositionDomainMismatch) as info:
        bad.validated()
    assert info.value.detail == {"g": 1, "h": 3, "gh": 8}


def _closure(g, gens):
    """Arrows reached from the identities by right multiplication by gens."""
    reached = set(g._identity)
    while True:
        more = {g.compose(r, s) for r in reached for s in gens
                if g.src(r) == g.tgt(s)} - reached
        if not more:
            return reached
        reached |= more


@pytest.mark.parametrize("spec", [
    "trg:D4:3", "trg:S3:2", "trg:C6:4", "trg:Q8:1", "trg:C1:7", "pair:1",
    "pair:5", "coprod:trg:D4:2,pair:3,trg:C2xC2:1", "trg:S3:0"])
def test_generators_with_the_identities_reach_every_arrow(spec):
    g = generate.from_spec(spec)
    gens = g._generators()
    assert set(gens).isdisjoint(g._identity)
    assert _closure(g, gens) == set(g.arrows())


def test_generators_of_random_groupoids_reach_every_arrow():
    from random import Random
    for seed in range(30):
        _, g = generate.random_groupoid(Random(seed), max_arrows=120,
                                        max_isotropy=8)
        assert _closure(g, g._generators()) == set(g.arrows())


def test_generating_sets_stay_small():
    assert len(generate.from_spec("trg:D4:12")._generators()) <= 24
    assert len(generate.from_spec("pair:40")._generators()) <= 78


def test_valid_groupoids_skip_the_exhaustive_associativity_loop(monkeypatch):
    # the fast path makes one itemgetter per generator, the exhaustive loop
    # one per arrow on top of those
    made = []

    def counting(*items):
        made.append(items)
        return itemgetter(*items)

    g = generate.from_spec("trg:D4:3")
    monkeypatch.setattr(core, "itemgetter", counting)
    g.validated()
    assert len(made) == len(g._generators()) < g.n_arrows
    compose = dict(g._compose)
    key = (g.hom(0, 1)[0], g.loops(0)[1])
    compose[key] = next(a for a in g.hom(0, 1) if a != compose[key])
    bad = core.FiniteGroupoid(g._src, g._tgt, g._identity, g._inverse,
                              compose, check=False)
    made.clear()
    with pytest.raises(errors.GroupoidError):
        bad.validated()
    assert len(made) > g.n_arrows


def test_off_generator_faults_match_the_oracle():
    # corrupt only entries (g, h) with h neither a generator nor an
    # identity, so the generating set is found as for the sound table
    import oracles
    from random import Random
    kinds = []
    for seed in range(60):
        rng = Random(seed)
        _, g = generate.random_groupoid(rng, max_arrows=120, max_isotropy=8)
        skip = set(g._generators()) | set(g._identity)
        keys = sorted(key for key in g._compose if key[1] not in skip)
        if not keys:
            continue
        compose = dict(g._compose)
        for key in rng.sample(keys, min(len(keys), rng.randint(1, 2))):
            p, q = key
            compose[key] = rng.choice(g.hom(g.src(q), g.tgt(p)))
        bad = core.FiniteGroupoid(g._src, g._tgt, g._identity, g._inverse,
                                  compose, check=False)
        assert bad._generators() == g._generators()
        record = _record(bad.validated)
        assert record == _record(lambda: oracles.check_groupoid(bad))
        kinds.append(record and record["error"])
    assert kinds.count("AssociativityFailure") >= 10


def _c3_data():
    return json.loads(json.dumps(core.from_group(groups.cyclic(3)).to_json()))


def _c3_int_ids_data():
    """C3 with the arrow ids 0, 1, 2 as JSON numbers"""
    g = core.from_group(groups.cyclic(3))
    return json.loads(json.dumps(core.FiniteGroupoid(
        g._src, g._tgt, g._identity, g._inverse, g._compose,
        check=False).to_json()))


def _conflict(data):
    g, h, gh = data["compose"][3]
    data["compose"].append([g, h, "0" if gh != "0" else "1"])


def _each(data, f):
    data["compose"] = [f(e) for e in data["compose"]]


def _strings(data):
    _each(data, lambda e: list(map(str, e)))


def _ints(data):
    _each(data, lambda e: list(map(int, e)))


def _ints_one_wrong(data):
    _ints(data)
    data["compose"][4][2] = 0


def _duplicate(data):
    data["compose"].append(list(data["compose"][3]))


def _unknown_then_malformed(data):
    data["compose"][1][2] = "nope"
    data["compose"][2] = 5


def _tuples(data):
    _each(data, tuple)


def _tuples_conflict(data):
    _conflict(data)
    _tuples(data)


def _true_for_one(data):
    _each(data, lambda e: [True if x == 1 else x for x in e])


def _true_first(data):
    data["compose"][0][0] = True


CONFLICT = {"error": "CompositionDomainMismatch", "detail": {
    "message": "conflicting compose entries", "g": "1", "h": "0"}}
LABEL_CASES = (  # (data, mutation, record or None for a valid table)
    (_c3_int_ids_data, _strings, {"error": "MalformedInput", "detail": {
        "message": "unknown arrow label", "label": "0", "where": "compose"}}),
    (_c3_data, _ints, None),
    (_c3_data, _ints_one_wrong, {"error": "AssociativityFailure", "detail": {
        "message": "(gh)k != g(hk)", "g": 1, "h": 1, "k": 2}}),
    (_c3_data, _duplicate, None),
    (_c3_data, _conflict, CONFLICT),
    (_c3_data, _unknown_then_malformed, {
        "error": "MalformedInput", "detail": {
            "message": "unknown arrow label", "label": "nope",
            "where": "compose"}}),
    (_c3_data, _tuples, None),
    (_c3_data, _tuples_conflict, CONFLICT),
    (_c3_int_ids_data, _true_for_one, None),
    (_c3_data, _true_first, {"error": "MalformedInput", "detail": {
        "message": "unknown arrow label", "label": True, "where": "compose"}}),
)


@pytest.mark.parametrize("make, mutate, expected", LABEL_CASES)
def test_compose_labels_resolve_as_entry_by_entry(make, mutate, expected):
    # records pinned from the entry-by-entry resolution: str-key fallback,
    # duplicates, first error in entry order, tuples, true == 1
    data = make()
    mutate(data)
    if expected is not None:
        assert _record(lambda: core.validate(data)) == expected
    else:
        assert core.validate(data).to_json() == \
            core.validate(make()).to_json()


def test_subgroupoid_reports_the_first_open_composition(pair3):
    # identities, (0,1), (1,0), (1,2), (2,1): closed under inverse, but
    # (0,1)(1,2) = (0,2) is missing; arrow a*3+b is (a,b)
    with pytest.raises(errors.NotASubgroupoid) as info:
        core.Subgroupoid(pair3, [0, 1, 2], [0, 4, 8, 1, 3, 5, 7])
    assert info.value.detail == {"g": 1, "h": 5}


def test_morphism_reports_the_first_broken_composition(s3_two_objects):
    # swap the images of two loops at object 1; the first broken pair
    # (in g, then h order) has a non-loop g
    g = s3_two_objects
    a, b = g.loops(1)[1], g.loops(1)[2]
    phi1 = list(range(g.n_arrows))
    phi1[a], phi1[b] = phi1[b], phi1[a]
    with pytest.raises(errors.CompositionNotPreserved) as info:
        core.validate_morphism(g, g, [0, 1], phi1)
    assert info.value.detail == {"g": 1, "h": 15}


def test_no_runtime_asserts_in_the_package():
    # python -O strips assert statements, so invariants must raise instead
    package = pathlib.Path(core.__file__).parent
    found = [(path.name, node.lineno)
             for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
