import contextlib
import copy
import csv
import functools
import io
import json
import os
import sys
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from groupoids import cli, core, generate, groups, gset, subconj
from groupoids.generate import from_spec


def run_cli(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr()
    return code, out.out


def test_marks_c2_csv(capsys):
    code, out = run_cli(capsys, "marks", "--gen", "trg:C2:1")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert [r[1:] for r in rows[1:]] == [["1", "0"], ["1", "2"]]
    assert rows[1][0] == "c0:0|{0,1}"


def test_idempotents_c3_values(capsys):
    code, out = run_cli(capsys, "idempotents", "--gen", "trg:C3:1")
    assert code == 0
    data = json.loads(out)
    assert data["verified"] is True
    coeffs = [e["coefficients"] for e in data["idempotents"]]
    assert sorted(coeffs[1].values()) == ["1/3"]
    assert sorted(coeffs[0].values()) == ["-1/3", "1"]


def test_validate_file_and_gen_and_stdin(tmp_path, capsys, monkeypatch):
    g = from_spec("trg:S3:2")
    path = tmp_path / "g.json"
    path.write_text(json.dumps(g.to_json()))
    code, out = run_cli(capsys, "validate", str(path))
    assert code == 0 and json.loads(out)["arrows"] == 24

    code, out = run_cli(capsys, "validate", "--gen", "trg:S3:2")
    assert code == 0 and json.loads(out)["objects"] == 2

    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(g.to_json())))
    code, out = run_cli(capsys, "validate", "--stdio")
    assert code == 0 and json.loads(out)["valid"] is True


def test_exactly_one_source_required(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text("{}")
    code, _ = run_cli(capsys, "validate", str(path), "--gen", "pair:2")
    assert code == 2
    code, _ = run_cli(capsys, "validate")
    assert code == 2


def test_domain_error_record_and_exit_code(capsys, monkeypatch):
    bad = {"objects": [0], "arrows": [{"id": "e", "src": 0, "tgt": 0}],
           "identity": {}, "inverse": {"e": "e"}, "compose": [["e", "e", "e"]]}
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(bad)))
    code = cli.run(["validate", "--stdio"])
    captured = capsys.readouterr().out
    assert code == 1
    record = json.loads(captured)
    assert record["error"] == "MissingIdentity"
    assert "message" in record["detail"]


def test_usage_error_unknown_command(capsys):
    assert cli.run(["definitely-not-a-command"]) == 2


def test_outputs_are_byte_identical(capsys):
    outs = []
    for _ in range(2):
        code, out = run_cli(capsys, "ring", "--gen", "trg:D4:1",
                            "--format", "json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_components_and_isotropy(capsys):
    code, out = run_cli(capsys, "components", "--gen",
                        "coprod:trg:C2:2,pair:3")
    assert code == 0
    assert json.loads(out)["count"] == 2
    code, out = run_cli(capsys, "isotropy", "--gen", "trg:S3:2",
                        "--format", "pretty")
    assert code == 0
    assert out.splitlines() == ["0: order 6", "1: order 6"]


def test_subgroupoids_lists_classes(capsys):
    code, out = run_cli(capsys, "subgroupoids", "--gen", "trg:S3:1")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 4
    assert [c["order"] for c in data["classes"]] == [6, 3, 2, 1]


def test_conjugate_subcommand(tmp_path, capsys):
    g = from_spec("pair:3")
    gp = tmp_path / "g.json"
    gp.write_text(json.dumps(g.to_json()))
    h = tmp_path / "h.json"
    h.write_text(json.dumps({"objects": [g.object_labels[0]],
                             "arrows": [g.arrow_labels[0]]}))
    k = tmp_path / "k.json"
    k.write_text(json.dumps({"objects": [g.object_labels[i] for i in (0, 1)],
                             "arrows": [g.arrow_labels[i]
                                        for i in (0, 1, 3, 4)]}))
    code, out = run_cli(capsys, "conjugate", str(h), str(k),
                        "--groupoid", str(gp))
    assert code == 0
    data = json.loads(out)
    assert data["equivalent"] is True
    assert len(data["witness"]) == 2


def test_ring_and_decompose_ring(capsys):
    code, out = run_cli(capsys, "ring", "--gen", "trg:C2:1")
    assert code == 0
    assert "legend" in out
    code, out = run_cli(capsys, "decompose-ring", "--gen",
                        "coprod:trg:C2:1,pair:2")
    assert code == 0
    data = json.loads(out)
    assert [f["rank"] for f in data["factors"]] == [2, 1]


def test_ghost_apply_flag(tmp_path, capsys):
    vec = tmp_path / "vec.json"
    vec.write_text("[0, 1]")
    code, out = run_cli(capsys, "ghost", "--gen", "trg:C2:1",
                        "--apply", str(vec))
    assert code == 0
    assert out.strip().split("\n")[-1] == "ghost,0,2"


def test_gset_subcommands(tmp_path, capsys):
    g = from_spec("trg:S3:1")
    r = gset.regular_gset(g)
    xp = tmp_path / "x.json"
    xp.write_text(json.dumps(r.to_json()))
    from random import Random
    yp = tmp_path / "y.json"
    yp.write_text(json.dumps(generate.shuffle_gset(Random(2), r).to_json()))

    code, out = run_cli(capsys, "gset", "validate", str(xp), "--gen", "trg:S3:1")
    assert code == 0 and json.loads(out)["valid"]

    code, out = run_cli(capsys, "gset", "orbits", str(xp), "--gen", "trg:S3:1")
    assert code == 0 and json.loads(out)["count"] == 1

    code, out = run_cli(capsys, "gset", "decompose", str(xp),
                        "--gen", "trg:S3:1")
    assert code == 0
    assert json.loads(out)["coefficients"] == [0, 0, 0, 1]

    code, out = run_cli(capsys, "gset", "isomorphic", str(xp), str(yp),
                        "--gen", "trg:S3:1")
    assert code == 0
    data = json.loads(out)
    assert data["isomorphic"] is True and len(data["witness"]) == 6

    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"objects": [g.object_labels[0]],
                               "arrows": [g.arrow_labels[0]]}))
    code, out = run_cli(capsys, "gset", "fixed", str(xp), str(sub),
                        "--gen", "trg:S3:1")
    assert code == 0 and json.loads(out)["count"] == 6


def test_gset_isomorphic_negative_certificate(tmp_path, capsys):
    g = from_spec("trg:C2:1")
    from groupoids import subconj
    reps = subconj.enumerate_reps(g)
    xp = tmp_path / "x.json"
    xp.write_text(json.dumps(gset.coset_gset(g, reps[0]).to_json()))
    yp = tmp_path / "y.json"
    yp.write_text(json.dumps(gset.coset_gset(g, reps[1]).to_json()))
    code, out = run_cli(capsys, "gset", "isomorphic", str(xp), str(yp),
                        "--gen", "trg:C2:1")
    assert code == 0
    data = json.loads(out)
    assert data["isomorphic"] is False
    fp = data["certificate"]["fixed_points"]
    assert fp[0] != fp[1]


def test_grothendieck_demo(capsys):
    code, out = run_cli(capsys, "grothendieck-demo")
    assert code == 0
    data = json.loads(out)
    assert data["integers"]["ok"] is True
    assert data["boolean_rig"]["completion_collapses"] is True


def test_fuzz_deterministic_and_valid(capsys):
    code, out1 = run_cli(capsys, "fuzz", "--seed", "6", "--count", "3")
    assert code == 0
    code, out2 = run_cli(capsys, "fuzz", "--seed", "6", "--count", "3")
    assert out1 == out2
    data = json.loads(out1)
    assert len(data["fixtures"]) == 3
    for fixture in data["fixtures"]:
        core.validate(fixture["groupoid"]).validated()


def test_fuzz_gset_kind(capsys):
    code, out = run_cli(capsys, "fuzz", "--seed", "1", "--count", "2",
                        "--kind", "gset")
    assert code == 0
    for fixture in json.loads(out)["fixtures"]:
        g = core.validate(fixture["groupoid"])
        x = gset.validate_gset(fixture["gset"], g)
        x.validated()


def test_generator_grammar_errors(capsys):
    for spec in ("bogus:3", "trg:NoSuchGroup:2", "coprod:pair:2",
                 "trg:C2:-1"):
        code, out = run_cli(capsys, "validate", "--gen", spec)
        assert code == 1
        assert json.loads(out)["error"] == "MalformedInput"


def test_action_generator(tmp_path, capsys):
    table = tmp_path / "act.json"
    table.write_text("[[0, 1], [1, 0]]")
    code, out = run_cli(capsys, "validate", "--gen",
                        "action:C2:2:%s" % table)
    assert code == 0
    assert json.loads(out)["arrows"] == 4


def test_subgroup_cap_above_the_default(tmp_path, capsys):
    c5 = groups.cyclic(5)
    table = tmp_path / "c5xc5.json"
    table.write_text(json.dumps(
        {"table": groups.direct_product(c5, c5).table}))
    for command in ("idempotents", "ghost", "decompose-ring"):
        code, out = run_cli(capsys, command, "--gen", "trg:%s:1" % table,
                            "--subgroup-cap", "25")
        assert code == 0, out


def test_gset_commands_honour_the_subgroup_cap(tmp_path, capsys):
    g = core.from_group(groups.direct_product(groups.cyclic(5),
                                              groups.cyclic(5)))
    reps = subconj.enumerate_reps(g, cap=25)
    gp, xp, yp = (tmp_path / name for name in ("g.json", "x.json", "y.json"))
    gp.write_text(json.dumps(g.to_json()))
    xp.write_text(json.dumps(gset.coset_gset(g, reps[1]).to_json()))
    yp.write_text(json.dumps(gset.coset_gset(g, reps[2]).to_json()))
    code, out = run_cli(capsys, "gset", "decompose", str(xp),
                        "--groupoid", str(gp), "--subgroup-cap", "25")
    assert code == 0, out
    code, out = run_cli(capsys, "gset", "isomorphic", str(xp), str(yp),
                        "--groupoid", str(gp), "--subgroup-cap", "25")
    assert code == 0, out
    assert json.loads(out)["isomorphic"] is False
    code, out = run_cli(capsys, "gset", "isomorphic", str(xp), str(xp),
                        "--groupoid", str(gp), "--subgroup-cap", "25")
    assert code == 0 and json.loads(out)["isomorphic"] is True
    code, out = run_cli(capsys, "gset", "isomorphic", str(xp), str(yp),
                        "--groupoid", str(gp))
    assert code == 1
    assert json.loads(out)["error"] == "IsotropyTooLarge"


def test_knobs_only_where_they_are_read(capsys):
    assert cli.run(["marks", "--gen", "trg:C2:1", "--jobs", "2"]) == 2
    assert cli.run(["validate", "--gen", "trg:C2:1",
                    "--search-budget", "5"]) == 2


def test_output_file_flag(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out = run_cli(capsys, "marks", "--gen", "trg:C2:1",
                        "--output", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith(",")


def _validate_record(tmp_path, capsys, mutate):
    """exit code and error record of `validate` on a broken C2 groupoid file"""
    data = core.from_group(groups.cyclic(2)).to_json()
    mutate(data)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    code, out = run_cli(capsys, "validate", str(path))
    return code, json.loads(out)


def test_validate_list_valued_object_label(tmp_path, capsys):
    def mutate(data):
        data["objects"] = [["*"]]
    code, record = _validate_record(tmp_path, capsys, mutate)
    assert code == 1
    assert record == {"error": "MalformedInput", "detail": {
        "message": "labels must be strings or numbers",
        "key": "objects", "label": ["*"]}}


def test_validate_list_valued_arrow_id(tmp_path, capsys):
    def mutate(data):
        data["arrows"][1]["id"] = ["1"]
    code, record = _validate_record(tmp_path, capsys, mutate)
    assert code == 1
    assert record["error"] == "MalformedInput"
    assert record["detail"]["key"] == "arrows"
    assert record["detail"]["label"] == ["1"]


def test_validate_identity_given_as_a_list(tmp_path, capsys):
    def mutate(data):
        data["identity"] = ["0"]
    code, record = _validate_record(tmp_path, capsys, mutate)
    assert code == 1
    assert record == {"error": "MalformedInput", "detail": {
        "message": "wrong JSON type", "key": "identity",
        "expected": "object"}}


def test_validate_compose_given_as_a_non_list(tmp_path, capsys):
    def mutate(data):
        data["compose"] = 7
    code, record = _validate_record(tmp_path, capsys, mutate)
    assert code == 1
    assert record["detail"]["key"] == "compose"
    assert record["detail"]["expected"] == "array"

    def mutate_entry(data):
        data["compose"][0] = 5
    code, record = _validate_record(tmp_path, capsys, mutate_entry)
    assert code == 1
    assert record["detail"]["message"] == "compose entries are [g, h, gh]"


def test_validate_missing_and_unparsable_files(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    code, out = run_cli(capsys, "validate", str(missing))
    assert code == 1
    assert json.loads(out) == {"error": "MalformedInput", "detail": {
        "message": "unreadable file", "path": str(missing),
        "reason": "No such file or directory"}}
    garbled = tmp_path / "bad.json"
    garbled.write_text("{not json")
    code, out = run_cli(capsys, "validate", str(garbled))
    assert code == 1
    record = json.loads(out)
    assert record["detail"]["message"] == "not valid JSON"
    assert record["detail"]["path"] == str(garbled)


def _gset_record(tmp_path, capsys, mutate):
    """exit code and error record of `gset validate` on a broken C2-set file"""
    g = from_spec("trg:C2:1")
    data = gset.regular_gset(g).to_json()
    mutate(data)
    gp, xp = tmp_path / "g.json", tmp_path / "x.json"
    gp.write_text(json.dumps(g.to_json()))
    xp.write_text(json.dumps(data))
    code, out = run_cli(capsys, "gset", "validate", str(xp),
                        "--groupoid", str(gp))
    return code, json.loads(out)


def test_gset_validate_rejects_wrong_json_types(tmp_path, capsys):
    for key, bad, expected in (("elements", {"0": 0}, "array"),
                               ("sigma", ["0", "0"], "object"),
                               ("action", 3, "array")):
        def mutate(data):
            data[key] = bad
        code, record = _gset_record(tmp_path, capsys, mutate)
        assert code == 1
        assert record == {"error": "MalformedInput", "detail": {
            "message": "wrong JSON type", "key": key, "expected": expected}}


def test_gset_validate_rejects_malformed_action_entries(tmp_path, capsys):
    def mutate(data):
        data["action"][0] = "abc"
    code, record = _gset_record(tmp_path, capsys, mutate)
    assert code == 1
    assert record == {"error": "MalformedInput", "detail": {
        "message": "action entries are [x, g, xg]", "key": "action",
        "entry": "abc"}}

    def mutate_label(data):
        data["action"][0][1] = [0]
    code, record = _gset_record(tmp_path, capsys, mutate_label)
    assert code == 1
    assert record["detail"]["key"] == "action"


def test_gset_validate_rejects_conflicting_action_entries(tmp_path, capsys):
    # two values for one (element, arrow): an error, whichever comes first;
    # a repeated consistent entry stays accepted
    g = from_spec("trg:S3:1")
    data = gset.coset_gset(g, subconj.enumerate_reps(g)[1]).to_json()
    x, p, y = data["action"][0]
    other = next(e for e in data["elements"] if e != y)
    gp, xp = tmp_path / "g.json", tmp_path / "x.json"
    gp.write_text(json.dumps(g.to_json()))
    for action, code in (([[x, p, other]] + data["action"], 1),
                         (data["action"] + [[x, p, other]], 1),
                         (data["action"] + [[x, p, y]], 0)):
        xp.write_text(json.dumps(dict(data, action=action)))
        got, out = run_cli(capsys, "gset", "validate", str(xp),
                           "--groupoid", str(gp))
        assert got == code
        if code:
            assert json.loads(out) == {"error": "MalformedInput", "detail": {
                "message": "conflicting action entries", "key": "action",
                "element": x, "arrow": p}}
        else:
            assert json.loads(out)["valid"] is True


def test_empty_groupoid_ring(capsys):
    code, out = run_cli(capsys, "ring", "--gen", "trg:S3:0")
    assert code == 0
    assert out == "legend: \n | \n-+-\n"
    code, out = run_cli(capsys, "ring", "--gen", "trg:S3:0", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"basis": [], "one": [],
                               "structure_constants": []}
    code, out = run_cli(capsys, "marks", "--gen", "trg:S3:0",
                        "--format", "pretty")
    assert code == 0 and out == "  \ndet = 1\n"


def test_unwritable_output_file(tmp_path, capsys):
    target = tmp_path / "missing" / "out.json"
    code, out = run_cli(capsys, "validate", "--gen", "pair:2",
                        "-o", str(target))
    assert code == 1
    assert json.loads(out) == {"error": "MalformedInput", "detail": {
        "message": "unwritable file", "path": str(target),
        "reason": "No such file or directory"}}
    assert not target.parent.exists()


S3_IDENTITY = "(0,012,0)"  # the identity arrow of trg:S3:1
MALFORMED_SUBGROUPOIDS = (
    ({"objects": 3, "arrows": [S3_IDENTITY]},
     {"message": "wrong JSON type", "key": "objects", "expected": "array"}),
    ({"objects": [0], "arrows": S3_IDENTITY},
     {"message": "wrong JSON type", "key": "arrows", "expected": "array"}),
    ({"objects": [[0]], "arrows": [S3_IDENTITY]},
     {"message": "labels must be strings or numbers", "key": "objects",
      "label": [0]}),
    ({"objects": [0], "arrows": [{"id": 0}]},
     {"message": "labels must be strings or numbers", "key": "arrows",
      "label": {"id": 0}}),
)


def test_conjugate_rejects_malformed_subgroupoid_files(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({"objects": [0], "arrows": [S3_IDENTITY]}))
    bad = tmp_path / "bad.json"
    for data, detail in MALFORMED_SUBGROUPOIDS:
        bad.write_text(json.dumps(data))
        for first, second in ((bad, good), (good, bad)):
            code, out = run_cli(capsys, "conjugate", str(first), str(second),
                                "--gen", "trg:S3:1")
            assert code == 1
            assert json.loads(out) == {"error": "MalformedInput",
                                       "detail": detail}


def test_gset_fixed_rejects_malformed_subgroupoid_files(tmp_path, capsys):
    xp = tmp_path / "x.json"
    xp.write_text(json.dumps(gset.regular_gset(from_spec("trg:S3:1")).to_json()))
    bad = tmp_path / "bad.json"
    for data, detail in MALFORMED_SUBGROUPOIDS:
        bad.write_text(json.dumps(data))
        code, out = run_cli(capsys, "gset", "fixed", str(xp), str(bad),
                            "--gen", "trg:S3:1")
        assert code == 1
        assert json.loads(out) == {"error": "MalformedInput", "detail": detail}


def test_ghost_apply_rejects_non_integer_coefficients(tmp_path, capsys):
    vec = tmp_path / "vec.json"
    for data, detail in (
            (["a", "b", "c", "d"],
             {"message": "coefficients must be integers", "index": 0}),
            ([1.5, 0, 0, 0],
             {"message": "coefficients must be integers", "index": 0}),
            ([1, 0, True, 0],
             {"message": "coefficients must be integers", "index": 2}),
            ({"x": 1}, {"message": "coefficients must be a JSON array"})):
        vec.write_text(json.dumps(data))
        code, out = run_cli(capsys, "ghost", "--gen", "trg:S3:1",
                            "--apply", str(vec))
        assert code == 1
        assert json.loads(out) == {"error": "MalformedInput",
                                   "detail": dict(detail, path=str(vec))}


def test_repeated_runs_in_one_process_match_fresh_parsers(capsys):
    calls = (["marks", "--gen", "trg:C2:1", "--jobs", "2"],     # usage error
             ["ring", "--gen", "bogus:1"],                      # domain error
             ["ring", "--gen", "trg:S3:2", "--format", "json"])
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        code = cli.run(list(argv))
        fresh.append((code, *capsys.readouterr()))
    assert [code for code, _, _ in fresh] == [2, 1, 0]
    for _ in range(3):
        for argv, want in zip(calls, fresh):
            code = cli.run(list(argv))
            assert (code, *capsys.readouterr()) == want
    assert cli.build_parser() is cli.build_parser()


@functools.cache
def _gset_fixtures():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.run(["fuzz", "--seed", "4", "--count", "4",
                        "--kind", "gset"]) == 0
    return json.loads(out.getvalue())["fixtures"]


def _json_nodes(doc, path=()):
    """Every (path, value) below doc, the root included."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _json_nodes(value, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# values of every JSON type, for retyping a node
JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 30),
                        st.text(max_size=3), st.lists(st.integers(0, 5),
                                                      max_size=3),
                        st.dictionaries(st.text(max_size=2), st.integers(0, 5),
                                        max_size=2))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mutated_fuzz_fixtures_never_raise(data):
    """Drop a key, retype a value, swap two labels, or delete or overwrite
    an action entry in a fuzz fixture; every command must end in exit 0, 1
    or 2, and exit 1 with an error record."""
    fixture = copy.deepcopy(data.draw(st.sampled_from(_gset_fixtures())))
    doc = fixture[data.draw(st.sampled_from(["groupoid", "gset"]))]
    nodes = [(p, v) for p, v in _json_nodes(doc) if p]
    kind = data.draw(st.sampled_from(["drop", "retype", "swap", "action"]))
    if kind == "action":
        action = fixture["gset"]["action"]
        i = data.draw(st.integers(0, len(action) - 1))
        if data.draw(st.booleans()):
            del action[i]
        else:
            leaves = [v for _, v in _json_nodes(fixture["gset"])
                      if isinstance(v, (str, int))]
            action[i][data.draw(st.integers(0, 2))] = \
                data.draw(st.sampled_from(leaves))
    else:
        path, _ = data.draw(st.sampled_from(nodes))
        parent, key = _at(doc, path[:-1]), path[-1]
        if kind == "drop":
            del parent[key]
        elif kind == "retype":
            parent[key] = data.draw(JSON_VALUES)
        else:
            other, value = data.draw(st.sampled_from(nodes))
            if other[:len(path)] != path and path[:len(other)] != other:
                _at(doc, other[:-1])[other[-1]] = parent[key]
                parent[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        gp, xp = os.path.join(tmp, "g.json"), os.path.join(tmp, "x.json")
        for path, key in ((gp, "groupoid"), (xp, "gset")):
            with open(path, "w") as fh:
                json.dump(fixture[key], fh)
        for argv in (["gset", "decompose", xp, "--groupoid", gp],
                     ["gset", "isomorphic", xp, xp, "--groupoid", gp],
                     ["marks", gp], ["decompose-ring", gp]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.run(argv)
            assert code in (0, 1, 2), argv
            if code == 1:
                assert set(json.loads(out.getvalue())) == {"error", "detail"}


def _subgroupoid_docs(g):
    """One-object class reps and the whole groupoid, as subgroupoid JSON."""
    docs = [{"objects": [g.object_labels[r.base]],
             "arrows": [g.arrow_labels[a] for a in r.arrows]}
            for r in subconj.enumerate_reps(g)]
    docs.append({"objects": list(g.object_labels),
                 "arrows": list(g.arrow_labels)})
    return docs


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    assert code in (0, 1, 2), argv
    if code == 1:
        assert set(json.loads(out.getvalue())) == {"error", "detail"}
    return code


# odd coefficients and labels: floats, bools, huge ints, nested lists
ODD_VALUES = st.one_of(JSON_VALUES, st.floats(allow_nan=False),
                       st.just(10 ** 4300 - 1), st.just(-(10 ** 300)),
                       st.lists(st.lists(st.integers(0, 3), max_size=2),
                                min_size=1, max_size=2))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mutated_subgroupoid_and_coefficient_files_never_raise(data):
    """Mutate the subgroupoid files read by `conjugate` and `gset fixed`
    and the coefficient file read by `ghost --apply`; every run ends in
    exit 0, 1 or 2, and exit 1 with an error record."""
    fixture = data.draw(st.sampled_from(_gset_fixtures()))
    g = core.validate(fixture["groupoid"])
    subs = [copy.deepcopy(data.draw(st.sampled_from(_subgroupoid_docs(g))))
            for _ in range(2)]
    doc = subs[0]
    kind = data.draw(st.sampled_from(["drop", "retype", "arrow", "object"]))
    if kind == "drop":
        key = data.draw(st.sampled_from(sorted(doc)))
        if doc[key] and data.draw(st.booleans()):
            del doc[key][data.draw(st.integers(0, len(doc[key]) - 1))]
        else:
            del doc[key]
    elif kind == "retype":
        path, _ = data.draw(st.sampled_from(list(_json_nodes(doc))[1:]))
        _at(doc, path[:-1])[path[-1]] = data.draw(ODD_VALUES)
    else:  # add a label of the groupoid, or a stray value, to one list
        key = kind + "s"
        labels = list(g.arrow_labels if kind == "arrow" else g.object_labels)
        doc[key].append(data.draw(st.one_of(st.sampled_from(labels),
                                            ODD_VALUES)))
    rank = len(subconj.enumerate_reps(g))
    vec = data.draw(st.lists(st.integers(-5, 5), min_size=rank,
                             max_size=rank))
    vec_kind = data.draw(st.sampled_from(["entry", "length", "nest"]))
    if vec_kind == "entry":
        vec[data.draw(st.integers(0, rank - 1))] = data.draw(ODD_VALUES)
    elif vec_kind == "length":
        vec = vec[:data.draw(st.integers(0, rank + 2))] + [0] * data.draw(
            st.integers(0, 2))
    else:
        vec = data.draw(st.sampled_from([[vec], {"coefficients": vec}, vec[0]]))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: os.path.join(tmp, name + ".json")
                 for name in ("g", "x", "h", "k", "vec")}
        for name, value in (("g", fixture["groupoid"]), ("x", fixture["gset"]),
                            ("h", subs[0]), ("k", subs[1]), ("vec", vec)):
            with open(paths[name], "w") as fh:
                json.dump(value, fh)
        gp = ["--groupoid", paths["g"]]
        for argv in (["conjugate", paths["h"], paths["k"], *gp,
                      "--search-budget", "2000"],
                     ["conjugate", paths["k"], paths["h"], *gp,
                      "--search-budget", "2000"],
                     ["gset", "fixed", paths["x"], paths["h"], *gp],
                     ["ghost", paths["g"], "--apply", paths["vec"]],
                     ["ghost", paths["g"], "--apply", paths["vec"],
                      "--format", "json"]):
            _run_quietly(argv)


def test_ghost_apply_reports_values_too_large_to_print(tmp_path, capsys):
    # 6·(10^4300 - 1) has 4301 digits, past the default int-to-str limit
    vec = tmp_path / "vec.json"
    vec.write_text("[0, 0, 0, %s]" % ("9" * 4300))
    for fmt in ("csv", "json"):
        code, out = run_cli(capsys, "ghost", "--gen", "trg:S3:1",
                            "--apply", str(vec), "--format", fmt)
        assert code == 1
        record = json.loads(out)
        assert record["error"] == "MalformedInput"
        assert record["detail"]["message"] == "ghost value too large to print"
