from random import Random

import oracles
import pytest

from groupoids import errors, generate, groups


def _tables():
    s4 = groups.from_permutations([(1, 0, 2, 3), (1, 2, 3, 0)], 4, name="S4")
    d4c3 = groups.direct_product(groups.dihedral4(), groups.cyclic(3))
    return {"S4": s4.table, "D4xC3": d4c3.table}


def _outcome(check, table):
    try:
        check(table)
    except errors.MalformedInput as ex:
        return ex.detail
    return None


@pytest.mark.parametrize("name", ["S4", "D4xC3"])
def test_group_check_reports_what_the_triple_scan_reports(name):
    table = _tables()[name]
    n = len(table)
    assert _outcome(lambda t: groups.Group(t), table) is None
    rng = Random(name)
    # every cell of the first and last rows and columns, then random cells
    cells = sorted({(i, j) for i in range(n) for j in range(n)
                    if i in (0, 1, n - 1) or j in (0, 1, n - 1)})
    cells += [(rng.randrange(n), rng.randrange(n)) for _ in range(150)]
    failures = 0
    for i, j in cells:
        value = (table[i][j] + rng.randrange(1, n)) % n
        bad = [list(row) for row in table]
        bad[i][j] = value
        want = _outcome(oracles.check_group_table, bad)
        assert _outcome(lambda t: groups.Group(t), bad) == want, (i, j, value)
        failures += want is not None and "triple" in want
    assert failures > len(cells) // 2


# non-associative loops of order 6 whose greedy generators are [1, 2]:
# (ij)k = i(jk) holds for all i, k at j = 1 in the first and at j = 2 in
# the second, so each generator alone misses the failure
NEARLY_ASSOCIATIVE = (
    [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 3, 4, 5, 0, 1],
     [3, 2, 5, 4, 1, 0], [4, 5, 0, 1, 3, 2], [5, 4, 1, 0, 2, 3]],
    [[0, 1, 2, 3, 4, 5], [1, 0, 3, 2, 5, 4], [2, 4, 0, 5, 1, 3],
     [3, 5, 1, 4, 0, 2], [4, 2, 5, 1, 3, 0], [5, 3, 4, 0, 2, 1]],
)


@pytest.mark.parametrize("table", NEARLY_ASSOCIATIVE)
def test_group_check_tries_every_generator(table):
    want = _outcome(oracles.check_group_table, table)
    assert want is not None and "triple" in want
    assert _outcome(lambda t: groups.Group(t), table) == want


@pytest.mark.parametrize("text, message", [
    ("[[0, 1.0], [1, 0]]", "table must be a list of integer rows"),
    ("[[0, true], [true, 0]]", "table must be a list of integer rows"),
    ("[[0, 1], 5]", "table must be a list of integer rows"),
    ('{"name": "x"}', "table must be a list of integer rows"),
    ('{"table": [[0]], "names": 3}', "group names must be a list"),
    ("[[0, 1], [1", "not valid JSON"),
])
def test_malformed_group_table_files_report(tmp_path, text, message):
    path = tmp_path / "table.json"
    path.write_text(text)
    with pytest.raises(errors.MalformedInput) as info:
        generate.from_spec("trg:%s:2" % path)
    assert info.value.message == message


@pytest.mark.parametrize("text", ["[[0, 1], [1, 0.5]]", "[[0, 1], [1", "{}"])
def test_malformed_action_table_files_report(tmp_path, text):
    path = tmp_path / "action.json"
    path.write_text(text)
    with pytest.raises(errors.MalformedInput) as info:
        generate.from_spec("action:C2:2:%s" % path)
    assert info.value.detail["path"] == str(path)
