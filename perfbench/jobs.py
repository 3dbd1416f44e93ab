"""Jobs and their output checks.

A pipeline job takes one groupoid through the stages below through the
package's public API; a query job is one in-process `cli.run(argv)` call.
Checks run outside the timed region and use only the benchmark's own
inputs, the pinned digests and exact arithmetic done here.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from fractions import Fraction

from inputs import CLASS_COUNTS

DEFAULT_CAP = 24


class CheckFailed(Exception):
    pass


def pipeline(api, entry, stage):
    """Run one pipeline job; `stage(name)` is a context manager per stage."""
    cap = entry.get("cap", DEFAULT_CAP)
    with stage("stage.load"):
        if "text" in entry:
            g = api.core.validate(json.loads(entry["text"]))
        else:
            g = api.generate.from_spec(entry["spec"])
    with stage("stage.reps"):
        reps = api.subconj.enumerate_reps(g, cap)
    with stage("stage.marks"):
        marks = api.subconj.mark_table(g, cap)
    with stage("stage.ring"):
        ring = api.burnside.BurnsideRing(g, cap)
        ring_json = ring.to_json()
    with stage("stage.split"):
        split = api.burnside.product_decomposition(ring)
    with stage("stage.idempotents"):
        idems = api.ghost.primitive_idempotents(ring)
        idems_json = api.ghost.idempotents_json(ring, idems)
    with stage("stage.verify"):
        verified = api.ghost.verify_idempotents(ring, idems)
    return {"reps": [[r.base, list(r.arrows)] for r in reps],
            "marks": {"labels": list(marks.labels),
                      "matrix": [list(row) for row in marks.matrix]},
            "ring": ring_json,
            "index_maps": [list(m) for m in split.index_maps],
            "idempotents": idems_json,
            "verified": verified}


def query(api, entry, stage):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = api.cli.run(list(entry["argv"]))
    return {"exit": code, "stdout": buf.getvalue()}


def run_job(api, entry, stage):
    return (pipeline if entry["kind"] == "pipeline" else query)(api, entry, stage)


def canonical(entry, out) -> bytes:
    if entry["kind"] == "query":
        return b"%d\n" % out["exit"] + out["stdout"].encode()
    return json.dumps(out, sort_keys=True, separators=(",", ":")).encode()


def digest(entry, out) -> str:
    return hashlib.sha256(canonical(entry, out)).hexdigest()


def check(entry, out, refs):
    """Raise CheckFailed unless the job's output is right."""
    want = refs.get(entry["key"])
    if want is None:
        raise CheckFailed("no pinned digest for %s" % entry["key"])
    if digest(entry, out) != want:
        raise CheckFailed("digest differs from the pinned reference")
    check_independent(entry, out)


def check_independent(entry, out):
    """The checks that do not rely on the pinned digests."""
    (check_pipeline if entry["kind"] == "pipeline" else check_query)(entry, out)


# -- pipeline checks -----------------------------------------------------------

def check_pipeline(entry, out):
    matrix = out["marks"]["matrix"]
    rank = len(matrix)
    counts = [1 if c == "pair" else CLASS_COUNTS.get(c)
              for c in entry["components"]]
    if None not in counts and rank != sum(counts):
        raise CheckFailed("rank %d, literature class count %d"
                          % (rank, sum(counts)))
    if len(out["reps"]) != rank or len(out["ring"]["basis"]) != rank:
        raise CheckFailed("reps, marks and ring disagree on the rank")
    if not out["verified"]:
        raise CheckFailed("verify_idempotents returned False")

    def ghost(vec):
        return [sum(row[k] * v for k, v in enumerate(vec) if v)
                for row in matrix]

    if ghost(out["ring"]["one"]) != [1] * rank:
        raise CheckFailed("ghost of one is not the all-ones vector")
    products = {(i, j): terms for i, j, terms in
                out["ring"]["structure_constants"]}
    cols = [[row[j] for row in matrix] for j in range(rank)]
    for i in range(rank):
        for j in range(i, rank):
            vec = [0] * rank
            for k, c in products.get((i, j), ()):
                vec[k] = c
            if ghost(vec) != [a * b for a, b in zip(cols[i], cols[j])]:
                raise CheckFailed("ghost map is not multiplicative at %d, %d"
                                  % (i, j))
    labels = out["ring"]["basis"]
    if len(out["idempotents"]) != rank:
        raise CheckFailed("one idempotent per class expected")
    for i, entry_i in enumerate(out["idempotents"]):
        coeffs = entry_i["coefficients"]
        vec = [Fraction(coeffs.get(lab, "0")) for lab in labels]
        if ghost(vec) != [int(i == k) for k in range(rank)]:
            raise CheckFailed("ghost of idempotent %d is not a unit vector" % i)
    per_factor = {}
    for ci, k in out["index_maps"]:
        per_factor.setdefault(ci, []).append(k)
    if any(sorted(ks) != list(range(len(ks))) for ks in per_factor.values()):
        raise CheckFailed("index maps are not a bijection per factor")


# -- query checks --------------------------------------------------------------

def check_query(entry, out):
    if out["exit"] != 0:
        raise CheckFailed("exit code %d" % out["exit"])
    result = json.loads(out["stdout"])
    expect = entry["expect"]
    command = entry["argv"][0] if entry["argv"][0] != "gset" else entry["argv"][1]
    files = entry["files"]
    if command == "validate":
        if result != expect:
            raise CheckFailed("validate answer differs from construction")
    elif command == "isomorphic":
        x, y = files[entry["argv"][2]], files[entry["argv"][3]]
        if result["isomorphic"] != expect["isomorphic"]:
            raise CheckFailed("isomorphic answer differs from construction")
        if result["isomorphic"]:
            check_gset_witness(x, y, result["witness"])
        else:
            check_certificate(x, y, result["certificate"])
    elif command == "decompose":
        orders = []
        for label, c in zip(result["classes"], result["coefficients"]):
            orders += [len(label.split("|{")[1].rstrip("}").split(","))] * c
        if sorted(orders) != expect["orders"]:
            raise CheckFailed("decomposition differs from construction")
        if len(result["orbit_representatives"]) != len(orders):
            raise CheckFailed("one orbit representative per orbit expected")
    elif command == "conjugate":
        if result["equivalent"] != expect["equivalent"]:
            raise CheckFailed("conjugacy answer differs from construction")
        if result["equivalent"]:
            check_conjugacy_witness(files[entry["argv"][-1]],
                                    files[entry["argv"][1]],
                                    files[entry["argv"][2]], result["witness"])


def _action(x):
    return {(e, p): f for e, p, f in x["action"]}


def check_gset_witness(x, y, witness):
    if sorted(witness) != sorted(x["elements"]) or \
       sorted(witness.values()) != sorted(y["elements"]):
        raise CheckFailed("witness is not a bijection")
    if any(x["sigma"][e] != y["sigma"][f] for e, f in witness.items()):
        raise CheckFailed("witness breaks the structure map")
    ya = _action(y)
    for e, p, f in x["action"]:
        if ya[(witness[e], p)] != witness[f]:
            raise CheckFailed("witness is not equivariant")


def check_certificate(x, y, cert):
    def fixed(z):
        act = _action(z)
        return sum(1 for e in z["elements"] if z["sigma"][e] == cert["base"]
                   and all(act[(e, p)] == e for p in cert["arrows"]))
    counts = [fixed(x), fixed(y)]
    if counts != cert["fixed_points"] or counts[0] == counts[1]:
        raise CheckFailed("certificate does not separate the G-sets")


def check_conjugacy_witness(g, h, k, witness):
    """(a) d_b2^-1 K(b1,b2) d_b1 = H(u1,u2); (b) every H object reached."""
    compose = {(a, b): c for a, b, c in g["compose"]}
    src = {r["id"]: r["src"] for r in g["arrows"]}
    tgt = {r["id"]: r["tgt"] for r in g["arrows"]}

    def hom(sub, a, b):
        return {p for p in sub["arrows"] if src[p] == a and tgt[p] == b}

    assign = {w["object"]: (w["partner"], w["arrow"]) for w in witness}
    if sorted(assign) != sorted(k["objects"]):
        raise CheckFailed("witness does not cover the subgroupoid's objects")
    for b, (u, d) in assign.items():
        if src[d] != u or tgt[d] != b or u not in h["objects"]:
            raise CheckFailed("witness arrow has the wrong endpoints")
    for b1, (u1, d1) in assign.items():
        for b2, (u2, d2) in assign.items():
            d2_inv = g["inverse"][str(d2)]
            moved = {compose[(d2_inv, compose[(p, d1)])]
                     for p in hom(k, b1, b2)}
            if moved != hom(h, u1, u2):
                raise CheckFailed("witness does not transport hom sets")
    partners = {u for u, _ in assign.values()}
    if any(not any(hom(h, u, v) for u in partners) for v in h["objects"]):
        raise CheckFailed("witness misses an object of the subgroupoid")
