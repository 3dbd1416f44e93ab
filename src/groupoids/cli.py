"""Command line front end.

Reads groupoids from JSON files, generator specs, or stdin, runs the
requested computation, and prints CSV, JSON, or aligned text. Domain
failures exit 1 with a machine-readable {"error", "detail"} record;
usage errors exit 2. Identical inputs and flags produce identical bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from random import Random

from . import burnside as burnside_mod
from . import core, generate, ghost, gset, subconj
from .errors import GroupoidError, MalformedInput


class _UsageError(Exception):
    pass


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _read_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except OSError as ex:
        raise MalformedInput("unreadable file", path=path,
                             reason=ex.strerror) from None
    except ValueError as ex:  # JSONDecodeError, UnicodeDecodeError
        raise MalformedInput("not valid JSON", path=path,
                             reason=str(ex)) from None


def _groupoid_from_args(args) -> core.FiniteGroupoid:
    sources = []
    if getattr(args, "input", None):
        sources.append(("file", args.input))
    if getattr(args, "groupoid", None):
        sources.append(("file", args.groupoid))
    if getattr(args, "gen", None):
        sources.append(("gen", args.gen))
    if getattr(args, "stdio", False):
        sources.append(("stdin", "-"))
    if len(sources) != 1:
        raise _UsageError("exactly one groupoid source required "
                          "(file, --gen, or --stdio)")
    kind, value = sources[0]
    if kind == "gen":
        return generate.from_spec(value)
    return core.validate(_read_json(value))


def _emit(args, text: str):
    if getattr(args, "output", None):
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as ex:
            raise MalformedInput("unwritable file", path=args.output,
                                 reason=ex.strerror) from None
    else:
        sys.stdout.write(text)


def _fmt(args, default):
    return getattr(args, "format", None) or default


def _matrix_pretty(labels, matrix, extra=()):
    width = max((len(str(lab)) for lab in labels), default=0)
    cols = [max([len(str(labels[j]))] + [len(str(row[j])) for row in matrix])
            for j in range(len(labels))]
    lines = [" " * width + "  " + "  ".join(
        str(labels[j]).rjust(cols[j]) for j in range(len(labels)))]
    for lab, row in zip(labels, matrix):
        lines.append(str(lab).ljust(width) + "  " + "  ".join(
            str(row[j]).rjust(cols[j]) for j in range(len(labels))))
    lines.extend(extra)
    return "\n".join(lines) + "\n"


# -- groupoid-level commands ----------------------------------------------

def _cmd_validate(args):
    g = _groupoid_from_args(args)
    return _json_text({"valid": True, "objects": g.n_objects,
                       "arrows": g.n_arrows,
                       "components": len(g.components())})


def _cmd_components(args):
    g = _groupoid_from_args(args)
    comps = [[g.object_labels[a] for a in comp] for comp in g.components()]
    return _json_text({"count": len(comps), "components": comps})


def _cmd_isotropy(args):
    g = _groupoid_from_args(args)
    rows = [{"object": g.object_labels[a],
             "order": len(g.loops(a)),
             "arrows": [g.arrow_labels[p] for p in g.loops(a)]}
            for a in g.objects()]
    if _fmt(args, "json") == "pretty":
        lines = ["%s: order %d" % (r["object"], r["order"]) for r in rows]
        return "\n".join(lines) + "\n"
    return _json_text({"isotropy": rows})


def _cmd_subgroupoids(args):
    g = _groupoid_from_args(args)
    reps = subconj.enumerate_reps(g, cap=args.subgroup_cap)
    rows = [{"label": subconj.rep_label(g, r),
             "base": g.object_labels[r.base],
             "order": r.order,
             "arrows": [g.arrow_labels[p] for p in r.arrows]}
            for r in reps]
    return _json_text({"count": len(rows), "classes": rows})


def _cmd_conjugate(args):
    g = _groupoid_from_args(args)
    h = core.subgroupoid_from_json(g, _read_json(args.first))
    k = core.subgroupoid_from_json(g, _read_json(args.second))
    ok, witness = subconj.conjugally_equivalent(g, h, k,
                                               budget=args.search_budget)
    out = {"equivalent": ok,
           "witness": subconj.conjugacy_witness_json(g, witness)
           if ok else None}
    return _json_text(out)


def _cmd_marks(args):
    g = _groupoid_from_args(args)
    table = subconj.mark_table(g, cap=args.subgroup_cap)
    fmt = _fmt(args, "csv")
    if fmt == "csv":
        return table.to_csv_string()
    if fmt == "json":
        return _json_text(table.to_json())
    return _matrix_pretty(table.labels, table.matrix,
                          extra=["det = %d" % table.det()])


def _cmd_ring(args):
    g = _groupoid_from_args(args)
    ring = burnside_mod.BurnsideRing(g, cap=args.subgroup_cap)
    fmt = _fmt(args, "pretty")
    if fmt == "json":
        return _json_text(ring.to_json())
    return ring.table_string() + "\n"


def _cmd_decompose_ring(args):
    g = _groupoid_from_args(args)
    ring = burnside_mod.BurnsideRing(g, cap=args.subgroup_cap)
    pd = burnside_mod.product_decomposition(ring)
    factors = [{"component": ci,
                "base": g.object_labels[pd.base_objects[ci]],
                "isotropy_order": len(g.loops(pd.base_objects[ci])),
                "rank": f.rank}
               for ci, f in enumerate(pd.factors)]
    basis_map = [[i, ci, k] for i, (ci, k) in enumerate(pd.index_maps)]
    return _json_text({"factors": factors, "basis_map": basis_map})


def _cmd_ghost(args):
    g = _groupoid_from_args(args)
    ring = burnside_mod.BurnsideRing(g, cap=args.subgroup_cap)
    table = ring.mark_table()
    applied = None
    if args.apply:
        coeffs = _read_json(args.apply)
        if not isinstance(coeffs, list):
            raise MalformedInput("coefficients must be a JSON array",
                                 path=args.apply)
        for i, c in enumerate(coeffs):
            if type(c) is not int:  # bool is an int subclass, JSON's true
                raise MalformedInput("coefficients must be integers",
                                     path=args.apply, index=i)
        elem = ring.element(coeffs)
        applied = ghost.ghost_apply(ring, elem)
        try:
            shown = [str(v) for v in applied]
        except ValueError as ex:  # past the interpreter's int-to-str limit
            raise MalformedInput("ghost value too large to print",
                                 path=args.apply, reason=str(ex)) from None
    fmt = _fmt(args, "csv")
    if fmt == "csv":
        text = table.to_csv_string()
        if applied is not None:
            text += "ghost," + ",".join(shown) + "\n"
        return text
    out = {"labels": list(table.labels),
           "matrix": [list(row) for row in table.matrix],
           "det": table.det(),
           "injective": table.det() != 0}
    if applied is not None:
        out["applied"] = list(applied)
    return _json_text(out)


def _cmd_idempotents(args):
    g = _groupoid_from_args(args)
    ring = burnside_mod.BurnsideRing(g, cap=args.subgroup_cap)
    idems = ghost.primitive_idempotents(ring)
    verified = ghost.verify_idempotents(ring, idems)
    out = {"idempotents": ghost.idempotents_json(ring, idems),
           "verified": verified}
    if _fmt(args, "json") == "pretty":
        lines = []
        for entry in out["idempotents"]:
            terms = ", ".join("%s·[%s]" % (q, lab)
                              for lab, q in sorted(entry["coefficients"].items()))
            lines.append("e[%s] = %s" % (entry["class"], terms))
        lines.append("verified: %s" % verified)
        return "\n".join(lines) + "\n"
    return _json_text(out)


# -- gset commands ---------------------------------------------------------

def _gset_from_args(args, g, path):
    return gset.validate_gset(_read_json(path), g)


def _cmd_gset_validate(args):
    g = _groupoid_from_args(args)
    x = _gset_from_args(args, g, args.gset)
    return _json_text({"valid": True, "elements": x.size,
                       "orbits": len(x.orbits())})


def _cmd_gset_orbits(args):
    g = _groupoid_from_args(args)
    x = _gset_from_args(args, g, args.gset)
    orbits = [[x.element_labels[e] for e in orbit] for orbit in x.orbits()]
    return _json_text({"count": len(orbits), "orbits": orbits})


def _cmd_gset_decompose(args):
    g = _groupoid_from_args(args)
    x = _gset_from_args(args, g, args.gset)
    reps = subconj.enumerate_reps(g, cap=args.subgroup_cap)
    dec = gset.decompose(x, reps)
    return _json_text({
        "classes": [subconj.rep_label(g, r) for r in reps],
        "coefficients": list(dec.coefficients),
        "orbit_representatives": [x.element_labels[e]
                                  for e in dec.orbit_representatives]})


def _cmd_gset_isomorphic(args):
    g = _groupoid_from_args(args)
    x = _gset_from_args(args, g, args.first)
    y = _gset_from_args(args, g, args.second)
    ok, evidence = gset.isomorphic(x, y, cap=args.subgroup_cap)
    if ok:
        return _json_text({"isomorphic": True, "witness": evidence.to_json()})
    return _json_text({
        "isomorphic": False,
        "certificate": {
            "base": g.object_labels[evidence.base],
            "arrows": [g.arrow_labels[p] for p in evidence.arrows],
            "fixed_points": [len(gset.fixed_points(x, evidence)),
                             len(gset.fixed_points(y, evidence))]}})


def _cmd_gset_fixed(args):
    g = _groupoid_from_args(args)
    x = _gset_from_args(args, g, args.gset)
    sub = core.subgroupoid_from_json(g, _read_json(args.sub))
    fixed = gset.fixed_points(x, sub)
    return _json_text({"count": len(fixed),
                       "fixed": [x.element_labels[e] for e in fixed]})


# -- demos and fixtures ----------------------------------------------------

def _cmd_grothendieck_demo(args):
    rng = Random(args.seed)
    ints = burnside_mod.GrothendieckRing(lambda a, b: a + b,
                                         lambda a, b: a * b, 0,
                                         cancellative=True)
    tested = 0
    for _ in range(100):
        a, b, c, d = (rng.randrange(50) for _ in range(4))
        p, q = ints.pair(a, b), ints.pair(c, d)
        if not (ints.eq(ints.add(p, q), ints.pair(a + c, b + d))
                and ints.eq(ints.mul(p, q),
                            ints.pair(a * c + b * d, a * d + b * c))
                and ints.eq(p, q) == ((a - b) == (c - d))):
            raise GroupoidError("difference pairs disagree with the integers",
                                pairs=[[a, b], [c, d]])
        tested += 1
    def pairadd(u, v):
        return (u[0] + v[0], u[1] + v[1])

    def pairmul(u, v):
        return (u[0] * v[0], u[1] * v[1])

    prod = burnside_mod.GrothendieckRing(pairadd, pairmul, (0, 0),
                                         cancellative=True)
    product_ok = True
    for _ in range(50):
        a1, a2, b1, b2 = (rng.randrange(20) for _ in range(4))
        c1, c2, d1, d2 = (rng.randrange(20) for _ in range(4))
        p = prod.pair((a1, a2), (b1, b2))
        q = prod.pair((c1, c2), (d1, d2))
        left = prod.eq(p, q)
        right = (ints.eq(ints.pair(a1, b1), ints.pair(c1, d1))
                 and ints.eq(ints.pair(a2, b2), ints.pair(c2, d2)))
        product_ok = product_ok and (left == right)
    bring, one_pair, zero_pair = burnside_mod.boolean_rig_demo()
    return _json_text({
        "integers": {"pairs_tested": tested, "ok": True},
        "product_of_two_factors": {"componentwise_equality": product_ok},
        "boolean_rig": {"cancellative": False,
                        "completion_collapses": bring.eq(one_pair, zero_pair)},
    })


def _cmd_fuzz(args):
    rng = Random(args.seed)
    out = []
    for _ in range(args.count):
        spec, g = generate.random_groupoid(rng)
        entry = {"spec": spec, "groupoid": g.to_json()}
        if args.kind == "gset":
            reps = subconj.enumerate_reps(g)
            entry["gset"] = generate.random_gset(rng, g, reps).to_json()
        out.append(entry)
    return _json_text({"seed": args.seed, "kind": args.kind, "fixtures": out})


# -- parser ----------------------------------------------------------------

def _add_common(p, groupoid_positional=True):
    if groupoid_positional:
        p.add_argument("input", nargs="?", default=None,
                       help="groupoid JSON file")
    else:
        p.add_argument("--groupoid", default=None, metavar="PATH",
                       help="groupoid JSON file")
    p.add_argument("--gen", default=None, metavar="SPEC",
                   help="generator spec, e.g. trg:S3:2 or coprod:pair:2,trg:C4:1")
    p.add_argument("--stdio", action="store_true",
                   help="read the groupoid as JSON from stdin")
    p.add_argument("--output", "-o", default=None, metavar="PATH")
    p.add_argument("--format", choices=("csv", "json", "pretty"), default=None)
    p.add_argument("--subgroup-cap", type=int, default=subconj.DEFAULT_ISOTROPY_CAP)


@functools.cache  # one tree per process: parse_args keeps no per-call state
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groupoids",
        description="exact computations with finite groupoids, their "
                    "G-sets, tables of marks, and Burnside rings")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn in (("validate", _cmd_validate),
                     ("components", _cmd_components),
                     ("isotropy", _cmd_isotropy),
                     ("subgroupoids", _cmd_subgroupoids),
                     ("marks", _cmd_marks),
                     ("ring", _cmd_ring),
                     ("decompose-ring", _cmd_decompose_ring),
                     ("idempotents", _cmd_idempotents)):
        p = sub.add_parser(name)
        _add_common(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("conjugate",
                       help="decide conjugacy of two subgroupoids")
    p.add_argument("first", help="subgroupoid JSON file")
    p.add_argument("second", help="subgroupoid JSON file")
    _add_common(p, groupoid_positional=False)
    p.add_argument("--search-budget", type=int,
                   default=subconj.DEFAULT_SEARCH_BUDGET)
    p.set_defaults(func=_cmd_conjugate)

    p = sub.add_parser("ghost")
    _add_common(p)
    p.add_argument("--apply", default=None, metavar="PATH",
                   help="JSON coefficient vector to push through the ghost map")
    p.set_defaults(func=_cmd_ghost)

    pg = sub.add_parser("gset", help="right G-set operations")
    gsub = pg.add_subparsers(dest="gset_command", required=True)
    for name, fn, paths in (("validate", _cmd_gset_validate, ("gset",)),
                            ("orbits", _cmd_gset_orbits, ("gset",)),
                            ("decompose", _cmd_gset_decompose, ("gset",)),
                            ("isomorphic", _cmd_gset_isomorphic,
                             ("first", "second")),
                            ("fixed", _cmd_gset_fixed, ("gset", "sub"))):
        p = gsub.add_parser(name)
        for path in paths:
            p.add_argument(path, help="%s JSON file" % path)
        _add_common(p, groupoid_positional=False)
        p.set_defaults(func=fn)

    p = sub.add_parser("grothendieck-demo",
                       help="difference completion sanity checks")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=_cmd_grothendieck_demo)

    p = sub.add_parser("fuzz", help="emit seeded random fixtures")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--kind", choices=("groupoid", "gset"), default="groupoid")
    p.add_argument("--output", "-o", default=None)
    p.set_defaults(func=_cmd_fuzz)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as ex:
        return 2 if ex.code else 0
    try:
        _emit(args, args.func(args))
    except _UsageError as ex:
        print("usage error: %s" % ex, file=sys.stderr)
        return 2
    except GroupoidError as ex:
        sys.stdout.write(_json_text(ex.record()))
        return 1
    return 0


def main():
    raise SystemExit(run())


if __name__ == "__main__":
    main()
