"""Groupoid generator specs and seeded random fixtures.

A generator spec is a compact string naming a reproducible groupoid:

    trg:<group>:<n>        group made object-inhomogeneous over n objects
    pair:<n>               pair groupoid on n objects
    coprod:<spec>,<spec>   flat disjoint union of non-coprod specs
    action:<group>:<n>:<table-file>
                           action groupoid from a JSON action table

Group names come from the built-in catalog (C1..C24, C2xC2, S3, D4, Q8);
anything else is treated as a path to a JSON Cayley table. Random fixtures
(groupoids, G-sets, ring elements) are driven by random.Random so a seed
pins every byte of the output.
"""

from __future__ import annotations

import json
from random import Random

from . import core
from .core import FiniteGroupoid
from .errors import MalformedInput
from .groups import Group, named
from .gset import RightGSet, coset_gset, disjoint_union, empty_gset

CATALOG = tuple(["C%d" % k for k in range(1, 25)] + ["C2xC2", "S3", "D4", "Q8"])


def group_from_spec(token: str) -> Group:
    try:
        return named(token)
    except MalformedInput:
        pass
    data = _load(token, "unknown group name and unreadable table file",
                 token=token)
    if isinstance(data, dict):
        names = data.get("names")
        if names is not None and not isinstance(names, list):
            raise MalformedInput("group names must be a list", token=token)
        return Group(_int_rows(data.get("table"), token=token), names=names,
                     name=data.get("name", token))
    return Group(_int_rows(data, token=token), name=token)


def _load(file, message, **where):
    """JSON of a table file; an unreadable or invalid file is MalformedInput."""
    try:
        with open(file) as fh:
            return json.load(fh)
    except OSError as ex:
        raise MalformedInput(message, **where, reason=str(ex)) from None
    except ValueError as ex:  # JSONDecodeError, UnicodeDecodeError
        raise MalformedInput("not valid JSON", **where, reason=str(ex)) from None


def _int_rows(rows, **where):
    """rows if it is a list of lists of ints (not bools), else MalformedInput."""
    if not (isinstance(rows, list) and all(
            isinstance(row, list) and all(type(v) is int for v in row)
            for row in rows)):
        raise MalformedInput("table must be a list of integer rows", **where)
    return rows


def from_spec(spec: str) -> FiniteGroupoid:
    head, _, rest = spec.partition(":")
    if head == "pair":
        return core.pair_groupoid(_positive_int(rest, spec))
    if head == "trg":
        token, _, n = rest.rpartition(":")
        if not token:
            raise MalformedInput("trg spec needs a group and a size", spec=spec)
        return core.trg(group_from_spec(token), _positive_int(n, spec))
    if head == "coprod":
        parts = [p for p in rest.split(",") if p]
        if len(parts) < 2:
            raise MalformedInput("coprod needs at least two parts", spec=spec)
        if any(p.startswith("coprod:") for p in parts):
            raise MalformedInput("coprod specs do not nest", spec=spec)
        return core.coproduct([from_spec(p) for p in parts])
    if head == "action":
        fields = rest.split(":", 2)
        if len(fields) != 3:
            raise MalformedInput("action spec is action:<group>:<n>:<file>",
                                 spec=spec)
        token, n, path = fields
        table = _int_rows(_load(path, "unreadable action table file",
                                path=path), path=path)
        return core.action_groupoid(group_from_spec(token),
                                    _positive_int(n, spec), table)
    raise MalformedInput("unknown generator spec", spec=spec)


def _positive_int(text, spec):
    try:
        value = int(text)
    except ValueError:
        raise MalformedInput("size must be an integer", spec=spec) from None
    if value < 0:
        raise MalformedInput("size must be nonnegative", spec=spec)
    return value


# -- random fixtures -------------------------------------------------------

def random_groupoid_spec(rng: Random, max_arrows=200, max_isotropy=12) -> str:
    """A random spec whose groupoid stays inside the given size bounds."""
    groups = [name for name in CATALOG
              if len(named(name)) <= max_isotropy]
    parts = []
    budget = max_arrows
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.25:
            n = rng.randint(1, 4)
            cost = n * n
            part = "pair:%d" % n
        else:
            name = rng.choice(groups)
            order = len(named(name))
            top = max(1, min(3, int((budget / order) ** 0.5)))
            n = rng.randint(1, top)
            cost = order * n * n
            part = "trg:%s:%d" % (name, n)
        if cost > budget and parts:
            break
        if cost > budget:
            part, cost = "pair:1", 1
        parts.append(part)
        budget -= cost
    if len(parts) == 1:
        return parts[0]
    return "coprod:" + ",".join(parts)


def random_groupoid(rng: Random, max_arrows=200, max_isotropy=12):
    spec = random_groupoid_spec(rng, max_arrows, max_isotropy)
    return spec, from_spec(spec)


def random_gset(rng: Random, g: FiniteGroupoid, reps, max_orbits=3,
                max_carrier=12) -> RightGSet:
    """Disjoint union of random cosets with the carrier order scrambled.

    Every finite right G-set is isomorphic to such a union, so sampling
    coefficient vectors and hiding the construction behind a permutation
    covers the whole isomorphism class space.
    """
    out = empty_gset(g)
    cosets = {}
    for _ in range(rng.randint(0, max_orbits)):
        i = rng.randrange(len(reps))
        if i not in cosets:
            cosets[i] = coset_gset(g, reps[i])
        if out.size + cosets[i].size > max_carrier:
            continue
        out = disjoint_union(out, cosets[i])
    return shuffle_gset(rng, out)


def shuffle_gset(rng: Random, x: RightGSet) -> RightGSet:
    """An isomorphic copy on a permuted carrier with opaque labels."""
    perm = list(range(x.size))
    rng.shuffle(perm)
    sigma = [0] * x.size
    for old, new in enumerate(perm):
        sigma[new] = x.sigma[old]
    action = {(perm[e], p): perm[v] for (e, p), v in x.action.items()}
    labels = ["x%d" % i for i in range(x.size)]
    return RightGSet(x.groupoid, sigma, action, element_labels=labels,
                     check=False)


def random_element_coeffs(rng: Random, rank, lo=-4, hi=4):
    return tuple(rng.randint(lo, hi) for _ in range(rank))
