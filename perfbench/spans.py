"""Span tracing for the traced run, installed from outside the package.

`Tracer.install` wraps each public function of the layers below at every
binding site in the loaded `groupoids` modules (names imported into other
modules included), so a call through any route records a span. Each span
keeps its name, start, end, parent span and job id; self time is the
span's duration minus the time its child spans cover. Calls, inclusive
and self time and a per-call size are also summed per name as spans close,
so the reduction does not need every span in memory; the first MAX_SPANS
spans are kept for writing out.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

MAX_SPANS = 200_000
STAGES = ("load", "reps", "marks", "ring", "split", "idempotents", "verify")


def _size(x):
    return x.size


def _hit(result):
    return 1 if result[0] else 0


def _nonzero(code):
    return 1 if code else 0


# (module, attribute, span name, per-call measure of the result)
TARGETS = [
    ("core", "validate", "core.validate", lambda g: g.n_arrows),
    ("generate", "from_spec", "generate.from_spec", None),
    ("groups", "Group.__init__", "groups.Group", None),
    ("subconj", "enumerate_reps", "subconj.enumerate_reps", None),
    ("subconj", "enumerate_subgroups", "subconj.enumerate_subgroups", len),
    ("subconj", "mark_table", "subconj.mark_table", None),
    ("subconj", "conjugacy_class_index", "subconj.conjugacy_class_index", None),
    ("subconj", "conjugated_isotropy_subgroups",
     "subconj.conjugated_isotropy_subgroups", _hit),
    ("subconj", "conjugally_equivalent", "subconj.conjugally_equivalent", None),
    ("gset", "coset_gset", "gset.coset_gset", _size),
    ("gset", "fixed_points", "gset.fixed_points", None),
    ("gset", "fibered_product", "gset.fibered_product", _size),
    ("gset", "decompose", "gset.decompose", None),
    ("gset", "isomorphic", "gset.isomorphic", None),
    ("gset", "validate_gset", "gset.validate_gset", None),
    ("burnside", "BurnsideRing.__init__", "burnside.BurnsideRing", None),
    ("burnside", "BurnsideRing.structure_constants",
     "burnside.structure_constants", None),
    ("burnside", "BurnsideRing.mul", "burnside.mul", None),
    ("burnside", "product_decomposition", "burnside.product_decomposition", None),
    ("ghost", "primitive_idempotents", "ghost.primitive_idempotents", None),
    ("ghost", "solve_lower_triangular", "ghost.solve_lower_triangular", None),
    ("ghost", "verify_idempotents", "ghost.verify_idempotents", None),
    ("cli", "run", "cli.run", _nonzero),
]


# targets whose call count is a per-layer metric
COUNTED = {"core.validate", "generate.from_spec", "subconj.enumerate_reps",
           "subconj.conjugacy_class_index", "subconj.conjugated_isotropy_subgroups",
           "subconj.conjugally_equivalent", "gset.fixed_points", "gset.decompose",
           "gset.isomorphic", "gset.validate_gset", "burnside.structure_constants",
           "burnside.mul", "burnside.product_decomposition",
           "ghost.solve_lower_triangular", "cli.run"}


class _Span:
    def __init__(self, tracer, name):
        self.tracer, self.nid = tracer, tracer.name_id(name)

    def __enter__(self):
        self.tracer.open(self.nid)

    def __exit__(self, *exc):
        self.tracer.close(0)


class Tracer:
    def __init__(self):
        self.names, self._ids = [], {}
        self.calls, self.incl, self.own, self.measure = [], [], [], []
        self.edges = Counter()   # (name id, parent name id) -> calls
        self.counters = Counter()
        self.stack = []          # [name id, span index, child time, start]
        self.spans = []          # (name id, start, end, parent index, job)
        self.job = -1
        self.job_self = []       # per job: sum of self times of its spans
        self._restore = []

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            for col in (self.calls, self.incl, self.own, self.measure):
                col.append(0)
        return self._ids[name]

    def open(self, nid):
        idx = len(self.spans)
        if idx < MAX_SPANS:
            self.spans.append(None)
        else:
            idx = -1
        self.stack.append([nid, idx, 0.0, perf_counter()])

    def close(self, measured):
        end = perf_counter()
        nid, idx, child, start = self.stack.pop()
        dur = end - start
        own = dur - child
        self.calls[nid] += 1
        self.incl[nid] += dur
        self.own[nid] += own
        self.measure[nid] += measured
        self.job_self[self.job] += own
        if self.stack:
            parent = self.stack[-1]
            parent[2] += dur
            self.edges[(nid, parent[0])] += 1
        if idx >= 0:
            self.spans[idx] = (nid, start, end,
                               self.stack[-1][1] if self.stack else -1, self.job)

    def span(self, name):
        return _Span(self, name)

    def job_span(self):
        self.job += 1
        self.job_self.append(0.0)
        return self.span("job")

    def wrap(self, name, fn, measure):
        nid = self.name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(0)
                raise
            tracer.close(measure(result) if measure else 0)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every target at each of its bindings in groupoids.*."""
        mods = [m for name, m in sys.modules.items()
                if name == "groupoids" or name.startswith("groupoids.")]
        for mod, attr, name, measure in TARGETS:
            owner = sys.modules["groupoids." + mod]
            if "." in attr:
                cls, attr = attr.split(".")
                owner = getattr(owner, cls)
                fn = owner.__dict__[attr]
                self._rebind(owner, attr, fn, self.wrap(name, fn, measure))
                continue
            fn = getattr(owner, attr)
            wrapper = self.wrap(name, fn, measure)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        self._rebind(m, key, fn, wrapper)

    def _rebind(self, owner, attr, fn, wrapper):
        self._restore.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("span,name,start,end,parent,job\n")
            for i, (nid, start, end, parent, job) in enumerate(self.spans):
                fh.write("%d,%s,%.9f,%.9f,%d,%d\n"
                         % (i, self.names[nid], start, end, parent, job))

    # -- reduction to per-layer metrics -------------------------------------

    def metrics(self, jobs):
        """Per-layer metrics; counts and times are per job."""
        jobs = max(jobs, 1)

        def get(name, col):
            nid = self._ids.get(name)
            return 0 if nid is None else col[nid]

        out = {}
        for stage in STAGES:
            out["stage.%s.s" % stage] = (get("stage." + stage, self.incl) / jobs,
                                         "s/job")
        for _, _, name, _ in TARGETS:
            out[name + ".self_s"] = (get(name, self.own) / jobs, "s/job")
            if name in COUNTED:
                out[name + ".calls"] = (get(name, self.calls) / jobs, "calls/job")
        out["subconj.mark_table.calls_per_job"] = (
            get("subconj.mark_table", self.calls) / jobs, "calls/job")
        out["core.arrows"] = (get("core.validate", self.measure) / jobs,
                              "arrows/job")
        out["subconj.enumerate_subgroups.subgroups"] = (
            get("subconj.enumerate_subgroups", self.measure) / jobs,
            "subgroups/job")
        cis = "subconj.conjugated_isotropy_subgroups"
        out[cis + ".hit_ratio"] = (
            get(cis, self.measure) / max(get(cis, self.calls), 1), "ratio")
        for name in ("gset.coset_gset", "gset.fibered_product"):
            out[name + ".elements"] = (get(name, self.measure) / jobs,
                                       "elements/job")
        sc = "burnside.structure_constants"
        misses = self.edges[(self._ids.get("gset.fibered_product"),
                             self._ids.get(sc))]
        out[sc + ".miss_ratio"] = (misses / max(get(sc, self.calls), 1), "ratio")
        out["cli.run.exit_nonzero"] = (get("cli.run", self.measure) / jobs,
                                       "calls/job")
        out["cli.run.output_bytes"] = (self.counters["cli.run.output_bytes"]
                                       / jobs, "B/job")
        return out
