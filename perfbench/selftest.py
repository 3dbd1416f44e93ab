"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

- every wrapped function records calls on its heavy workload;
- the predictions of the metric table: a function's self time should be a
  larger share of job time on its heavy workloads than on its light ones.
  A prediction the data does not bear out prints MISS and does not fail
  the self-test; it is a finding about the program, listed in README.md;
- per-job self times sum to no more than the job's wall time;
- one flipped mark-table entry, or one flipped output byte, fails the job,
  and the checks that do not use digests catch a broken output on their own;
- the same seed gives the same job list and the same digests.

The traced runs are subprocesses, one fresh process per workload, like the
benchmark's own runs.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile

import inputs
import jobs
import run
import spans

# function -> (heavy workloads, light workloads), from the metric table
LAYERS = {
    "core.validate": (["wide", "queries"], ["deep", "split"]),
    "generate.from_spec": (["split", "deep"], ["wide"]),
    "groups.Group": (["split", "deep"], ["wide"]),
    "subconj.enumerate_reps": (["deep"], ["wide", "split"]),
    "subconj.enumerate_subgroups": (["deep"], ["wide", "split"]),
    "subconj.mark_table": (["split", "deep"], ["queries"]),
    "subconj.conjugacy_class_index": (["split", "wide"], ["queries"]),
    "subconj.conjugated_isotropy_subgroups": (["split", "wide"], ["queries"]),
    "subconj.conjugally_equivalent": (["queries"], ["wide", "deep", "split"]),
    "gset.coset_gset": (["wide"], ["deep"]),
    "gset.fixed_points": (["wide"], ["deep"]),
    "gset.fibered_product": (["wide", "deep"], ["queries"]),
    "gset.decompose": (["wide", "deep"], ["queries"]),
    "gset.isomorphic": (["queries"], ["wide", "deep", "split"]),
    "gset.validate_gset": (["queries"], ["wide", "deep", "split"]),
    "burnside.BurnsideRing": (["wide", "deep"], ["queries"]),
    "burnside.structure_constants": (["wide", "deep"], ["queries"]),
    "burnside.mul": (["split", "deep"], ["wide", "queries"]),
    "burnside.product_decomposition": (["split", "deep"], ["wide", "queries"]),
    "ghost.primitive_idempotents": (["split", "deep"], ["wide", "queries"]),
    "ghost.solve_lower_triangular": (["split", "deep"], ["wide", "queries"]),
    "ghost.verify_idempotents": (["split", "deep"], ["wide", "queries"]),
    "cli.run": (["queries"], ["wide", "deep", "split"]),
}

TRACE_SECONDS = 3  # job time of each traced run
FAILURES = []
MISSES = []


def expect(ok, what):
    print("%s %s" % ("PASS" if ok else "FAIL", what))
    if not ok:
        FAILURES.append(what)


def predict(ok, what):
    print("%s %s" % ("HOLD" if ok else "MISS", what))
    if not ok:
        MISSES.append(what)


def traced_metrics(workload):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"),
         "--workload", workload, "--seed", "0",
         "--seconds", str(TRACE_SECONDS), "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.splitlines()
    expect(any(line == "jobs whose self times exceed their wall time: 0"
               for line in lines),
           "%s: per-job self times sum to no more than job wall time" % workload)
    result = json.loads(lines[-1])
    expect(result["correct"] and result["failed"] == 0,
           "%s: traced run has no failed job" % workload)
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_layers():
    per = {w: traced_metrics(w) for w in run.WORKLOADS}
    names = [m["name"] for m in json.load(
        open(os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")))["per_layer"]]
    for w, metrics in per.items():
        expect(sorted(metrics) == sorted(names),
               "%s: traced run reports exactly the per-layer metrics" % w)
    for name, (heavy, light) in LAYERS.items():
        share = {w: per[w][name + ".self_s"] / per[w]["trace.job_s"]
                 for w in run.WORKLOADS}
        for w in heavy:
            expect(per[w][name + ".self_s"] > 0,
                   "%s records calls on heavy workload %s" % (name, w))
            for lw in light:
                predict(share[w] > share[lw],
                       "%s: share %.4f on %s > %.4f on %s"
                       % (name, share[w], w, share[lw], lw))


def in_process(workload, workdir):
    os.makedirs(workdir)
    if run.SRC not in sys.path:
        sys.path.insert(0, run.SRC)
    return run.setup(workload, workdir)


def test_self_time_sums(workdir):
    api, pool, refs = in_process("split", workdir)
    tracer = spans.Tracer()
    tracer.install()
    try:
        records = run.run_jobs(api, [pool[:4]], run.refs_check(refs), 1e9, tracer)
    finally:
        tracer.uninstall()
    expect(all(own <= r.wall for own, r in zip(tracer.job_self, records)),
           "in-process: per-job self times sum to no more than job wall time")


def test_mutations(workdir):
    api, pool, refs = in_process("split", workdir)
    real = api.subconj.mark_table

    def flipped(*args, **kwargs):
        table = real(*args, **kwargs)
        rows = [list(r) for r in table.matrix]
        rows[-1][0] += 1
        return dataclasses.replace(table, matrix=tuple(map(tuple, rows)))

    api.subconj.mark_table = flipped
    try:
        records = run.run_jobs(api, [pool[:3]], run.refs_check(refs), 1e9)
    finally:
        api.subconj.mark_table = real
    expect(all(r.problem for r in records),
           "one flipped mark-table entry fails every job")

    api, pool, refs = in_process("queries", workdir + "q")
    real_query = jobs.query

    def flip_byte(*args):
        out = real_query(*args)
        text = out["stdout"]
        return dict(out, stdout=chr(ord(text[0]) ^ 1) + text[1:])

    jobs.query = flip_byte
    try:
        records = run.run_jobs(api, [pool[:5]], run.refs_check(refs), 1e9)
    finally:
        jobs.query = real_query
    expect(all(r.problem for r in records),
           "one flipped output byte fails every job")


def raises_check_failed(fn, *args):
    try:
        fn(*args)
    except jobs.CheckFailed:
        return True
    return False


def test_independent_checks(workdir):
    """The checks that do not use digests catch a broken output too."""
    api, pool, _ = in_process("split", workdir)
    entry = pool[0]
    out = jobs.run_job(api, entry, run.no_stage)
    expect(not raises_check_failed(jobs.check_pipeline, entry, out),
           "independent pipeline checks pass on a correct output")
    out["marks"]["matrix"][-1][0] += 1
    expect(raises_check_failed(jobs.check_pipeline, entry, out),
           "independent pipeline checks catch a flipped mark-table entry")

    api, pool, _ = in_process("queries", workdir + "q")
    entry = next(e for e in pool if e["expect"].get("isomorphic"))
    out = jobs.run_job(api, entry, run.no_stage)
    result = json.loads(out["stdout"])
    witness = result["witness"]
    a, b = sorted(witness)[:2]
    witness[a], witness[b] = witness[b], witness[a]
    broken = dict(out, stdout=json.dumps(result))
    expect(raises_check_failed(jobs.check_query, entry, broken),
           "independent query checks catch a broken isomorphism witness")


def test_determinism(workdir):
    api, pool, refs = in_process("split", workdir)

    def keys(seed, blocks=3):
        sched = inputs.schedule(pool, seed)
        return [e["key"] for _ in range(blocks) for e in next(sched)]

    expect(keys(3) == keys(3), "same seed, same job list")
    expect(keys(3) != keys(4), "another seed, another job list")
    digests = [[jobs.digest(e, jobs.run_job(api, e, run.no_stage))
                for e in pool[:3]] for _ in range(2)]
    expect(digests[0] == digests[1] == [refs[e["key"]] for e in pool[:3]],
           "repeated jobs give the pinned digests")


def main():
    os.makedirs(run.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        test_self_time_sums(os.path.join(workdir, "a"))
        test_mutations(os.path.join(workdir, "b"))
        test_determinism(os.path.join(workdir, "c"))
        test_independent_checks(os.path.join(workdir, "d"))
        test_layers()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("%d failed, %d predictions not borne out" % (len(FAILURES),
                                                      len(MISSES)))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
