"""Benchmark runner for the groupoids package.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 20 --trace 0

Single process, single thread, closed loop with one client: the next job
starts when the previous one has finished and been checked. The workload's
jobs are drawn from a fixed pool in an order picked by --seed (see
inputs.py) until --seconds of job time have been spent and the current
cycle through the pool is complete. Every job's output
is checked outside the timed region (see jobs.py). The last line of stdout
is one JSON object; with --trace 0 it carries the end-to-end metrics, with
--trace 1 the per-layer metrics of a separate traced run (see spans.py).
Run from the root of a checkout: the package is imported from ./src.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
from collections import namedtuple
from contextlib import nullcontext
from time import perf_counter
from types import SimpleNamespace

import inputs
import jobs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("wide", "deep", "split", "queries")
MODULES = ("core", "groups", "generate", "subconj", "gset", "burnside",
           "ghost", "cli")
# set-up repeats: at least this many, and until this much time is spent
SETUP_REPEATS = 5
SETUP_SECONDS = 1.5
NO_SPAN = nullcontext()
Record = namedtuple("Record", "entry wall calibrated problem")
# nominal probe time: calibrated seconds are seconds on a machine where the
# probe takes this long (its usual time on the 2.1 GHz Xeon VM in README.md)
PROBE_REFERENCE_S = 0.001


def no_stage(_name):
    return NO_SPAN


def fresh_import():
    """Import the package as a new process would, dropping earlier copies."""
    for name in [n for n in sys.modules
                 if n == "groupoids" or n.startswith("groupoids.")]:
        del sys.modules[name]
    importlib.import_module("groupoids")
    return SimpleNamespace(**{m: importlib.import_module("groupoids." + m)
                              for m in MODULES})


def setup(workload, workdir):
    """Package import, workload inputs and references; the part setup_s times."""
    api = fresh_import()
    pool = inputs.build(workload, workdir)
    with open(os.path.join(HERE, "refs.json")) as fh:
        refs = json.load(fh)[workload]
    return api, pool, refs


def probe():
    """Time a fixed piece of pure-Python work, with the collector held off.

    The work (dict, tuple and frozenset churn) resembles the package's, so
    its time tracks how fast the host runs such code at the moment.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    table = {}
    for i in range(40):
        for j in range(40):
            table[(i, j)] = (i * j + 7) % 40
    acc = 0
    for i in range(40):
        acc += len(frozenset(table[(i, j)] for j in range(40)))
        acc += sum(sorted(table[(j, i)] for j in range(40))[:3])
    elapsed = perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def run_jobs(api, blocks, check, seconds, tracer=None):
    """Closed loop over blocks of jobs until `seconds` of job time have passed.

    The last block started is finished. `check(entry, output)` raises
    jobs.CheckFailed on a wrong output. Each job is bracketed by probes;
    its calibrated time is its wall time times PROBE_REFERENCE_S over the
    mean of the two probe times, which takes out most of the drift in the
    host's speed. Returns one Record per job; `problem` is None when
    the job's output is correct.
    """
    stage = tracer.span if tracer else no_stage
    records, busy = [], 0.0
    before = probe()
    for block in blocks:
        if busy >= seconds:
            break
        for entry in block:
            problem = None
            root = tracer.job_span() if tracer else NO_SPAN
            t0 = perf_counter()
            try:
                with root:
                    out = jobs.run_job(api, entry, stage)
            except Exception as ex:  # a failed job is recorded, the run goes on
                out, problem = None, "%s: %s" % (type(ex).__name__, ex)
            wall = perf_counter() - t0
            after = probe()
            calibrated = wall * 2 * PROBE_REFERENCE_S / (before + after)
            before = after
            busy += wall
            if out is not None:
                try:
                    check(entry, out)
                except jobs.CheckFailed as ex:
                    problem = "check: %s" % ex
                if tracer and entry["kind"] == "query":
                    tracer.counters["cli.run.output_bytes"] += len(
                        out["stdout"].encode())
            records.append(Record(entry, wall, calibrated, problem))
    return records


def refs_check(refs):
    return lambda entry, out: jobs.check(entry, out, refs)


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summary(records):
    """Job counts and time metrics of a run.

    A pool entry's job time is the median of its runs, which damps bursts
    of machine noise; a failed run makes it +inf. jobs_per_s is the number
    of jobs of entries that never failed over the summed median times, i.e.
    jobs per second of a typical cycle; the percentiles are over the
    per-entry median times, each entry counted as often as it runs per
    cycle.
    """
    walls = {}
    for r in records:
        walls.setdefault(r.entry["key"], []).append(r)
    medians, cycle = [], 0.0
    for runs in walls.values():
        median = statistics.median(r.calibrated for r in runs)
        copies = runs[0].entry.get("copies", 1)
        cycle += copies * median
        failed = any(r.problem for r in runs)
        medians += [math.inf if failed else median] * copies
    ok = sum(1 for m in medians if math.isfinite(m))
    return {"jobs": len(records), "entries": len(medians), "ok": ok,
            "busy": sum(r.wall for r in records),
            "ok_jobs": sum(1 for r in records if r.problem is None),
            "jobs_per_s": ok / cycle if cycle else 0.0,
            "p50": statistics.median(medians), "p90": nearest_rank(medians, 0.9)}


def finite(x):
    # a p90 that lands on a failed job is +inf; JSON has no infinity
    return x if math.isfinite(x) else 1e9


def report(records, metrics, notes):
    failed = [(r.entry["key"], r.problem) for r in records if r.problem]
    for line in notes:
        print(line)
    for key, problem in failed[:20]:
        print("FAILED %s: %s" % (key, problem))
    for name, (value, unit) in metrics.items():
        print("%-48s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": not failed and bool(records),
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }, allow_nan=False))


def end_to_end(workload, seed, seconds, setup_times, api, pool, refs):
    records = run_jobs(api, inputs.schedule(pool, seed), refs_check(refs),
                       seconds)
    s = summary(records)
    metrics = {
        "jobs_per_s": (s["jobs_per_s"], "1/s"),
        "job_s.p50": (finite(s["p50"]), "s"),
        "job_s.p90": (finite(s["p90"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }
    notes = ["workload %s seed %d: %d jobs in %.2f s of job time, %d cycles "
             "of %d jobs; percentiles over %d entry medians (%d beyond p90)"
             % (workload, seed, s["jobs"], s["busy"], s["jobs"] // s["entries"],
                s["entries"], s["entries"],
                s["entries"] - math.ceil(0.9 * s["entries"]))]
    report(records, metrics, notes)


def traced(workload, seed, seconds, api, pool, refs, workdir):
    """Traced pass, then the same jobs untraced for the overhead ratio."""
    tracer = spans.Tracer()
    tracer.install()
    try:
        records = run_jobs(api, inputs.schedule(pool, seed), refs_check(refs),
                           seconds, tracer)
    finally:
        tracer.uninstall()
    replay = run_jobs(api, [[r.entry for r in records]], refs_check(refs),
                      math.inf)
    t, u = summary(records), summary(replay)
    metrics = tracer.metrics(len(records))
    metrics["trace.overhead_ratio"] = (
        t["jobs_per_s"] / u["jobs_per_s"] if u["jobs_per_s"] else 0.0, "ratio")
    metrics["trace.job_s"] = (t["busy"] / max(t["jobs"], 1), "s/job")
    metrics["failed_ratio"] = ((t["jobs"] - t["ok_jobs"]) / max(t["jobs"], 1),
                               "ratio")
    probe_failed = 0
    if workload == "deep":
        # no pinned digest: at this commit these jobs raise
        cap_probe = run_jobs(api, [inputs.probe_pool(workdir)],
                             jobs.check_pipeline, math.inf)
        probe_failed = sum(1 for r in cap_probe if r.problem)
    metrics["cap_defect.failed_jobs"] = (probe_failed, "jobs")
    over = sum(1 for own, r in zip(tracer.job_self, records) if own > r.wall)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "spans-%s-%d.csv" % (workload, seed))
    tracer.write(path)
    notes = ["traced %s seed %d: %d jobs, %d spans kept of %d, written to %s"
             % (workload, seed, len(records), len(tracer.spans),
                sum(tracer.calls), os.path.relpath(path)),
             "jobs whose self times exceed their wall time: %d" % over]
    report(records + [r for r in replay if r.problem],
           metrics, notes)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "groupoids", "__init__.py")):
        print("no package source at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        setup_times, spent, before = [], 0.0, probe()
        while len(setup_times) < SETUP_REPEATS or spent < SETUP_SECONDS:
            sub = os.path.join(workdir, str(len(setup_times)))
            os.mkdir(sub)
            t0 = perf_counter()
            api, pool, refs = setup(args.workload, sub)
            wall = perf_counter() - t0
            after = probe()
            setup_times.append(wall * 2 * PROBE_REFERENCE_S / (before + after))
            spent, before = spent + wall, after
        if args.trace:
            traced(args.workload, args.seed, args.seconds, api, pool, refs, sub)
        else:
            end_to_end(args.workload, args.seed, args.seconds, setup_times,
                       api, pool, refs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
