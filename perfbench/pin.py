"""Pin the sha256 digests of every pool job's output into refs.json.

    python3 perfbench/pin.py

Run once at the commit whose outputs are the reference. Each job must
also pass the benchmark's independent checks, or nothing is written.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import inputs
import jobs
import run


def main():
    sys.path.insert(0, run.SRC)
    api = run.fresh_import()
    refs = {}
    os.makedirs(run.OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="pin-", dir=run.OUT)
    try:
        for workload in run.WORKLOADS:
            sub = os.path.join(workdir, workload)
            os.mkdir(sub)
            refs[workload] = {}
            for entry in inputs.build(workload, sub):
                out = jobs.run_job(api, entry, run.no_stage)
                jobs.check_independent(entry, out)
                refs[workload][entry["key"]] = jobs.digest(entry, out)
            print("%s: %d jobs pinned" % (workload, len(refs[workload])))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.HERE, "refs.json"), "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
