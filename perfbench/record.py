"""Regenerate `expected.json` from the current program.

Stores, for every call of every workload, the exit code, verdict and
record count (the same on every seed), and for each of the seeds 0-9 the
sha256 of the report without `timing` and, for builds, of `structure`.
Digests are keyed by the sha256 of the instance file, so instances that
do not depend on the seed are run once.

    python3 perfbench/record.py

Run it only on a commit whose reports are known to be right: the
benchmark then counts every later difference as a failed call.
"""

from __future__ import annotations

import json
import math
import shutil
import tempfile
import time

import worker
from workloads import WORKLOADS


SEEDS = range(10)  # the seeds whose full digests are stored


def record(workload, seed, expected, workroot):
    workdir = tempfile.mkdtemp(prefix=f"record-{workload}-", dir=workroot)
    try:
        _, cli, files, calls = worker.setup(workload, seed, worker.Path(workdir))
        todo = [(i, op) for i, op in calls
                if f"{files[i][1]}:{op}" not in expected["digests"]]
        results = worker.run_pass(cli, files, todo, None, math.inf)
    finally:
        shutil.rmtree(workdir)
    for instance, op, outcome, _, _ in results:
        if "error" in outcome:
            raise SystemExit(f"{workload} seed {seed} {instance}:{op}: {outcome['error']}")
        summary = {k: outcome[k] for k in ("exit", "verdict", "records")}
        stored = expected["outcomes"].setdefault(f"{instance}:{op}", summary)
        if stored != summary:
            raise SystemExit(f"{instance}:{op} gives {summary} on seed {seed}, "
                             f"{stored} on another seed")
        expected["digests"][f"{files[instance][1]}:{op}"] = {
            k: outcome[k] for k in ("report", "structure") if k in outcome}
    return len(results)


def main():
    expected = {"outcomes": {}, "digests": {}}
    workroot = worker.BENCH_DIR / ".work"
    workroot.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        for seed in SEEDS:
            t0 = time.perf_counter()
            n = record(workload, seed, expected, workroot)
            print(f"{workload} seed {seed}: {n} calls in {time.perf_counter() - t0:.1f} s",
                  flush=True)
    with open(worker.EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
