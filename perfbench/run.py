"""The hopfcat benchmark: wall time of `run_verify` / `run_build` on one
workload, with every report checked.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 25 --trace 0

Workloads: corpus, linear-ladder, set-ladder, lie-deform (see
perfbench/README.md).  Each run starts the workload in its own
single-threaded worker process, between set-up-only processes that time
`setup_s`.  With `--trace 0` the last line of standard output is
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
setup_s, verify_s, build_s (scaled to a reference machine speed, see
`reference.py`) and peak_rss_mb; with `--trace 1` the metrics are the
per-layer span metrics of one traced pass.  The lines before it give the
unscaled wall times, the fail ratio and the run's metadata; the full
result, with the span table of a traced run, is written to
perfbench/.out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"

SETUP_SAMPLES = 11  # set-ups timed per untraced run: the worker's and 10 set-up-only processes
SETUP_TIMEOUT_S = 30
RUN_TIMEOUT_S = 170  # the worker's own deadline is 150 s


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def worker(args, workdir, timeout, setup_only=False):
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"worker did not finish within {timeout} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_only(args, workdir):
    return worker(args, workdir, SETUP_TIMEOUT_S, setup_only=True)


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description="hopfcat benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "hopfcat" / "__init__.py").is_file():
        fail(f"no hopfcat sources under {ROOT / 'src'}")

    (BENCH_DIR / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BENCH_DIR / ".work"))
    try:
        # set-up-only processes before and after the worker, so that the
        # samples span the whole run rather than one slow or fast second
        extra = 0 if args.trace else (SETUP_SAMPLES - 1) // 2
        setups = [setup_only(args, workdir) for _ in range(extra)]
        out = worker(args, workdir, RUN_TIMEOUT_S)
        setups.append(out)
        setups += [setup_only(args, workdir) for _ in range(extra)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(out["failures"])
    attempted = out["attempted"]
    if args.trace:
        metrics = out["per_layer"]
    else:
        # times at the reference machine speed; see worker.summarize()
        wall = {"setup_s": statistics.median(s["setup_s"] for s in setups),
                "verify_s": out["verify_wall_s"], "build_s": out["build_wall_s"]}
        metrics = {
            "setup_s": metric(statistics.median(s["setup_s"] * s["setup_speed"]
                                                for s in setups), "s"),
            "verify_s": metric(out["verify_s"], "s"),
            "build_s": metric(out["build_s"], "s"),
            "peak_rss_mb": metric(out["peak_rss_mb"], "MiB"),
        }
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "commit": commit(),
        "nproc": os.cpu_count(), "call_timeout_s": out["call_timeout_s"],
        "passes": out["passes"], "calls_per_pass": out["calls_per_pass"],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    outdir = BENCH_DIR / ".out"
    outdir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(outdir / name, "w") as fh:
        json.dump({"meta": meta, "result": result, "worker": out,
                   "setups": [{k: s.get(k) for k in ("setup_s", "setup_speed")} for s in setups]},
                  fh, indent=1, sort_keys=True)
    for why in out["failures"][:10]:
        print(f"# failed: {why}")
    if not args.trace:
        print(f"# wall time {json.dumps(wall, sort_keys=True)}")
    print(f"# fail_ratio {failed / attempted:.6g} ({failed} of {attempted} calls)")
    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
