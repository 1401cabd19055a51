"""One workload in one single-threaded process.

Sets up (imports `hopfcat` from `src/`, generates the workload's instance
files from the seed and writes them into the work directory), then runs
passes over the workload's `run_verify` / `run_build` calls with the
reference sampler (`reference.py`) running next to them, checks every
report against `expected.json`, and prints one JSON line for `run.py`.

    python3 perfbench/worker.py --workload corpus --seed 0 --seconds 25 \\
        --trace 0 --workdir perfbench/.work/x [--setup-only]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

from reference import BURST, Sampler, trimmed_mean

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED = BENCH_DIR / "expected.json"

CALL_TIMEOUT_S = 100.0  # one run_verify / run_build call
RUN_DEADLINE_S = 150.0  # every call of a run ends by then, timed out or not

# A reference sample (`reference.reference`) on a 2-vCPU shared VM
# (Python 3.11.7) when its CPU ran at its faster speed.  A call's time is
# scaled by this over the mean sample time during the call, so it reads as
# seconds at that machine speed.
REFERENCE_NOMINAL_S = 0.00075
MIN_SAMPLES = 5  # samples a call's scale is taken from, at the least


class CallTimeout(BaseException):
    """Raised from SIGALRM; a BaseException so no `except Exception` in
    the program can swallow it."""


def _on_alarm(signum, frame):
    raise CallTimeout("call timed out")


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def canonical(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def import_hopfcat():
    """Import hopfcat from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "hopfcat" / "__init__.py").is_file():
        raise SystemExit(f"error: no hopfcat sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import hopfcat
    if Path(hopfcat.__file__).resolve().parent != (SRC / "hopfcat").resolve():
        raise SystemExit(f"error: imported hopfcat from {hopfcat.__file__}, not {SRC}")
    return hopfcat


def setup(workload, seed, workdir):
    """Import hopfcat and write the workload's instances; timed.

    Returns (seconds, cli module, {instance: (path, sha256 of the file)},
    [(instance, op)]).
    """
    t0 = time.perf_counter()
    import_hopfcat()
    from hopfcat import cli
    from hopfcat.instances import dump_document
    import workloads
    docs, calls = workloads.generate(workload, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    files = {}
    for name, doc in docs.items():
        text = dump_document(doc)
        path = workdir / f"{name}.json"
        path.write_text(text)
        files[name] = (str(path), sha256(text))
    return time.perf_counter() - t0, cli, files, calls


def run_call(cli, path, op, timeout):
    """One call under a time-out; returns (outcome, seconds)."""
    signal.signal(signal.SIGALRM, _on_alarm)
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            if op == "verify":
                report, code = cli.run_verify(path)
            else:
                report, code = cli.run_build(path, op)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CallTimeout:
        return {"error": "timeout"}, time.perf_counter() - t0
    except Exception as exc:  # a crash is a failed call, not a crashed run
        return {"error": f"{type(exc).__name__}: {exc}"}, time.perf_counter() - t0
    seconds = time.perf_counter() - t0
    body = {k: v for k, v in report.items() if k != "timing"}
    outcome = {
        "exit": code,
        "verdict": report.get("verdict"),
        "records": report.get("counts", {}).get("total", 0),
        "report": sha256(canonical(body)),
    }
    if op != "verify":
        outcome["structure"] = sha256(canonical(report.get("structure")))
    return outcome, seconds


def mismatch(instance, op, doc_sha, outcome, expected):
    """Why an outcome differs from the stored expectation, or None."""
    if "error" in outcome:
        return outcome["error"]
    want = expected["outcomes"].get(f"{instance}:{op}")
    if want is None:
        return "no expected outcome stored"
    for key in ("exit", "verdict", "records"):
        if outcome[key] != want[key]:
            return f"{key} {outcome[key]!r}, expected {want[key]!r}"
    digests = expected["digests"].get(f"{doc_sha}:{op}")
    if digests is not None:
        for key, value in digests.items():
            if outcome[key] != value:
                return f"{key} digest differs"
    return None


def run_pass(cli, files, calls, expected, deadline, spans=None):
    """Every call of the workload once.  Returns, per call, (instance, op,
    outcome, seconds, failure or None).  With a list `spans`, also appends
    each call's (start, end) in `time.monotonic()` to it."""
    results = []
    for instance, op in calls:
        path, doc_sha = files[instance]
        start = time.monotonic()
        remaining = deadline - start
        if remaining <= 0:
            outcome, seconds = {"error": "timeout"}, 0.0
        else:
            outcome, seconds = run_call(cli, path, op, min(CALL_TIMEOUT_S, remaining))
        if spans is not None:
            spans.append((start, time.monotonic()))
        why = None if expected is None else mismatch(instance, op, doc_sha, outcome, expected)
        results.append((instance, op, outcome, seconds, why))
    return results


def pass_seconds(results):
    """(verify seconds, build seconds, {(instance, op): [seconds]}) for one
    pass of the workload: the median time of each distinct call, summed
    over its verify calls and over its build calls."""
    times = {}
    for instance, op, _, seconds, _ in results:
        times.setdefault((instance, op), []).append(seconds)
    verify = sum(statistics.median(t) for (_, op), t in times.items() if op == "verify")
    build = sum(statistics.median(t) for (_, op), t in times.items() if op != "verify")
    return verify, build, times


def _failures(results):
    return [f"{i}:{op}: {why}" for i, op, _, _, why in results if why]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(cli, files, calls, expected, seconds, deadline):
    """Passes until the next one would overrun `seconds` (at least one).
    Returns (results, spans, passes) as `run_pass` gives them."""
    results = []
    spans = []
    passes = 0
    start = time.monotonic()
    while True:
        t0 = time.monotonic()
        results += run_pass(cli, files, calls, expected, deadline, spans)
        last = time.monotonic() - t0
        passes += 1
        elapsed = time.monotonic() - start
        if elapsed + last > seconds or time.monotonic() + last > deadline:
            break
    return results, spans, passes


def reference_during(samples, start, end):
    """Trimmed mean of the reference samples taken during [start, end], or
    of the MIN_SAMPLES taken nearest its middle if fewer fell inside."""
    inside = [s for t, s in samples if start <= t <= end]
    if len(inside) < MIN_SAMPLES:
        middle = (start + end) / 2
        nearest = sorted(samples, key=lambda sample: abs(sample[0] - middle))
        inside = [s for _, s in nearest[:MIN_SAMPLES]]
    return trimmed_mean(inside)


def summarize(results, spans, passes, samples):
    """Each call's time is scaled to the reference machine speed by
    REFERENCE_NOMINAL_S over the reference samples taken during it.  The
    pass time is the sum over the distinct calls of each one's median
    scaled time, so a slow second inflates one sample of one call, not a
    whole pass."""
    scaled = [(i, op, o, s * REFERENCE_NOMINAL_S / reference_during(samples, *span), w)
              for (i, op, o, s, w), span in zip(results, spans)]
    verify_s, build_s, _ = pass_seconds(scaled)
    verify_wall_s, build_wall_s, times = pass_seconds(results)
    return {"verify_s": verify_s, "build_s": build_s,
            "verify_wall_s": verify_wall_s, "build_wall_s": build_wall_s,
            "passes": passes, "attempted": len(results), "failures": _failures(results),
            "call_seconds": {f"{i}:{op}": t for (i, op), t in times.items()},
            "reference_samples": samples}


def traced(cli, files, calls, expected, deadline):
    """A warm-up pass, one untraced pass, then one traced pass; traced
    reports must equal the untraced ones byte for byte (timing aside)."""
    from tracer import Tracer
    warm = run_pass(cli, files, calls, expected, deadline)
    plain = run_pass(cli, files, calls, expected, deadline)
    tracer = Tracer()
    with tracer:
        spanned = run_pass(cli, files, calls, expected, deadline)
    failures = _failures(warm) + _failures(plain) + _failures(spanned)
    for (inst, op, a, _, _), (_, _, b, _, _) in zip(plain, spanned):
        if a != b:
            failures.append(f"{inst}:{op}: traced report differs from untraced")
    v0, _, _ = pass_seconds(plain)
    v1, _, _ = pass_seconds(spanned)
    ratio = v1 / v0 if v0 > 0 else 0.0
    return {"per_layer": tracer.per_layer(ratio), "spans": tracer.table(),
            "self_s": dict(tracer.self_s), "verify_s": v0, "traced_verify_s": v1,
            "passes": 3, "attempted": len(warm) + len(plain) + len(spanned),
            "failures": failures}


def pin_to_one_cpu():
    """Keep this process, and the reference sampler it starts, on one CPU.
    The CPUs of a shared machine change speed independently within
    seconds, so samples taken on another CPU than the calls would not
    follow their speed."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def load_expected():
    with open(EXPECTED) as fh:
        return json.load(fh)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S
    pin_to_one_cpu()

    setup_s, cli, files, calls = setup(args.workload, args.seed, Path(args.workdir))
    out = {"setup_s": setup_s}
    expected = load_expected()
    if args.trace and not args.setup_only:
        out.update(traced(cli, files, calls, expected, deadline))
    else:
        sampler = Sampler()  # after set-up, so set-up runs alone
        try:
            runs = None if args.setup_only else measure(
                cli, files, calls, expected, args.seconds, deadline)
        finally:
            samples = sampler.stop()
        burst = [s for _, s in samples[:BURST]]
        out["setup_speed"] = REFERENCE_NOMINAL_S * len(burst) / sum(burst)
        if runs is not None:
            out.update(summarize(*runs, samples))
    if not args.setup_only:
        out.update(peak_rss_mb=peak_rss_mb(), calls_per_pass=len(calls),
                   call_timeout_s=CALL_TIMEOUT_S)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
