"""The reference that benchmark times are scaled by: a sampler process
that times a fixed computation ten times a second, on the same CPU as the
calls it runs next to.

`reference()` is about a millisecond of exact arithmetic that does not use
hopfcat: Fraction elimination and tuple-keyed dict churn, the operations
hopfcat spends its time in.  On a shared machine a CPU's speed changes
by half or more from one second to the next, and over minutes.  A call of
a few seconds sees a mix of those speeds, and so do the samples taken
during it: their mean follows the call's time closely, one timing taken
before or after it does not.

The sampler is a separate interpreter with its garbage collector off, so
nothing the program does to its own process (garbage-collector settings,
a larger live heap, allocator state) reaches it.  It takes 1 ms in every
100 ms of the CPU it shares with the program, the same share on every
run.

    python3 perfbench/reference.py

prints `ready` after BURST back-to-back samples, then samples every
PERIOD_S until its input ends, and prints every sample as JSON
`[[monotonic time, seconds], ...]`.
"""

from __future__ import annotations

import gc
import json
import select
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BURST = 5  # back-to-back samples at start, to scale the set-up time
PERIOD_S = 0.1


def reference():
    n = 6
    rows = [[Fraction(1, i + j + 1) + (i == j) for j in range(n)] for i in range(n)]
    for c in range(n):
        for i in range(c + 1, n):
            f = rows[i][c] / rows[c][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    table = {}
    for k in range(2000):
        table[(k % 97, k % 89)] = (k, -k)
    return rows[-1][-1], len(table)


def sample():
    t0 = time.perf_counter()
    reference()
    return [time.monotonic(), time.perf_counter() - t0]


def serve():
    gc.disable()
    reference()  # warm-up, not reported
    samples = [sample() for _ in range(BURST)]
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        samples.append(sample())
    print(json.dumps(samples), flush=True)


def trimmed_mean(values):
    """Mean of `values` without the lowest and highest tenth."""
    values = sorted(values)
    k = len(values) // 10
    kept = values[k:len(values) - k]
    return sum(kept) / len(kept)


class Sampler:
    """A running `reference.py`.  Start it after set-up and `stop()` it
    after the last call; `stop()` returns the samples.  It inherits the
    caller's CPU affinity."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self.proc.stdout.readline().strip() != "ready":
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("reference sampler did not start")

    def stop(self):
        try:  # closes the sampler's input, which ends its loop
            out, _ = self.proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("reference sampler did not stop")
        return json.loads(out)


if __name__ == "__main__":
    serve()
