"""A fixed reference kernel that measures how fast the host is right now.

The host the benchmark was tuned on slows the same work down by up to
1.6x for stretches of seconds to minutes, for reasons outside the
process. Timing this kernel between set-ups and rounds gives each of
them a speed factor, and the end-to-end metrics are scaled by it to what
they would be on the host at its undisturbed speed.

The kernel uses the numpy primitives the library spends its time in
(a lexsort, fancy-index gathers, weighted bincounts, a tensordot and a
loop of small calls), so a slow-down that hits them hits it alike. It
runs in helper processes of its own, one per thread of the workload,
started before the workload allocates anything: neither the library's
code nor what it leaves behind in the benchmark's process (heap state,
live threads) can move the kernel's time.

Run as a script, this file is one helper: it builds the kernel's inputs,
then times the kernel once per line read from stdin and prints the
seconds, until stdin closes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

# seconds one kernel call takes on an undisturbed host: the fastest of
# many calls on a 2-vCPU Xeon VM at 2.1 GHz, numpy 2.4 with OpenBLAS
# pinned to one thread, alike with one helper or two timing it at once
NOMINAL_S = 0.100


class Probe:
    """``threads`` helper processes that time the kernel together."""

    def __init__(self, threads: int):
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        self.procs = [
            subprocess.Popen([sys.executable, os.path.abspath(__file__)], env=env,
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            for _ in range(threads)
        ]
        try:
            self.seconds()  # warm-up
            self._last = self.seconds()
        except BaseException:
            self.close()
            raise

    def seconds(self) -> float:
        """One kernel call in every helper at once; the mean of their times."""
        for p in self.procs:
            p.stdin.write("\n")
            p.stdin.flush()
        times = [float(p.stdout.readline()) for p in self.procs]
        return sum(times) / len(times)

    def host_factor(self) -> float:
        """How much slower than undisturbed the host ran since the previous
        call: the mean of the kernel's times on either side of the interval
        over ``NOMINAL_S``."""
        now = self.seconds()
        factor = (self._last + now) / (2.0 * NOMINAL_S)
        self._last = now
        return factor

    def close(self) -> None:
        for p in self.procs:
            p.stdin.close()
        for p in self.procs:
            try:
                p.wait(timeout=30)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
            p.stdout.close()


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(20191907)
        self.keys = rng.integers(0, 1 << 40, 60_000)
        self.d2 = rng.random(60_000)
        self.idx = rng.integers(0, 50_000, 100_000)
        self.feats = rng.random((50_000, 4))
        self.weights = rng.random((27, 8, 16))
        self.sums = rng.random((1_000, 27, 8))

    def seconds(self) -> float:
        t0 = time.perf_counter()
        for _ in range(6):
            np.lexsort((self.keys, self.d2))
            gathered = self.feats[self.idx]
            for c in range(4):
                np.bincount(self.idx, weights=gathered[:, c], minlength=50_000)
            np.tensordot(self.sums, self.weights, axes=([1, 2], [0, 1]))
            for _ in range(200):
                np.floor(self.d2[:16] * 3.0).sum()
        return time.perf_counter() - t0


def serve() -> None:
    kernel = Kernel()
    for _ in sys.stdin:
        print(repr(kernel.seconds()), flush=True)


if __name__ == "__main__":
    serve()
