"""Host-speed reference kernels.

On a shared 2-vCPU container host, a fixed pure-Python loop was measured
drifting in speed by tens of percent over tens of seconds, and by up to 80%
within a minute, as neighbouring load came and went; a run's wall time then
says more about the neighbours than about the code. So every timed phase is
bracketed by a fixed kernel that does not touch shardsim, and its host times
are scaled by ``ref_ms / mean measured kernel ms``: the metrics read as
host time on a host running at the reference speed.

The kernels run only between episodes, after the episode's objects are
released, and with the cyclic garbage collector off: a collection during a
kernel run would walk whatever the program keeps alive, and make the scale
depend on the program's heap. So code changes in ``src/`` cannot move the
kernels, and cannot move the scale.

Each kernel imitates the work of the workloads it calibrates: Python object
churn and SHA-256 for the protocol simulation, small NumPy array operations
for the Monte Carlo bins.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
from time import perf_counter_ns

import numpy as np

REPS = 3


def python_kernel() -> int:
    sha = hashlib.sha256
    table: dict[str, int] = {}
    items = []
    for i in range(20000):
        key = "k%05d" % (i % 1009)
        digest = sha(key.encode() + i.to_bytes(8, "big")).digest()
        table[key] = table.get(key, 0) + digest[0]
        items.append((digest[:4], key, i))
    items.sort()
    return len(frozenset(table)) + len(items)


def numpy_kernel() -> int:
    rng = np.random.default_rng(0)
    bins = rng.integers(0, 4, 2000)
    red = rng.random(2000) < 0.25
    acc = 0
    for i in range(1500):
        bins[i % 200 :: 10] = (bins[i % 200 :: 10] + 1) % 4
        counts = np.bincount(bins[red], minlength=4)
        totals = np.bincount(bins, minlength=4)
        acc += int(np.argmax(counts / totals)) + np.flatnonzero(~red).size
    return acc


class Kernel:
    """A reference kernel and its time at the reference host speed."""

    def __init__(self, fn, ref_ms: float) -> None:
        self.fn = fn
        self.ref_ms = ref_ms
        self._warm = False

    def time_ms(self) -> list[float]:
        """Host times of a few kernel runs, now, with the collector off."""
        gc.collect()  # free the last episode's cycles, outside the timing
        gc.disable()
        try:
            if not self._warm:  # the first run in a process pays for heap growth
                self.fn()
                self._warm = True
            samples = []
            for _ in range(REPS):
                start = perf_counter_ns()
                self.fn()
                samples.append((perf_counter_ns() - start) / 1e6)
        finally:
            gc.enable()
        return samples

    def factor(self, kernel_ms: list[float]) -> float:
        """Scale for host times taken while the kernel took ``kernel_ms``.

        The mean over a whole run: the host's speed changes from one tenth
        of a second to the next, so a single reading was seen 40% off its
        neighbours, and the host time of a run's episodes is likewise an
        average over the run.
        """
        return self.ref_ms / statistics.mean(kernel_ms)


# Reference speeds: fixed constants near the kernels' fastest steady times on
# a 2-vCPU host (Python 3.11.7, NumPy 2.4.6). They set only the unit of the
# scaled metrics.
KERNELS = {
    "sim": Kernel(python_kernel, 40.0),
    "bins": Kernel(numpy_kernel, 38.0),
}
