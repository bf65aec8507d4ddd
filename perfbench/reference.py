"""A fixed reference kernel, timed next to every command to correct for the machine's speed.

On a shared machine the CPU speed one process sees changes with the load of
other tenants, for seconds to minutes at a time, and the package's commands
slow down with it. The kernel does a fixed amount of the same kinds of work as
the commands (Python loops and dicts, float parsing, small numpy element-wise
operations and a matrix-vector product that stays in cache) and touches
nothing of the package, so a change to the package cannot change it.

The kernel runs after every timed step. A step's time divided by the median
kernel time of the WINDOW runs before and after it is the step's cost in
kernel units: a single 7 ms kernel run is too noisy to divide by, while the
slow stretches last seconds or longer. Multiplied by ``REFERENCE_KERNEL_S``
the cost reads as seconds on a machine that runs the kernel at that speed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the kernel's median time on the 2-core Xeon VM the benchmark was tuned on, at
# times when other tenants left it alone; then corrected and uncorrected times agree.
REFERENCE_KERNEL_S = 0.007
ROUNDS = 60
WINDOW = 4


class ReferenceKernel:
    """Callable that runs the kernel once and returns its wall time in seconds."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((300, 300))
        self.vector = rng.standard_normal(300)
        self.texts = [repr(float(x)) for x in rng.standard_normal(200)]
        self.result = 0.0

    def __call__(self) -> float:
        t0 = time.perf_counter()
        acc = 0.0
        for _ in range(ROUNDS):
            w = np.clip(self.matrix @ self.vector, -1.0, 1.0)
            acc += float(np.abs(w).sum())
            acc += sum(float(s) for s in self.texts)
            table = {i: 0.5 * i for i in range(200)}
            acc += sum(table.values())
        self.result = acc
        return time.perf_counter() - t0


def corrected_s(seconds: float, position: int, kernel_s: list[float]) -> float:
    """Speed-corrected seconds of a step; ``kernel_s[position]`` is the kernel run right after it."""
    around = kernel_s[max(0, position - WINDOW): position + WINDOW + 1]
    return seconds * REFERENCE_KERNEL_S / statistics.median(around)
