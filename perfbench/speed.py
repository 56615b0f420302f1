"""How fast the machine runs Python at the moment, from a fixed kernel.

On a shared machine the CPU speed available to one process drifts by up to
a factor of two over seconds to minutes, and a run cannot hold it still. The
runner therefore follows every command with this kernel, and the benchmark
scales the command's time by the kernel's speed just before and after it. Times are reported at reference speed: the speed at
which one pass of the kernel takes REFERENCE_PASS_NS.

The kernel allocates no container objects, so it triggers no garbage
collection and leaves the next command's heap as it found it.
"""

from __future__ import annotations

from time import perf_counter_ns

REFERENCE_PASS_NS = 200_000
_TABLE: dict[int, int] = {}


def reference_ns(duration_ns: int) -> float:
    """Run kernel passes for at least duration_ns; return ns per pass."""
    table = _TABLE
    passes = 0
    start = perf_counter_ns()
    while True:
        for i in range(2000):
            key = i & 1023
            table[key] = table.get(key, 0) ^ i
        passes += 1
        elapsed = perf_counter_ns() - start
        if elapsed >= duration_ns:
            return elapsed / passes


def at_reference_speed(ns: float, pass_ns: float) -> float:
    """A duration measured while a kernel pass took pass_ns, at reference speed."""
    return ns * REFERENCE_PASS_NS / pass_ns
