"""The host's slowdown, sampled between rounds with a fixed reference kernel.

On a shared host the same single-threaded code runs at a speed that drifts
by a third within seconds and differs from run to run; CPU time follows
wall time, so it is the core that runs slower, not the process that waits.
The reference kernel, a fixed mix of Python loops, dict updates and small
numpy array arithmetic like momaplan's own, slows down with the program.
Its median time right after a round, over ``REFERENCE_MS``, is the host's
slowdown during that round; a time divided by it is the time at reference
speed. The kernel depends on nothing in momaplan, so a change to the
program moves the scaled times as it moves the wall times.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

REFERENCE_MS = 2.5  # the kernel's typical median on a shared 2-core Xeon host
SHARE = 0.1  # reference time added after each round, as a share of the round
MIN_RUNS = 8  # kernel runs in each sample, however short the round

_GRID = np.linspace(0.0, 1.0, 1024).reshape(32, 32)


def kernel() -> float:
    """One fixed unit of work; its result depends on nothing outside it."""
    counts: dict[int, int] = {}
    total = 0
    for i in range(6000):
        key = i & 127
        counts[key] = counts.get(key, 0) + i
        total += i * i % 7
    x = _GRID
    for _ in range(160):
        x = np.sqrt(x * x + 0.25) - 0.25
    return total + float(x.sum()) + len(counts)


def slowdown(busy_seconds: float) -> float:
    """The host's slowdown now: the median of ``MIN_RUNS`` or more kernel
    runs, taking about ``SHARE`` of ``busy_seconds``, over ``REFERENCE_MS``.
    Sampling after each round in proportion to its length spreads the
    samples over a phase as its work is spread."""
    times: list[float] = []
    spent, budget = 0.0, SHARE * busy_seconds
    while len(times) < MIN_RUNS or spent < budget:
        start = perf_counter()
        kernel()
        took = perf_counter() - start
        times.append(took * 1e3)
        spent += took
    return statistics.median(times) / REFERENCE_MS
