"""A fixed reference kernel that measures how fast the machine is right now.

On a shared virtual machine the same request takes up to 1.85 times as long
from one second to the next, because of load the guest cannot see (steal
time stays near 0; the slowdown is in the CPU work itself).  Timing this
kernel beside every request and scaling the request's time by it removes
most of that drift: over two sets of ten 28 s runs per workload on a 2-vCPU
Intel Xeon virtual machine, the interquartile spread of throughput was
0.02-0.07 of its median scaled and 0.10-0.32 unscaled, and the medians of
the two sets differed by at most 3% scaled and by up to 23% unscaled.

The kernel uses no vicert code, so a change to vicert cannot move it.  Its
mix follows the workloads: a Python loop of small-vector numpy steps
(solvers), plane rotations by scalar element access (vicert's own
eigensolvers in ``numerics``), float formatting and parsing (CSV, JSON and
SDPA files) and dictionary work.
"""

from __future__ import annotations

import time

import numpy as np

# About the kernel's median time between requests on a 2-vCPU Intel Xeon
# virtual machine (numpy 2.4, OpenBLAS on one thread).  Times are scaled by
# NOMINAL_S / measured kernel time, so scaled figures read close to unscaled
# ones there.
NOMINAL_S = 0.006

_rng = np.random.default_rng(20211008)
_A = _rng.standard_normal((50, 50)) / 10.0
_T = _rng.standard_normal((20, 20))
_VALUES = _rng.standard_normal(600)


def kernel() -> float:
    x = np.ones(50)
    acc = 0.0
    for i in range(600):
        x = _A @ x
        x /= np.sqrt(x @ x)
        acc += float(x[i % 50])
    T = _T.copy()
    c, s = 0.6, 0.8
    for _ in range(2):
        for i in range(19):
            for j in range(20):
                a, b = T[i, j], T[i + 1, j]
                T[i, j] = c * a - s * b
                T[i + 1, j] = s * a + c * b
    acc += float(T[19, 19])
    text = ",".join(f"{v:.17g}" for v in _VALUES)
    acc += sum(float(tok) for tok in text.split(","))
    counts: dict[int, int] = {}
    for i in range(8000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return acc + counts[0]


def timed() -> float:
    """Seconds one run of the kernel takes now."""
    t = time.perf_counter()
    kernel()
    return time.perf_counter() - t
