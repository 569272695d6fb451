"""A fixed reference computation that measures the machine's speed in a run.

On a shared 2-core machine the same op can take twice as long from one
second to the next, because neighbours contend for the physical core.  The
benchmark times this loop before the first op of a round and after each op,
and reports each op's time in units of the mean of the two loop times around
it (``ref``), which cancels most of that drift.  The loop does not use
descentlab, so no change to the program can move it; it mimics the program's
profile: a Python loop of small NumPy operations, like one SGD trial on a
4x2 least-squares problem with a full objective evaluation per step.
"""

from __future__ import annotations

import time

import numpy as np

_A = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, -1.0]])
_B = np.array([1.0, 1.0, 0.0, 0.0])
_IDX = [int(i) for i in np.random.default_rng(20_230_126).integers(0, 4, 20_000)]


def reference_s() -> float:
    """Seconds one pass of the reference loop takes now."""
    t0 = time.perf_counter()
    x = np.zeros(2)
    for i in _IDX:
        a = _A[i]
        x = x - 0.1 * (float(a @ x) - _B[i]) * a
        r = _A @ x - _B
        gap = 0.125 * float(r @ r)
    if not np.isfinite(gap):
        raise RuntimeError("reference loop diverged")
    return time.perf_counter() - t0

