"""Machine-speed calibration.

The benchmark's host is shared: over minutes its speed drifts by a third or
more, and every sftlab op slows or speeds up with it. A fixed loop of the same
kind of work (Python calls on small float64 vectors, plus a few BLAS matmuls at
the train shapes) runs between ops; the run's median rate of that loop against
REFERENCE_RATE is the run's machine speed. Timings are reported divided by
that speed, so they read as on a machine where the loop runs at
REFERENCE_RATE. The loop uses no sftlab code, so no change to sftlab moves it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

REFERENCE_RATE = 60.0  # loops per second: the loop's typical rate on the 2-vCPU host it was tuned on

_rng = np.random.default_rng(20260)
_Z = _rng.normal(size=28)
_X = _rng.normal(size=(400, 256))
_W = _rng.normal(size=(256, 128))


def loop_rate() -> float:
    """Runs of the fixed loop per second, from one run."""
    start = perf_counter()
    acc = 0.0
    for i in range(1500):
        z = _Z * (1.0 + i * 1e-6)
        top = z.max()
        log_p = z - top - np.log(np.exp(z - top).sum())
        acc += float(log_p[i % 28])
    for _ in range(4):
        acc += float((_X @ _W)[0, 0])
    elapsed = perf_counter() - start
    if not np.isfinite(acc):
        raise FloatingPointError("calibration loop produced a non-finite value")
    return 1.0 / elapsed
