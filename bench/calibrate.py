"""Fixed reference kernel that measures the host's current speed.

The benchmark host is shared: the same ``regap run`` can take 40% longer
from one minute to the next, and CPU time drifts with wall time, so the
process is slowed rather than descheduled.  Each child therefore times this
kernel right before and right after its ``regap run`` call, on the same
core, and the gated throughput is expressed per reference unit (one run of
the kernel) instead of per second.  The kernel mixes the kinds of work regap
does: a 64x64 complex FFT, a KL-style reduction and interpreter-bound
Python with tiny numpy arrays.  It does not use regap, so a change to regap
cannot move it.
"""

import statistics
from time import perf_counter

import numpy as np
from numpy.fft import fftn  # bound now: tracing later wraps numpy.fft.fftn

_RNG = np.random.default_rng(0)
_GRID = _RNG.standard_normal((64, 64)) + 0j
_DATA = _RNG.uniform(0.5, 1.5, 64 * 64)
_LOG_DATA = np.log(_DATA)


def _kernel() -> float:
    acc = 0.0
    for _ in range(80):
        z = np.abs(fftn(_GRID, norm="ortho")).ravel() ** 2
        acc += float(np.sum(z * _LOG_DATA + _DATA - z))
        for j in range(150):
            acc += (j * 0.5) % 7.0
        acc += float(np.linalg.norm(np.array([acc % 1.0, 2.0, 3.0])))
    return acc


def reference_times(reps: int = 5) -> list[float]:
    """Wall time of ``reps`` runs of the reference kernel."""
    times = []
    for _ in range(reps):
        start = perf_counter()
        _kernel()
        times.append(perf_counter() - start)
    return times


if __name__ == "__main__":
    print(f"reference unit: {statistics.median(reference_times(20)):.6f} s")
