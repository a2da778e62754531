"""A fixed kernel timed next to every measurement, to take out machine speed.

On a shared machine the CPU speed available to one process drifts by tens
of percent over minutes, and it moves every timing of a run together: one
pass of a workload and this kernel, timed side by side, slow down by the
same factor.  Each time the benchmark reports is therefore scaled to the
kernel's reference time,

    t_reported = t_measured * REFERENCE_S / t_kernel,

with t_kernel timed around the measurement.  A change to the program moves
t_measured and not t_kernel, so it shows in full; a change of machine speed
moves both and cancels.  The kernel uses no code of the program: a Python
three-term complex recurrence (the shape of the Legendre lift) and a LAPACK
eigensolve (the shape of the simulator), about half of its time each.
A command that runs a thread pool is scaled by the pooled kernel instead
(`pooled_kernel_seconds`), against REFERENCE_POOLED_S.

REFERENCE_S is the kernel's time on the machine the reference figures in
README.md come from (2 vCPUs, Python 3.11.7, numpy 2.4.6): the median of
the per-run kernel medians over 80 runs there (two sets of ten seeds on
each workload; their quartiles were 0.0230 and 0.0285 s).  Reported times
therefore read as seconds of that machine at its median speed.  It is a
unit, not a tuning knob: changing it rescales every time and breaks
comparison with earlier runs.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

REFERENCE_S = 0.0263
#: The pooled kernel's reference time: REFERENCE_S times the median ratio of
#: the pooled to the serial kernel over 85 pairs timed side by side on the
#: reference machine (0.568; quartiles 0.523 and 0.641).
REFERENCE_POOLED_S = 0.01495

_rng = np.random.default_rng(20261017)
_MATRIX = _rng.standard_normal((120, 120)) + 1j * _rng.standard_normal((120, 120))


def _recurrence(steps: int) -> complex:
    x = 0.37
    p0, p1 = 1.0 + 0.0j, 0.3 + 0.1j
    k = 1.0
    for _ in range(steps):
        p0, p1 = p1, ((2.0 * k + 1.0) * x * p1 - k * p0) / (k + 1.0)
        k += 1.0
    if not np.isfinite(p1):
        raise ArithmeticError("calibration recurrence overflowed")
    return p1


def kernel_seconds() -> float:
    """Wall time of one run of the kernel."""
    start = time.perf_counter()
    _recurrence(30_000)
    np.linalg.eigvals(_MATRIX)
    return time.perf_counter() - start


def pooled_kernel_seconds() -> float:
    """Wall time of the kernel's recurrence split into 30 pieces over a 2-thread pool.

    A command that runs a thread pool of Python code (`ddi-sweep --workers
    2`) hands the GIL back and forth between threads on both vCPUs, so its
    speed also depends on how busy the second vCPU is, which the serial
    kernel does not see.  Over 85 passes of `ddi-sweep` at the four radii,
    medians of 7 pooled sweeps scaled by this kernel had a quartile spread
    of 0.086, against 0.166 scaled by the serial kernel and 0.103 unscaled.
    """
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(_recurrence, [1_000] * 30))
    return time.perf_counter() - start
