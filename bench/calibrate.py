"""Machine-speed reference for the timings of a shared, noisy host.

On the 2-core host this benchmark was built on, the speed of identical
work drifts by 15-30 % between runs a minute apart (co-tenants on the
hypervisor; the process is not descheduled, its CPU time grows too).  A
fixed kernel that shares no code with the program is timed next to the
program's work; dividing a timing by the kernel's time and multiplying by
``REFERENCE_S`` expresses it at the reference speed.  Measured on that host,
the kernel's time correlates at 0.8 with both scalar-Python and numpy
workloads over 80 paired samples, and the normalisation halves their
spread.

The kernel is half scalar complex arithmetic in the interpreter (the
shape of the Newton radicals) and half vectorized numpy over a 256 x 256
grid (the shape of the escape-time kernel).  Changing it, or
``REFERENCE_S``, changes every normalised metric: treat both as part of
the benchmark's definition.
"""

from __future__ import annotations

import time

import numpy as np

# Median kernel time on a 2-core Intel Xeon (Python 3.11.7, numpy 2.4.6).
REFERENCE_S = 0.016

_GRID = (np.linspace(-2.0, 2.0, 256)[np.newaxis, :]
         + 1j * np.linspace(-2.0, 2.0, 256)[:, np.newaxis]).ravel()


def kernel() -> complex:
    x, s = 1.3 + 0.2j, 2.0 - 1.0j
    for _ in range(12000):
        x = x - (x * x * x - s) / (3 * x * x)
        if abs(x) > 10:
            x = 1.3 + 0.2j
    z = np.full(_GRID.size, 1.0 + 0.0j)
    for _ in range(6):
        z = z - (z ** 3 - _GRID) / (3 * z * z)
    return x + complex(z[0])


def calibration_s(repeats: int = 1) -> float:
    """Median seconds of ``repeats`` runs of the reference kernel."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - start)
    return sorted(samples)[len(samples) // 2]
