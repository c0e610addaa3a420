"""The reference kernel that every job time is divided by.

It mixes interpreter-bound work (a scaled 2x2 product in Python floats) with
numpy-bound work (the same recurrence over an energy array of a few hundred
points), the two kinds of work the library's jobs are made of, so that it
slows down with the host in the same way. A dense eigensolver was left out:
LAPACK time varied with the host's load differently from every job. The
kernel imports nothing from quasispec and must never change: every recorded
time in ref units is a multiple of exactly this work.
"""

from __future__ import annotations

import math

import numpy as np

_SITES = 5000
_ENERGIES = 512
_STEPS = 400


def reference_kernel() -> float:
    """Run one unit of reference work and return a checksum of it."""
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    for n in range(_SITES):
        x = 0.3 + math.cos(0.7 * n)
        a, b, c, d = x * a - c, x * b - d, a, b
        m = max(abs(a), abs(b), abs(c), abs(d))
        a, b, c, d = a / m, b / m, c / m, d / m

    e = np.linspace(-3.0, 3.0, _ENERGIES)
    p = np.ones_like(e)
    q = np.zeros_like(e)
    logs = np.zeros_like(e)
    for n in range(_STEPS):
        p, q = (e - math.cos(0.7 * n)) * p - q, p
        s = np.maximum(np.abs(p), np.abs(q))
        p, q = p / s, q / s
        logs += np.log(s)
    return a + d + float(logs.sum())
