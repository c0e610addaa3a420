"""Helpers for numbers that outgrow double precision.

Quantities such as transfer-matrix traces or characteristic-polynomial values
grow exponentially (sometimes doubly so). Once the magnitude passes ``HUGE``
they are carried as ``(sign, log_abs)`` pairs instead of floats.
"""

from __future__ import annotations

import math

# Threshold above which values switch to the (sign, log) representation.
HUGE = 1e100
LOG_HUGE = math.log(HUGE)

BigValue = float | tuple[int, float]


def signed_log(x: BigValue) -> tuple[int, float]:
    """Decompose a value into (sign, ln|x|); sign 0 means exact zero."""
    if isinstance(x, tuple):
        return x
    if x == 0.0:
        return (0, -math.inf)
    s = 1 if x > 0 else -1
    if math.isinf(x):
        return (s, math.inf)
    return (s, math.log(abs(x)))


def wrap(sign: int, log_abs: float) -> BigValue:
    """Return a float when representable below HUGE, else a (sign, log) pair."""
    if sign == 0 or log_abs == -math.inf:
        return 0.0
    if log_abs <= LOG_HUGE:
        return sign * math.exp(log_abs)
    return (sign, log_abs)


def as_float(x: BigValue) -> float:
    """Collapse to a float, overflowing to +-inf when too large."""
    if isinstance(x, tuple):
        s, la = x
        if s == 0:
            return 0.0
        if la > 709.0:
            return math.inf * s
        return s * math.exp(la)
    return x
