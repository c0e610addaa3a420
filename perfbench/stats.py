"""Order statistics shared by the runner and the compare command."""

from __future__ import annotations

import statistics


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as statistics.quantiles(values, n=4) gives them.

    One value has no spread; its quartiles are the value itself.
    """
    vals = list(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return float(q1), float(q2), float(q3)


def iqr_share(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def normalize(seconds: float, ref_before: float, ref_after: float) -> float:
    """A job's wall time in ref units: divided by the mean of the reference
    kernel times measured right before and right after it."""
    return seconds / (0.5 * (ref_before + ref_after))
