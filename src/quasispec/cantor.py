"""Cantor-set and Cantor-function reference objects, plus gap-label sets.

The middle-thirds Cantor function is evaluated by its triadic digit
algorithm; floats are dyadic rationals, so the digits are produced by exact
Fraction arithmetic. Triadic rationals take their infinite representation,
which the stop-at-digit-1 algorithm reproduces automatically
(0.1(000...) and 0.0(222...) in base 3 map to the same binary value).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constants import MAX_SITES
from .errors import DomainError

_DIGIT_CAP = 52  # 2^-53 < 1e-15, enough for full float accuracy

# math.cos rounds to exactly 1.0 below this argument (cos x = 1 - x^2/2 with
# x^2/2 under half an ulp of 1), so later Fourier factors change nothing.
_UNIT_COSINE = 1e-8


@dataclass(frozen=True)
class LabelSet:
    """Sorted, deduplicated admissible gap-label values in [0, 1)."""

    values: tuple[float, ...]

    def __post_init__(self):
        v = np.sort(np.asarray(self.values, dtype=float).ravel(), kind="stable")
        if not np.all((v >= 0.0) & (v < 1.0 + 1e-12)):
            raise DomainError("labels must lie in [0, 1)")
        # A label is kept when it lies more than 1e-12 above the last kept one.
        # Past a gap of more than 1e-12 to its neighbour below that holds at
        # once; only the few labels closer than that are decided in turn.
        keep = np.ones(len(v), dtype=bool)
        np.greater(np.diff(v), 1e-12, out=keep[1:])
        last = -np.inf
        for i in np.flatnonzero(~keep).tolist():
            if keep[i - 1]:
                last = v[i - 1]
            keep[i] = v[i] - last > 1e-12
        object.__setattr__(self, "values", tuple((v if keep.all() else v[keep]).tolist()))

    def nearest(self, x: float) -> float:
        return min(self.values, key=lambda v: abs(v - x))

    def __len__(self) -> int:
        return len(self.values)


def cantor_alpha(x: float | Fraction) -> float:
    """The Cantor function on [0, 1], 0 below and 1 above.

    Accepts floats (dyadic rationals, expanded exactly) or Fractions for
    inputs like 1/3 that floats cannot represent. Triadic digits are produced
    by exact integer arithmetic; a digit 1 ends the expansion (the function is
    flat across the corresponding gap, and triadic rationals taken with their
    infinite representation give the same value).
    """
    if x < 0:
        return 0.0
    if x >= 1:
        return 1.0
    fr = Fraction(x)
    num, den = fr.numerator, fr.denominator
    acc = 0
    n = 0
    for n in range(1, _DIGIT_CAP + 1):
        num *= 3
        digit, num = divmod(num, den)
        if digit == 1:
            acc = 2 * acc + 1
            break
        acc = 2 * acc + (digit >> 1)
        if num == 0:
            break
    return acc / 2.0 ** n


def cantor_fourier(t: float, N: int) -> complex:
    """Truncated Fourier transform of the Cantor measure:
    e^{it/2} prod_{n=1..N} cos(t / 3^n). The product stops at the first
    factor whose argument is below _UNIT_COSINE: it and all later ones are
    exactly 1.0."""
    if N < 1:
        raise DomainError("need at least one product factor")
    prod = 1.0
    scale = 1.0
    for _ in range(N):
        scale /= 3.0
        if abs(t * scale) < _UNIT_COSINE:
            break
        prod *= math.cos(t * scale)
    return cmath.exp(0.5j * t) * prod


def sturmian_label_set(alpha: float, k_max: int) -> LabelSet:
    """Admissible gap labels {k alpha mod 1 : |k| <= k_max} of the Sturmian chain."""
    if not 0.0 < alpha < 1.0:
        raise DomainError("alpha must lie strictly between 0 and 1")
    if k_max < 0:
        raise DomainError("k_max must be nonnegative")
    if 2 * k_max + 1 > MAX_SITES:
        raise DomainError(f"{2 * k_max + 1} labels exceed the budget of {MAX_SITES}")
    k = np.arange(-k_max, k_max + 1, dtype=float)
    k *= alpha
    return LabelSet(np.mod(k, 1.0, out=k))


def hierarchical_labels(n_max: int) -> LabelSet:
    """Dyadic gap labels (2k-1)/2^{n+1} for 0 <= n <= n_max, 1 <= k <= 2^n."""
    if n_max < 0:
        raise DomainError("n_max must be nonnegative")
    if n_max + 1 > math.log2(MAX_SITES + 1):  # checked before 2^(n_max + 1) is formed
        raise DomainError(f"2^{n_max + 1} - 1 labels exceed the budget of {MAX_SITES}")
    return LabelSet(np.concatenate([np.arange(1.0, 2.0 ** (n + 1), 2.0) / 2.0 ** (n + 1)
                                    for n in range(n_max + 1)]))
