"""Landauer scattering of a finite sample between constant leads.

A sample V_1..V_L is embedded in leads of constant potential omega1 (left)
and omega2 (right); plane waves with wave numbers k_i = arccos((E-omega_i)/2)
in (0, pi) propagate when |E - omega_i| < 2. Transmission and reflection
amplitudes follow in closed form from the entries of the transfer matrix over
the sample, and the resistance R = |r|^2/|t|^2 grows like exp(2 gamma L) in
hyperbolic regimes, so it is also carried as log10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .potentials import PotentialSpec, sample_potential
from .transfer import Mat2, product_grid, propagate

LOG10_E = math.log10(math.e)


@dataclass(frozen=True)
class ScatterResult:
    t: complex               # transmission amplitude
    r: complex               # reflection amplitude
    resistance: float        # |r|^2 / |t|^2
    resistance_direct: float  # same quantity from the one-line closed form
    log10_resistance: float  # always finite, even when resistance overflows
    k1: float
    k2: float
    omega1: float
    omega2: float


def _lead_terms(a, b, c, d, s, E: float, omega1: float, omega2: float):
    """Lead wave numbers k1, k2, their phases e1, e2, the reflection
    numerator and ln R for the sample product e^s [[a, b], [c, d]], whose
    entries may be floats or arrays."""
    if not abs(E - omega1) < 2.0 or not abs(E - omega2) < 2.0:
        raise DomainError("evanescent lead: need |E - omega_i| < 2 on both sides")
    k1 = math.acos((E - omega1) / 2.0)
    k2 = math.acos((E - omega2) / 2.0)
    e1 = complex(math.cos(k1), math.sin(k1))
    e2 = complex(math.cos(k2), math.sin(k2))
    num = a * e1 + b - e2 * (c * e1 + d)
    # R = |num|^2 e^{2s} / (4 sin^2 k1), kept in logs so huge samples survive.
    with np.errstate(divide="ignore"):
        log_R = 2.0 * np.log(np.abs(num)) + 2.0 * s - math.log(4.0 * math.sin(k1) ** 2)
    return k1, k2, e1, e2, num, log_R


def scatter(values, E: float, omega1: float = 0.0, omega2: float = 0.0) -> ScatterResult:
    """Solve the scattering problem for the sample V_1..V_L at energy E."""
    m = propagate(E, values)
    a, b, c, d, s = m.a, m.b, m.c, m.d, m.log_scale
    k1, k2, e1, e2, num, log_R = _lead_terms(a, b, c, d, s, E, omega1, omega2)
    denom = a / e1 + b - e2 * (c / e1 + d)
    r = -num / denom
    scale = math.exp(-s) if s < 700.0 else 0.0
    t = -2j * math.sin(k1) * e2 ** (-len(values)) / denom * scale
    log_R = float(log_R)
    resistance_direct = math.exp(log_R) if log_R < 700.0 else math.inf
    tt = abs(t) ** 2
    resistance = abs(r) ** 2 / tt if tt > 0.0 else math.inf
    return ScatterResult(t, r, resistance, resistance_direct, log_R * LOG10_E,
                         k1, k2, omega1, omega2)


def landauer_trace_norm(values, E: float) -> float:
    """Resistance at k1 = k2 = pi/2 (leads at the sample energy):
    (||T_{1..L}||_2^2 - 2) / 4."""
    u = propagate(E, values).trace_norm_sq_log()
    if u > 700.0:
        return math.inf
    return (math.exp(u) - 2.0) / 4.0


def min_resistance(values, E: float) -> float:
    """min over k2 of R at k1 = pi/2: (sqrt(a^2+b^2) - sqrt(c^2+d^2))^2 / 4."""
    m = propagate(E, values)
    top, bot = math.hypot(m.a, m.b), math.hypot(m.c, m.d)
    scale = math.exp(2.0 * m.log_scale) if m.log_scale < 350.0 else math.inf
    return 0.25 * (top - bot) ** 2 * scale


@dataclass(frozen=True)
class ProfilePoint:
    length: int
    resistance: float        # may overflow to inf
    log10_resistance: float  # finite, or -inf where R = 0


@dataclass(frozen=True, eq=False)
class ResistanceProfile:
    """R_L at increasing sample lengths, held as columns; ``len``, indexing
    and iteration (which stops at the IndexError past the end) give one
    ProfilePoint per length."""

    lengths: np.ndarray           # int64
    resistance: np.ndarray        # may hold inf
    log10_resistance: np.ndarray  # finite, or -inf where R = 0

    def __len__(self) -> int:
        return len(self.lengths)

    def __getitem__(self, i: int) -> ProfilePoint:
        return ProfilePoint(int(self.lengths[i]), float(self.resistance[i]),
                            float(self.log10_resistance[i]))


def resistance_profile(spec: PotentialSpec, E: float, lengths,
                       leads: str | tuple[float, float] = "at-energy") -> ResistanceProfile:
    """R_L for each requested sample length, from one transfer product with
    a mark at every length. ``lengths`` is a sequence or array of ints; an
    int64 array is used as it is, without a copy.

    ``leads`` is "at-energy" (omega1 = omega2 = E, the k = pi/2 testing mode,
    valid at every energy), "zero" (omega1 = omega2 = 0), or an explicit
    (omega1, omega2) pair.
    """
    w1, w2 = (E, E) if leads == "at-energy" else (0.0, 0.0) if leads == "zero" else leads
    ls = np.asarray(lengths, dtype=np.int64)
    a, b, c, d, s = product_grid(sample_potential(spec, 1, int(ls.max(initial=1))), E, ls)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if w1 == E and w2 == E:
            u = Mat2(a, b, c, d, s).trace_norm_sq_log()
            R = np.where(u < 700.0, (np.exp(u) - 2.0) / 4.0, np.inf)
            # log10 of (e^u - 2)/4; the -2 is negligible once u is large
            l10 = np.where(R == np.inf, (u - math.log(4.0)) * LOG10_E,
                           np.where(R > 0.0, np.log10(R), -np.inf))
        else:
            log_R = _lead_terms(a, b, c, d, s, E, w1, w2)[-1]
            R = np.where(log_R < 700.0, np.exp(log_R), np.inf)
            l10 = log_R * LOG10_E
    return ResistanceProfile(ls, R, l10)
