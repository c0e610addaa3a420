"""Trace-map dynamics for substitution chains.

Traces are read from the renormalized per-letter transfer matrices of
``transfer.iter_levels`` (level k+1 of a letter is the product of the
level-k matrices of its image, in reversed order), each long-double trace
scaled by its exact power of two: integer traces come out exact, values
beyond ``HUGE`` as (sign, log) pairs. For the golden-mean chain (a -> ab,
b -> a with values lambda, 0) letter 'a' at level k carries tau_{k+1}, the
trace over the first F_{k+1} sites (F_1 = 1, F_2 = 2, ...); with tau_0 = E
and tau_{-1} = 2, tau_{n+2} = tau_{n+1} tau_n - tau_{n-1} conserves the
Fricke quantity tau2^2 + tau1^2 + tau0^2 - tau2 tau1 tau0 - 4 = lambda^2.

Escape criterion: two consecutive traces with |tau| > 2 force unbounded
growth, so such an orbit has left the bounded set for good. Orbits that have
not escaped within the step budget count as bounded, which biases the
estimated spectrum outward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError
from .numutil import BigValue, LOG_HUGE, as_float, signed_log, wrap
from .potentials import FIBONACCI_RULE, SubstitutionRule
from .transfer import _rescale, iter_levels

if TYPE_CHECKING:
    from .bands import BandSet

# Most steps of a golden-mean orbit: ln|tau_n| grows like phi^n and leaves
# float range near n = 1470 (1478 at E = 0.3, lambda = 2; 1463 at E = 1e300),
# so within the budget every finite E and lambda give finite (sign, log) traces.
MAX_TRACE_STEPS = 1000


@dataclass(frozen=True)
class TraceOrbit:
    """Trace sequence tau_{-1}, tau_0, tau_1, ... of the golden-mean chain.

    Entries are floats, switching to (sign, log_abs) pairs beyond 1e100.
    ``escape_index`` is the first n with |tau_n| > 2 and |tau_{n-1}| > 2,
    or None if the criterion never fired.
    """

    taus: tuple[BigValue, ...]
    invariant: float
    escape_index: int | None

    def tau(self, n: int) -> BigValue:
        """tau_n for n >= -1."""
        return self.taus[n + 1]


def fricke_invariant(t2: BigValue, t1: BigValue, t0: BigValue) -> float:
    """t2^2 + t1^2 + t0^2 - t2 t1 t0 - 4, conserved by the golden-mean map.

    Exact rational arithmetic on the float traces (the float expression
    cancels catastrophically once the triple product reaches ~1e16); NaN
    when a trace or the result lies beyond float range.
    """
    try:
        a, b, c = (Fraction(as_float(t)) for t in (t2, t1, t0))
        return float(a * a + b * b + c * c - a * b * c - 4)
    except (OverflowError, ValueError):  # an inf or nan trace, or a value past float range
        return math.nan


def fibonacci_trace_orbit(E: float, lam: float, n_max: int) -> TraceOrbit:
    """Golden-mean trace orbit tau_{-1}..tau_{n_max}, read from the level
    matrices of the Fibonacci rule (1 <= n_max <= MAX_TRACE_STEPS)."""
    if not 1 <= n_max <= MAX_TRACE_STEPS:
        raise DomainError(f"{n_max} steps: a golden-mean orbit takes 1 to "
                          f"{MAX_TRACE_STEPS} steps")
    traces = letter_matrix_orbit(FIBONACCI_RULE, {"a": lam, "b": 0.0}, E, n_max - 1)
    taus = (2.0, float(E), *traces["a"])
    big = [abs(as_float(t)) > 2.0 for t in taus]
    escape = next((n for n in range(1, n_max + 1) if big[n] and big[n + 1]), None)
    return TraceOrbit(taus, lam * lam, escape)


def _levels(rule: SubstitutionRule, letter_values: dict[str, float], energies,
            levels: int) -> list[np.ndarray]:
    """The levels 0..levels of ``iter_levels`` over the energies, for a
    primitive rule whose letter values cover it: a copy of each (5, r, M)
    level matrix, scaled by powers of two to its largest |entry| in [1/2, 1)."""
    if not rule.is_primitive() or set(letter_values) != set(rule.alphabet):
        raise DomainError("need a primitive rule and one value per letter")
    out = []
    for mats, _ in iter_levels(rule, letter_values, np.asarray(energies, dtype=float), levels):
        m = mats.copy()
        _rescale(m[:2], m[2:4], m[4])
        out.append(m)
    return out


def _trace(a, d, e) -> BigValue:
    """True trace 2^e (a + d) of a level matrix: the long-double sum scaled by
    its power of two up to HUGE, a (sign, log) pair beyond."""
    t = a + d
    if t == 0.0:
        return 0.0
    log_abs = math.log(abs(float(t))) + float(e) * math.log(2.0)
    if log_abs > LOG_HUGE:
        return (1 if t > 0 else -1, log_abs)
    return float(np.ldexp(t, int(e)))


def letter_matrix_orbit(rule: SubstitutionRule, letter_values: dict[str, float],
                        E: float, n_max: int) -> dict[str, list[BigValue]]:
    """Per-letter transfer-matrix traces along the substitution orbit.

    Level 0 holds the single-site step matrices; level k+1 replaces each
    letter's matrix by the product of the level-k matrices of its image word
    in reversed order (``transfer.iter_levels``). Returns, per letter, the
    true traces at levels 0..n_max (floats, or (sign, log) pairs once huge).
    """
    levels = _levels(rule, letter_values, [float(E)], max(n_max, 0))
    return {x: [_trace(*m[[0, 3, 4], i, 0]) for m in levels]
            for i, x in enumerate(rule.alphabet)}


def identity_residual(lhs: BigValue, rhs: BigValue) -> float:
    """Relative discrepancy |lhs - rhs| / max(1, |lhs|, |rhs|), safe for
    signed-log values."""
    if not isinstance(lhs, tuple) and not isinstance(rhs, tuple):
        denom = max(1.0, abs(lhs), abs(rhs))
        return abs(lhs - rhs) / denom
    sl, ll = signed_log(lhs)
    sr, lr = signed_log(rhs)
    if sl == 0 or sr == 0:
        return 1.0  # one side huge, the other zero
    if sl != sr:
        return 2.0
    return abs(math.expm1(ll - lr)) if ll < lr else abs(math.expm1(lr - ll))


def thue_morse_residual(x_traces: list[BigValue], n: int) -> float:
    """Relative residual of x_{n+2} - 2 = (x_{n+1} - 2) x_n^2 at level n >= 1."""
    xn, xn1, xn2 = x_traces[n], x_traces[n + 1], x_traces[n + 2]
    lhs = _shift(xn2, -2.0)
    sn, ln = signed_log(xn)
    st, lt = signed_log(_shift(xn1, -2.0))
    rhs: BigValue = 0.0 if sn == 0 or st == 0 else wrap(st, lt + 2.0 * ln)
    return identity_residual(lhs, rhs)


def _shift(x: BigValue, delta: float) -> BigValue:
    """x + delta, exact in float range, delta negligible beyond it."""
    if not isinstance(x, tuple):
        return x + delta
    return x  # |x| > 1e100, adding O(1) is below resolution


_INTERVAL_BLOWUP = 1e30


def _interval_mul(a_lo, a_hi, b_lo, b_hi):
    p = (a_lo * b_lo, a_lo * b_hi, a_hi * b_lo, a_hi * b_hi)
    return min(p), max(p)


def _cell_escapes(e_lo: float, e_hi: float, lam: float, n_max: int) -> bool:
    """Certified escape for every energy in [e_lo, e_hi], by interval
    iteration of the trace recursion. Returns False when undecided (interval
    blow-up or step budget exhausted), never falsely True up to rounding."""
    tm1 = (2.0, 2.0)
    t0 = (e_lo, e_hi)
    t1 = (e_lo - lam, e_hi - lam)

    def min_abs(iv):
        lo, hi = iv
        return 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))

    for _ in range(1, n_max + 1):
        if min_abs(t0) > 2.0 and min_abs(t1) > 2.0:
            return True
        p_lo, p_hi = _interval_mul(*t1, *t0)
        t2 = (p_lo - tm1[1], p_hi - tm1[0])
        if max(abs(t2[0]), abs(t2[1])) > _INTERVAL_BLOWUP:
            # Dependency loss: the enclosure is useless from here on.
            return min_abs(t2) > 2.0 and min_abs(t1) > 2.0
        tm1, t0, t1 = t0, t1, t2
    return False


def bounded_spectrum(lam: float, e_window: tuple[float, float], depth: int,
                     n_max: int) -> BandSet:
    """Outer approximation of the bounded-trace energy set of the golden-mean
    chain at coupling ``lam``.

    Adaptive bisection of the window: a dyadic cell is discarded once interval
    iteration certifies that escape fires everywhere in it within n_max steps;
    otherwise it is split, down to 2^depth cells. Cells still undecided at the
    depth limit remain in, so the result over-covers the bounded set at
    resolution |window| / 2^depth. A depth whose cells would be narrower than
    the float spacing at the window's larger endpoint is rejected (52 for a
    window of unit width and scale).
    """
    if depth < 1 or n_max < 1:
        raise DomainError("depth and n_max must be at least 1")
    lo, hi = e_window
    if not lo < hi:
        raise DomainError("empty energy window")
    if not math.isfinite(hi - lo):
        raise DomainError("energy window span overflows a float")
    limit = math.frexp((hi - lo) / math.ulp(max(abs(lo), abs(hi))))[1] - 1
    if depth > limit:
        raise DomainError(f"depth {depth} would split the window below its float "
                          f"spacing; at most {limit} levels fit")

    survivors: list[tuple[float, float]] = []

    def visit(a: float, b: float, d: int):
        if _cell_escapes(a, b, lam, n_max):
            return
        if d >= depth:
            survivors.append((a, b))
            return
        mid = 0.5 * (a + b)
        visit(a, mid, d + 1)
        visit(mid, b, d + 1)

    visit(float(lo), float(hi), 0)
    bands: list[list[float]] = []
    for a, b in survivors:
        if bands and a <= bands[-1][1] + 1e-15:
            bands[-1][1] = b
        else:
            bands.append([a, b])
    from .bands import BandSet  # here, so a trace-map orbit loads neither bands nor ids

    return BandSet(tuple((a, b) for a, b in bands))


def gap_closing_residual(rule: SubstitutionRule, letter_values: dict[str, float],
                         e_star: float, n: int, step: float = 1e-6) -> tuple[float, float]:
    """Double-zero residuals of the doubling identity at a located zero of x_n.

    Returns |x_{n+2}(E*) - 2| and a central finite-difference estimate of
    d/dE [x_{n+2} - 2] at E*; both vanish when x_{n+2} - 2 has a double zero
    there. The first alphabet letter seeds the block whose trace is x.
    """
    top = _levels(rule, letter_values, [e_star - step, e_star, e_star + step], n + 2)[n + 2]
    lo, mid, hi = (as_float(_trace(*m)) for m in top[[0, 3, 4], 0].T)
    return abs(mid - 2.0), abs((hi - lo) / (2.0 * step))
