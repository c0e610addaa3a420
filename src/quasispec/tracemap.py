"""Trace-map dynamics for substitution chains.

The golden-mean chain obeys the polynomial recursion
tau_{n+2} = tau_{n+1} tau_n - tau_{n-1} with tau_{-1} = 2, tau_0 = E,
tau_1 = E - lambda, conserving the Fricke quantity
tau2^2 + tau1^2 + tau0^2 - tau2 tau1 tau0 - 4 = lambda^2. tau_n is the
transfer trace over the first F_n sites of the golden-mean chain (F_1 = 1,
F_2 = 2, ...); in the per-letter matrix orbit of the rule a -> ab, b -> a,
the letter 'a' at level k carries tau_{k+1} and the letter 'b' carries
tau_k. For a general primitive substitution the traces are obtained exactly
by iterating the rule on per-letter transfer matrices (images multiplied in
reversed order), which avoids symbolic trace polynomials altogether.

Escape criterion: two consecutive traces with |tau| > 2 force unbounded
growth, so such an orbit has left the bounded set for good. Orbits that have
not escaped within the step budget count as bounded, which biases the
estimated spectrum outward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bands import BandSet
from .errors import DomainError
from .numutil import BigValue, HUGE, as_float, signed_log, wrap
from .potentials import SubstitutionRule
from .transfer import Mat2, level_matrices


@dataclass(frozen=True)
class TraceOrbit:
    """Trace sequence tau_{-1}, tau_0, tau_1, ... of the golden-mean recursion.

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


def fricke_invariant(t2: float, t1: float, t0: float) -> float:
    """t2^2 + t1^2 + t0^2 - t2 t1 t0 - 4, conserved by the golden-mean map."""
    return t2 * t2 + t1 * t1 + t0 * t0 - t2 * t1 * t0 - 4.0


def _next_tau(t1: BigValue, t0: BigValue, tm1: BigValue) -> BigValue:
    """tau' = t1 t0 - tm1 in mixed float / signed-log arithmetic."""
    if not isinstance(t1, tuple) and not isinstance(t0, tuple) and not isinstance(tm1, tuple):
        prod = t1 * t0
        if abs(prod) <= HUGE:
            return prod - tm1
    s1, l1 = signed_log(t1)
    s0, l0 = signed_log(t0)
    sm, lm = signed_log(tm1)
    if s1 == 0 or s0 == 0:
        return wrap(-sm, lm)
    lp = l1 + l0
    sp = s1 * s0
    # Once the product dwarfs the subtrahend the correction is below float
    # resolution; otherwise both terms fit in floats.
    if sm == 0 or lp - lm > 40.0:
        return wrap(sp, lp)
    return wrap(*signed_log(sp * math.exp(lp) - sm * math.exp(lm)))


def fibonacci_trace_orbit(E: float, lam: float, n_max: int) -> TraceOrbit:
    """Orbit of the golden-mean trace recursion up to tau_{n_max}."""
    if n_max < 1:
        raise DomainError("n_max must be at least 1")
    taus: list[BigValue] = [2.0, float(E), float(E) - float(lam)]
    escape = None
    if abs(taus[1]) > 2.0 and abs(taus[2]) > 2.0:
        escape = 1
    for n in range(2, n_max + 1):
        taus.append(_next_tau(taus[-1], taus[-2], taus[-3]))
        if escape is None:
            a = abs(as_float(taus[-2]))
            b = abs(as_float(taus[-1]))
            if a > 2.0 and b > 2.0:
                escape = n
    return TraceOrbit(tuple(taus), lam * lam, escape)


def letter_matrix_orbit(rule: SubstitutionRule, letter_values: dict[str, float],
                        E: float, n_max: int) -> dict[str, list[BigValue]]:
    """Per-letter transfer-matrix traces along the substitution orbit.

    Level 0 holds the single-site step matrices; level k+1 replaces each
    letter's matrix by the product of the level-k matrices of its image word
    in reversed order (``transfer.level_matrices``). Returns, per letter, the
    true traces at levels 0..n_max (floats, or (sign, log) pairs once huge).
    """
    if not rule.is_primitive():
        raise DomainError("substitution rule is not primitive")
    if set(letter_values) != set(rule.alphabet):
        raise DomainError("letter values must cover the alphabet")
    levels = level_matrices(rule, letter_values, float(E), max(n_max, 0)).astype(float).tolist()
    return {x: [wrap(*Mat2(a[i], b[i], c[i], d[i], e[i] * math.log(2.0)).trace_signed_log())
                for a, b, c, d, e in levels]
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
    return BandSet(tuple((a, b) for a, b in bands))


def gap_closing_residual(rule: SubstitutionRule, letter_values: dict[str, float],
                         e_star: float, n: int, step: float = 1e-6) -> tuple[float, float]:
    """Double-zero residuals of the doubling identity at a located zero of x_n.

    Returns |x_{n+2}(E*) - 2| and a central finite-difference estimate of
    d/dE [x_{n+2} - 2] at E*; both vanish when x_{n+2} - 2 has a double zero
    there. The first alphabet letter seeds the block whose trace is x.
    """
    letter = rule.alphabet[0]

    def x_np2(E: float) -> float:
        return as_float(letter_matrix_orbit(rule, letter_values, E, n + 2)[letter][n + 2])

    val = abs(x_np2(e_star) - 2.0)
    der = abs((x_np2(e_star + step) - x_np2(e_star - step)) / (2.0 * step))
    return val, der
