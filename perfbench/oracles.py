"""Independent reference computations for the output checks.

Nothing here imports quasispec: potentials are sampled from their defining
formulas, spectra come from dense LAPACK eigenvalues, transfer products are
plain 2x2 products, and the Cantor function uses its self-similarity. A check
raises ``CheckError`` with a message naming what disagreed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np


class CheckError(AssertionError):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def strict_json(text: str):
    """json.loads that rejects NaN and +-Infinity, which JSON does not have."""
    def reject(name):
        raise CheckError(f"non-standard JSON constant {name}")
    return json.loads(text, parse_constant=reject)


# -- potentials ------------------------------------------------------------------

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
THUE_MORSE = {"a": "ab", "b": "ba"}


def fibonacci_convergent(q_max: int) -> tuple[int, int]:
    """The golden-mean convergent p/q = F_{k-1}/F_k with the largest F_k <= q_max."""
    p, q = 1, 1
    while p + q <= q_max:
        p, q = q, p + q
    return p, q


def sturmian_period(lam: float, p: int, q: int, omega: float) -> np.ndarray:
    """V_n = lam (floor((n+1)p/q + omega) - floor(n p/q + omega)), n = 1..q, exactly."""
    w = Fraction(omega)
    return np.array([lam * (math.floor(Fraction((n + 1) * p, q) + w)
                            - math.floor(Fraction(n * p, q) + w))
                     for n in range(1, q + 1)], dtype=float)


def sturmian_chain(lam: float, alpha: float, omega: float, n: int) -> np.ndarray:
    k = np.arange(1, n + 1, dtype=float)
    return lam * (np.floor((k + 1) * alpha + omega) - np.floor(k * alpha + omega))


def cosine_period(lam: float, p: int, q: int, omega: float) -> np.ndarray:
    n = np.arange(1, q + 1)
    return lam * np.cos(2.0 * math.pi * (n * p / q + omega))


def cosine_chain(lam: float, alpha: float, omega: float, n: int) -> np.ndarray:
    k = np.arange(1, n + 1, dtype=float)
    return lam * np.cos(2.0 * math.pi * (k * alpha + omega))


def substitution_word(images: dict[str, str], seed: str, min_length: int = 0,
                      order: int | None = None) -> str:
    """``order`` applications of the rule to ``seed``, or the first iterate of
    at least ``min_length`` letters."""
    w, k = seed, 0
    while (order is not None and k < order) or (order is None and len(w) < min_length):
        w = "".join(images[ch] for ch in w)
        k += 1
    return w


def letters_to_values(word: str, letter_values: dict[str, float]) -> np.ndarray:
    return np.array([letter_values[ch] for ch in word], dtype=float)


# -- spectra ---------------------------------------------------------------------


def wraparound_matrix(values, corner: float) -> np.ndarray:
    """The L-site restriction with boundary phase 0 (corner +1) or pi (corner -1)."""
    v = np.asarray(values, dtype=float)
    L = len(v)
    if L == 1:
        return np.array([[v[0] + 2.0 * corner]])
    h = np.diag(v) + np.diag(np.ones(L - 1), 1) + np.diag(np.ones(L - 1), -1)
    h[0, L - 1] += corner
    h[L - 1, 0] += corner
    return h


def dirichlet_matrix(values) -> np.ndarray:
    v = np.asarray(values, dtype=float)
    L = len(v)
    return np.diag(v) + np.diag(np.ones(L - 1), 1) + np.diag(np.ones(L - 1), -1)


def check_bands_against_eigs(bands, eigs, tol: float, what: str) -> None:
    """Every band edge is one of ``eigs`` and every eigenvalue lies in a band."""
    eigs = np.sort(np.asarray(eigs, dtype=float))
    lo = np.array([b[0] for b in bands])
    hi = np.array([b[1] for b in bands])
    require(len(bands) >= 1 and np.all(lo <= hi) and np.all(lo[1:] > hi[:-1]),
            f"{what}: bands not sorted and disjoint")
    for edge in np.concatenate([lo, hi]):
        require(np.min(np.abs(eigs - edge)) <= tol,
                f"{what}: band edge {edge!r} is no eigenvalue (tol {tol})")
    j = np.searchsorted(lo, eigs + tol, side="right") - 1
    inside = (j >= 0) & (eigs <= hi[np.clip(j, 0, None)] + tol)
    require(bool(np.all(inside)), f"{what}: eigenvalue outside every band")


def check_floquet_bands(bands, values, tol: float, what: str) -> None:
    eigs = np.concatenate([np.linalg.eigvalsh(wraparound_matrix(values, +1.0)),
                           np.linalg.eigvalsh(wraparound_matrix(values, -1.0))])
    check_bands_against_eigs(bands, eigs, tol, what)


def hausdorff(a, b) -> float:
    """Hausdorff distance between two unions of closed intervals, from a fine
    sampling of both (enough for the tolerances used here)."""
    def points(bs):
        return np.concatenate([np.linspace(lo, hi, 64) for lo, hi in bs])

    def dist(x, bs):
        lo = np.array([p[0] for p in bs])
        hi = np.array([p[1] for p in bs])
        d = np.maximum(lo[None, :] - x[:, None], x[:, None] - hi[None, :])
        return np.maximum(d, 0.0).min(axis=1)

    pa, pb = points(a), points(b)
    return float(max(dist(pa, b).max(), dist(pb, a).max()))


def dirichlet_counts(values, energies) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalue counts strictly below each energy, and a mask of the energies
    that lie farther than 1e-9 from every eigenvalue (where counts are sharp)."""
    eigs = np.linalg.eigvalsh(dirichlet_matrix(values))
    e = np.asarray(energies, dtype=float)
    counts = np.searchsorted(eigs, e, side="left")
    near = np.abs(eigs[np.clip(counts, 0, len(eigs) - 1)] - e)
    near = np.minimum(near, np.abs(eigs[np.clip(counts - 1, 0, len(eigs) - 1)] - e))
    return counts, near > 1e-9


def free_ids(e):
    return 0.5 + np.arcsin(np.clip(np.asarray(e) / 2.0, -1.0, 1.0)) / math.pi


# -- transfer products -----------------------------------------------------------


def transfer_logs(values, energy: float, checkpoints=()) -> tuple[np.ndarray, float, dict]:
    """T_L ... T_1 at one energy as (normalized 2x2 matrix, log scale), plus the
    same pair at each checkpoint length. Rescales every 16 sites."""
    a, b, c, d = 1.0, 0.0, 0.0, 1.0
    log_s = 0.0
    marks = set(checkpoints)
    seen = {}
    for n, v in enumerate(np.asarray(values, dtype=float).tolist(), start=1):
        x = energy - v
        a, b, c, d = x * a - c, x * b - d, a, b
        if n % 16 == 0 or n in marks:
            m = max(abs(a), abs(b), abs(c), abs(d))
            a, b, c, d = a / m, b / m, c / m, d / m
            log_s += math.log(m)
        if n in marks:
            seen[n] = (np.array([[a, b], [c, d]]), log_s)
    return np.array([[a, b], [c, d]]), log_s, seen


def log_norm(mat: np.ndarray, log_s: float) -> float:
    """ln of the operator norm of e^log_s * mat."""
    return math.log(float(np.linalg.norm(mat, 2))) + log_s


def log10_resistance(mat: np.ndarray, log_s: float, energy: float,
                     omega1: float, omega2: float) -> float:
    """log10 |r|^2/|t|^2 for the sample between leads of potential omega1 and
    omega2, from the 2x2 system T (psi_1, psi_0) = t (e2^(L+1), e2^L) with
    psi_n = e1^n + r e1^-n on the left (scale factor cancels in r)."""
    k1 = math.acos((energy - omega1) / 2.0)
    k2 = math.acos((energy - omega2) / 2.0)
    e1, e2 = complex(math.cos(k1), math.sin(k1)), complex(math.cos(k2), math.sin(k2))
    a, b = mat[0]
    c, d = mat[1]
    num = a * e1 + b - e2 * (c * e1 + d)
    # |r|^2/|t|^2 = |num|^2 e^{2 log_s} / (4 sin^2 k1)
    return (2.0 * math.log(abs(num)) + 2.0 * log_s
            - math.log(4.0 * math.sin(k1) ** 2)) / math.log(10.0)


def log10_resistance_pi_half(mat: np.ndarray, log_s: float) -> float:
    """log10 of (||T||_F^2 - 2) / 4, the resistance with both leads at the energy."""
    u = math.log(float(np.sum(mat * mat))) + 2.0 * log_s
    if u > 700.0:
        return (u - math.log(4.0)) / math.log(10.0)
    return math.log10((math.exp(u) - 2.0) / 4.0)


# -- trace map and Cantor function -----------------------------------------------


def fibonacci_traces(energy: float, lam: float, steps: int) -> list[float]:
    """tau_{-1}, ..., tau_steps of tau_{n+1} = tau_n tau_{n-1} - tau_{n-2}."""
    t = [2.0, energy, energy - lam]
    while len(t) < steps + 2:
        t.append(t[-1] * t[-2] - t[-3])
    return t[: steps + 2]


def escapes(energy: float, lam: float, steps: int) -> bool:
    """True when two consecutive traces exceed 2 in modulus within ``steps``."""
    t = fibonacci_traces(energy, lam, steps)
    return any(abs(x) > 2.0 and abs(y) > 2.0 for x, y in zip(t[1:], t[2:]))


def cantor_function(x: float, depth: int = 60) -> float:
    """C(x) from C(x) = C(3x)/2 on [0, 1/3], 1/2 on [1/3, 2/3] and
    1/2 + C(3x - 2)/2 on [2/3, 1], in exact arithmetic."""
    if x <= 0:
        return 0.0
    if x >= 1:
        return 1.0
    fx = Fraction(x)
    value, weight = Fraction(0), Fraction(1, 2)
    for _ in range(depth):
        if fx <= Fraction(1, 3):
            fx = 3 * fx
        elif fx < Fraction(2, 3):
            return float(value + weight)
        else:
            value += weight
            fx = 3 * fx - 2
        weight /= 2
        if fx == 0:
            break
    return float(value)
