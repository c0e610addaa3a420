"""SL(2,R) transfer-matrix algebra with overflow-safe scaling.

A single site contributes the unimodular step matrix [[E-V, -1], [1, 0]];
products of these encode all solutions of the chain equation
psi_{n-1} + psi_{n+1} + V_n psi_n = E psi_n. Long products in hyperbolic
regimes grow exponentially, so matrices carry a separate natural-log
prefactor and their normalized entries are rescaled after every
multiplication.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .potentials import PotentialSpec, PeriodicPotential, sample_potential

TRACE_POLY_DEGREE_CAP = 64


@dataclass(frozen=True)
class Mat2:
    """Real 2x2 matrix stored as e^log_scale * [[a, b], [c, d]]."""

    a: float
    b: float
    c: float
    d: float
    log_scale: float = 0.0

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1.0, 0.0, 0.0, 1.0, 0.0)

    def matmul(self, other: "Mat2") -> "Mat2":
        """self @ other, rescaled so the largest entry has magnitude 1."""
        a = self.a * other.a + self.b * other.c
        b = self.a * other.b + self.b * other.d
        c = self.c * other.a + self.d * other.c
        d = self.c * other.b + self.d * other.d
        m = max(abs(a), abs(b), abs(c), abs(d))
        if m == 0.0:
            m = 1.0
        return Mat2(a / m, b / m, c / m, d / m,
                    self.log_scale + other.log_scale + math.log(m))

    @property
    def trace(self) -> float:
        """True trace; overflows to +-inf far beyond float range."""
        t = self.a + self.d
        if t == 0.0:
            return 0.0
        la = math.log(abs(t)) + self.log_scale
        if la > 709.0:
            return math.copysign(math.inf, t)
        if abs(self.log_scale) < 700.0:
            return t * math.exp(self.log_scale)
        return math.copysign(math.exp(la), t)

    def trace_signed_log(self) -> tuple[int, float]:
        t = self.a + self.d
        if t == 0.0:
            return (0, -math.inf)
        return (1 if t > 0 else -1, math.log(abs(t)) + self.log_scale)

    def det(self) -> float:
        """True determinant (ad - bc) e^{2 log_scale}."""
        dn = self.a * self.d - self.b * self.c
        if dn == 0.0:
            return 0.0
        la = math.log(abs(dn)) + 2.0 * self.log_scale
        if la > 709.0:
            return math.copysign(math.inf, dn)
        if abs(2.0 * self.log_scale) < 700.0:
            return dn * math.exp(2.0 * self.log_scale)
        return math.copysign(math.exp(la), dn)

    def trace_norm_sq_log(self) -> float:
        """ln of the true squared trace norm a^2+b^2+c^2+d^2."""
        s = self.a**2 + self.b**2 + self.c**2 + self.d**2
        return math.log(s) + 2.0 * self.log_scale

    def op_norm_log(self) -> float:
        """ln of the true operator norm, from the trace-norm closed form."""
        u = self.trace_norm_sq_log()
        # ||A||^2 = S/2 * (1 + sqrt(1 - 4/S^2)) with S the squared trace norm
        rad = 1.0 - 4.0 * math.exp(min(700.0, -2.0 * u))
        return 0.5 * (u - math.log(2.0) + math.log1p(math.sqrt(max(0.0, rad))))

    def entries(self) -> np.ndarray:
        """Normalized entries (without the scale factor)."""
        return np.array([[self.a, self.b], [self.c, self.d]])

    def true_entries(self) -> np.ndarray:
        return self.entries() * math.exp(self.log_scale)


class MatClass(enum.Enum):
    ELLIPTIC = "elliptic"
    HYPERBOLIC = "hyperbolic"
    PARABOLIC = "parabolic"
    PLUS_IDENTITY = "+identity"
    MINUS_IDENTITY = "-identity"


@dataclass(frozen=True)
class StateVec:
    """Solution vector (psi_{n+1}, psi_n) with a log prefactor."""

    psi_next: float
    psi: float
    log_scale: float = 0.0

    def norm_log(self) -> float:
        m = math.hypot(self.psi_next, self.psi)
        if m == 0.0:
            return -math.inf
        return math.log(m) + self.log_scale

    def norm(self) -> float:
        nl = self.norm_log()
        return math.exp(nl) if nl < 709.0 else math.inf


def step_matrix(E: float, v: float) -> Mat2:
    """One-site transfer matrix [[E-v, -1], [1, 0]]."""
    return Mat2(E - v, -1.0, 1.0, 0.0, 0.0)


def propagate(E: float, values) -> Mat2:
    """Scaled product T_L ... T_1 over the sample V_1..V_L (left to right)."""
    vals = list(values)
    if not vals:
        raise DomainError("propagate needs at least one potential value")
    m = step_matrix(E, vals[0])
    for v in vals[1:]:
        m = step_matrix(E, v).matmul(m)
    return m


def product_grid(values, energies):
    """Vectorized scaled products over an energy grid.

    Returns normalized entry arrays (a, b, c, d) and the per-energy log scale
    for the product T_L ... T_1 evaluated at every energy simultaneously.
    """
    E = np.asarray(energies, dtype=float)
    a = np.ones_like(E)
    b = np.zeros_like(E)
    c = np.zeros_like(E)
    d = np.ones_like(E)
    logs = np.zeros_like(E)
    for v in np.asarray(values, dtype=float):
        ev = E - v
        a, b, c, d = ev * a - c, ev * b - d, a, b
        m = np.maximum(np.maximum(np.abs(a), np.abs(b)),
                       np.maximum(np.abs(c), np.abs(d)))
        m = np.where(m == 0.0, 1.0, m)
        a, b, c, d = a / m, b / m, c / m, d / m
        logs += np.log(m)
    return a, b, c, d, logs


def classify(m: Mat2, tol: float = 1e-9) -> MatClass:
    """Elliptic / hyperbolic / parabolic / +-identity by the true trace."""
    sgn, tr_log = m.trace_signed_log()
    abs_tr = 0.0 if sgn == 0 else (math.exp(tr_log) if tr_log < 709.0 else math.inf)
    if abs(abs_tr - 2.0) <= tol:
        scale = math.exp(m.log_scale) if m.log_scale < 709.0 else math.inf
        if abs(m.b) * scale <= tol and abs(m.c) * scale <= tol:
            return MatClass.PLUS_IDENTITY if sgn > 0 else MatClass.MINUS_IDENTITY
        return MatClass.PARABOLIC
    return MatClass.ELLIPTIC if abs_tr < 2.0 else MatClass.HYPERBOLIC


def lyapunov_grid(spec: PotentialSpec, energies, n: int) -> np.ndarray:
    """Finite-size Lyapunov estimates ln||T_{1..n}(E)|| / n over a grid.

    Only the right-sided finite-n quantity is computed; upper and lower
    limits are not distinguished.
    """
    if n < 1:
        raise DomainError("n must be at least 1")
    values = sample_potential(spec, 1, n)
    a, b, c, d, logs = product_grid(values, energies)
    u = np.log(a * a + b * b + c * c + d * d) + 2.0 * logs
    rad = 1.0 - 4.0 * np.exp(np.minimum(700.0, -2.0 * u))
    norm_log = 0.5 * (u - math.log(2.0) + np.log1p(np.sqrt(np.maximum(0.0, rad))))
    return np.maximum(0.0, norm_log) / n


def lyapunov_estimate(spec: PotentialSpec, E: float, n: int) -> float:
    """gamma_n = ln||T_{1..n}(E)|| / n; nonnegative since the norm is >= 1."""
    return float(lyapunov_grid(spec, np.array([E]), n)[0])


def trace_poly(p: PeriodicPotential) -> np.ndarray:
    """Coefficients (ascending) of the monic trace polynomial tr T_{1..L}(E).

    Exact double-precision polynomial convolution; the degree is capped
    because coefficient growth destroys accuracy beyond it.
    """
    L = p.period
    if L > TRACE_POLY_DEGREE_CAP:
        raise DomainError(f"period {L} exceeds the trace_poly cap {TRACE_POLY_DEGREE_CAP}")
    # Matrix of polynomials in E, entries as ascending coefficient arrays.
    a = np.array([1.0])
    b = np.array([0.0])
    c = np.array([0.0])
    d = np.array([1.0])
    for k, v in enumerate(p.values):
        ev = np.array([-v, 1.0])  # E - v

        def pad(x, n):
            return np.pad(x, (0, n - len(x)))

        n = k + 2
        a, b, c, d = (
            pad(np.convolve(ev, a), n) - pad(c, n),
            pad(np.convolve(ev, b), n) - pad(d, n),
            pad(a, n),
            pad(b, n),
        )
    out = a + d
    return out[: L + 1]


@dataclass(frozen=True)
class GordonResult:
    three_block: float  # max(|Psi_-L|, |Psi_L|, |Psi_2L|) / |Psi_0|
    two_block: float    # max(|tr A_L| |Psi_L|, |Psi_2L|) / |Psi_0|
    trace: float        # tr T_{1..L}


def _advance(state: StateVec, E: float, v: float) -> StateVec:
    nxt = (E - v) * state.psi_next - state.psi
    cur = state.psi_next
    m = max(abs(nxt), abs(cur))
    if m == 0.0 or m < 1e100:
        return StateVec(nxt, cur, state.log_scale)
    return StateVec(nxt / m, cur / m, state.log_scale + math.log(m))


def _retreat(state: StateVec, E: float, v: float) -> StateVec:
    # Inverse step: (psi_n, psi_{n-1}) from (psi_{n+1}, psi_n).
    cur = state.psi
    prev = (E - v) * state.psi - state.psi_next
    m = max(abs(cur), abs(prev))
    if m == 0.0 or m < 1e100:
        return StateVec(cur, prev, state.log_scale)
    return StateVec(cur / m, prev / m, state.log_scale + math.log(m))


def _exp_or_inf(x: float) -> float:
    """e^x, or inf where math.exp would raise OverflowError."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def gordon_ratio(values, E: float, L: int, tol: float = 1e-9) -> GordonResult:
    """Norm ratios behind the three-block and two-block repetition bounds.

    ``values`` must supply V_n for n = -L+1 .. 2L (length 3L) and repeat the
    same block three times; the solution with (psi_1, psi_0) = (1, 0) is
    propagated to sites -L, L and 2L. Ratios past float range come back as inf.
    """
    vals = np.asarray(values, dtype=float)
    if L < 1 or len(vals) != 3 * L:
        raise DomainError("need exactly 3L values covering n = -L+1 .. 2L")
    if not (np.allclose(vals[:L], vals[L:2 * L], atol=tol)
            and np.allclose(vals[L:2 * L], vals[2 * L:], atol=tol)):
        raise DomainError("three-block repetition violated beyond tolerance")

    psi0 = StateVec(1.0, 0.0)
    state = psi0
    norms = {}
    for n in range(1, 2 * L + 1):  # forward through V_1 .. V_2L
        state = _advance(state, E, vals[L - 1 + n])
        if n == L:
            norms["L"] = state.norm_log()
    norms["2L"] = state.norm_log()
    state = psi0
    for n in range(0, -L, -1):  # backward through V_0 .. V_{-L+1}
        state = _retreat(state, E, vals[L - 1 + n])
    norms["-L"] = state.norm_log()

    base = psi0.norm_log()
    three = _exp_or_inf(max(norms["-L"], norms["L"], norms["2L"]) - base)
    tr = propagate(E, vals[L:2 * L]).trace
    tr_log = math.log(abs(tr)) if 0.0 < abs(tr) < math.inf else (
        -math.inf if tr == 0.0 else math.inf)
    two = _exp_or_inf(max(tr_log + norms["L"], norms["2L"]) - base)
    return GordonResult(three, two, tr)
