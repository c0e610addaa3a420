"""SL(2,R) transfer-matrix algebra with overflow-safe scaling.

A single site contributes the unimodular step matrix [[E-V, -1], [1, 0]];
products of these encode all solutions of the chain equation
psi_{n-1} + psi_{n+1} + V_n psi_n = E psi_n. Long products in hyperbolic
regimes grow exponentially, so a product keeps its entries normalized and
carries the scale as a separate prefactor. ``product_grid`` is the one kernel
that forms products, over an energy grid and at optional prefix lengths; it
rescales by exact powers of two, and only as often as overflow requires.
``Mat2.matmul`` and ``step_matrix`` remain for the per-letter products of
``tracemap.letter_matrix_orbit``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .potentials import PotentialSpec, PeriodicPotential, sample_potential

TRACE_POLY_DEGREE_CAP = 64
# A grid of M <= _LANES / 2 energies steps J = _LANES // M chain segments of
# _SEGMENT sites side by side, as one (J, M) array (both sizes measured on a
# 2-core x86 machine; see CHANGES.md).
_LANES = 512
_SEGMENT = 256
# Sites between rescalings grow the entries by at most e^_LOG_GROWTH, far
# below the float limit e^709; _CHUNK bounds the energy-site block built at once.
_LOG_GROWTH = 600.0
_CHUNK = 1 << 18
_LN2 = math.log(2.0)


@dataclass(frozen=True)
class Mat2:
    """Real 2x2 matrix stored as e^log_scale * [[a, b], [c, d]]. The norm
    methods also take arrays of entries, a stack of such matrices."""

    a: float
    b: float
    c: float
    d: float
    log_scale: float = 0.0

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

    def trace_norm_sq_log(self):
        """ln of the true squared trace norm a^2+b^2+c^2+d^2."""
        a, b, c, d = self.a, self.b, self.c, self.d
        return np.log(a * a + b * b + c * c + d * d) + 2.0 * self.log_scale

    def op_norm_log(self):
        """ln of the true operator norm, from the trace-norm closed form."""
        u = self.trace_norm_sq_log()
        # ||A||^2 = S/2 * (1 + sqrt(1 - 4/S^2)) with S the squared trace norm
        rad = 1.0 - 4.0 * np.exp(np.minimum(700.0, -2.0 * u))
        return 0.5 * (u - math.log(2.0) + np.log1p(np.sqrt(np.maximum(0.0, rad))))

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


def step_matrix(E: float, v: float) -> Mat2:
    """One-site transfer matrix [[E-v, -1], [1, 0]]."""
    return Mat2(E - v, -1.0, 1.0, 0.0, 0.0)


def propagate(E: float, values) -> Mat2:
    """Scaled product T_L ... T_1 over the sample V_1..V_L (left to right)."""
    return Mat2(*(float(x) for x in product_grid(values, E)))


def product_grid(values, energies, marks=None):
    """Scaled products T_n ... T_1 over the chain ``values`` at every energy.

    Returns normalized entry arrays (a, b, c, d) and the log scale ``logs``,
    all of the energies' shape: the true product is e^logs [[a, b], [c, d]],
    with the largest |entry| equal to 1. With ``marks``, increasing prefix
    lengths (K,), each array gains a leading (K,) axis holding the product
    over the first marks[k] sites.

    A site grows the entries by at most max|E| + max|V| + 2, so they are
    rescaled only every k sites, by powers of two whose exponents are summed
    as integers; the schedule therefore changes no bit of the result outside
    the subnormal range. A narrow grid steps several chain segments side by
    side and joins their products in one prefix pass; segments start at
    multiples of _SEGMENT, so a mark row equals the call on that prefix bit
    for bit.
    """
    vals = np.asarray(values, dtype=float).ravel()
    E = np.asarray(energies, dtype=float)
    ends = np.asarray([len(vals)] if marks is None else marks, dtype=np.int64).ravel()
    if not (len(vals) and ends.size and 1 <= ends[0] and ends[-1] <= len(vals)
            and np.all(ends[1:] > ends[:-1])):
        raise DomainError("a product needs at least one site, and lengths must be "
                          "increasing positive integers within the chain")
    e, n, K, M = E.ravel(), int(ends[-1]), ends.size, E.size
    J = _LANES // M if 0 < M < _LANES else 1
    s = _SEGMENT if J > 1 else n
    k = _LOG_GROWTH / math.log(np.abs(e).max(initial=0.0) + np.abs(vals[:n]).max() + 2.0)
    chunk = max(1, int(min(_CHUNK // (J * M or 1), k)))  # k is nan for nan inputs
    vals = np.concatenate([vals[:n], np.zeros(-n % s)])  # whole segments
    seg, nseg = (ends - 1) // s, len(vals) // s  # the segment holding each end
    off = (ends - seg * s).tolist()
    # Rows a, b, c, d and the exponent (an integer, exact in a float) of the
    # raw product at each end, and of the segments before the end's own.
    cap, pre = np.empty((5, K, M)), np.empty((5, K, M))
    run = np.zeros((5, M))
    run[0] = run[3] = 1.0
    for g0 in range(0, nseg, J):
        Jb = min(J, nseg - g0)
        V = vals[g0 * s:(g0 + Jb) * s].reshape(Jb, s).T
        bounds = np.searchsorted(seg, np.arange(g0, g0 + Jb + 1))
        hits = {}  # step -> the ends reached after it
        for i in range(bounds[0], bounds[-1]):
            hits.setdefault(off[i], []).append(i)
        x, y = np.zeros((2, Jb, M)), np.zeros((2, Jb, M))  # rows (a, b) and (c, d)
        x[0] = y[1] = 1.0
        z, x_exp = np.empty_like(x), np.zeros((Jb, M))
        steps = min(s, n - g0 * s)
        for t0 in range(0, steps, chunk):
            if t0:
                _rescale(x, y, x_exp)
            for t, ev in enumerate(e - V[t0:min(t0 + chunk, steps), :, None], t0 + 1):
                np.multiply(ev, x, out=z)
                np.subtract(z, y, out=z)
                x, y, z = z, x, y
                if t in hits:
                    js = seg[hits[t]] - g0
                    cap[:, hits[t]] = np.concatenate([x[:, js], y[:, js], x_exp[None, js]])
        for j in range(Jb):  # the prefix pass over this block's segments
            pre[:, bounds[j]:bounds[j + 1]] = run[:, None]
            if g0 + j + 1 < nseg:
                run = np.concatenate([x[0, j] * run[:2] + x[1, j] * run[2:4],
                                      y[0, j] * run[:2] + y[1, j] * run[2:4],
                                      [run[4] + x_exp[j]]])
                _rescale(run[:2], run[2:4], run[4])
    ab = cap[0] * pre[:2] + cap[1] * pre[2:4]
    cd = cap[2] * pre[:2] + cap[3] * pre[2:4]
    # Power-of-two scaling first, so that the exponent does not depend on the
    # schedule; then the largest entry is divided to exactly 1.
    exps = cap[4] + pre[4]
    _rescale(ab, cd, exps)
    m = np.maximum(np.abs(ab).max(axis=0), np.abs(cd).max(axis=0))
    m[m == 0.0] = 1.0
    ab /= m
    cd /= m
    shape = ((K,) if marks is not None else ()) + E.shape
    return tuple(r.reshape(shape) for r in (*ab, *cd, exps * _LN2 + np.log(m)))


def _rescale(x, y, exps):
    """Scale the row pairs ``x`` and ``y`` in place by one power of two per
    lane so that their largest |entry| lies in [1/2, 1); add its exponent to
    ``exps``."""
    m = np.maximum(np.abs(x).max(axis=0), np.abs(y).max(axis=0))
    e = np.frexp(m)[1]
    np.ldexp(x, -e, out=x)
    np.ldexp(y, -e, out=y)
    exps += e


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
    norm_log = Mat2(*product_grid(sample_potential(spec, 1, n), energies)).op_norm_log()
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

    # (psi_{n+1}, psi_n) = P_n (1, 0), the first column of the product over
    # V_1..V_n; backwards, (psi_{-L+1}, psi_{-L}) = P^-1 (1, 0) = e^s (d, -c)
    # for the product P = e^s [[a, b], [c, d]] over the first block.
    a, b, c, d, logs = product_grid(vals[L:], E, [L, 2 * L])
    _, _, c0, d0, s0 = product_grid(vals[:L], E)
    with np.errstate(divide="ignore", over="ignore"):
        fwd = np.log(np.hypot(a, c)) + logs
        back = np.log(np.hypot(d0, c0)) + s0
        tr_log = np.log(np.abs(a[0] + d[0])) + logs[0]
        three = float(np.exp(max(back, fwd[0], fwd[1])))
        two = float(np.exp(max(tr_log + fwd[0], fwd[1])))
    tr = Mat2(*(float(x[0]) for x in (a, b, c, d, logs))).trace
    return GordonResult(three, two, tr)
