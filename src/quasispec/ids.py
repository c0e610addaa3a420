"""Finite-volume integrated density of states and eigenvalue counting.

Eigenvalues below a threshold are counted through the negative pivots of the
LDL factorization of (H - E): for the tridiagonal Dirichlet restriction this
is the classical Sturm pivot recursion d_i = (V_i - E) - 1/d_{i-1}. A
bordered variant handles the periodic / antiperiodic restrictions whose
matrices carry corner entries. Counts drive both IDS curves and the band-edge
bisection used elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numutil import BigValue, wrap
from .potentials import PotentialSpec, sample_potential
from .transfer import product_grid

# Zero pivots are nudged to this tiny positive value. Tie-breaking rule: an
# eigenvalue lying exactly at E is not counted, keeping the strict-below
# semantics; callers wanting "at or below" shift E by +1e-12.
_PIVOT_FLOOR = 1e-300
# Elements of the V - E block that ``count_below`` builds at once (256 KB of
# float64, the budget of transfer._CHUNK).
_CHUNK = 1 << 15


@dataclass(frozen=True)
class IdsCurve:
    """Sampled distribution function N(E) on a strictly increasing grid."""

    energies: np.ndarray
    values: np.ndarray
    size: int  # number of lattice sites used

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if e.ndim != 1 or e.shape != v.shape:
            raise DomainError("energies and values must be 1d arrays of equal length")
        if not np.all(np.diff(e) > 0):
            raise DomainError("energy grid must be strictly increasing")
        if np.any(np.diff(v) < -1e-12) or v[0] < -1e-12 or v[-1] > 1.0 + 1e-12:
            raise DomainError("values must be monotone nondecreasing within [0, 1]")
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "values", v)

    def at(self, E: float) -> float:
        return float(np.interp(E, self.energies, self.values))


def _fix_pivots(d: np.ndarray) -> np.ndarray:
    return np.where(np.abs(d) < _PIVOT_FLOOR, _PIVOT_FLOOR, d)


def count_below(diag, energies) -> np.ndarray:
    """Eigenvalues strictly below each energy, for the tridiagonal matrix with
    the given diagonal and unit off-diagonals (Dirichlet restriction).

    Each pivot step d = (V - E) - 1/d and its floor fix run in place on
    arrays of the energies' shape. V - E and the pivot signs are built for a
    block of sites at once, at most _CHUNK elements, and the signs are counted
    once per block. The steps are the same float operations whatever the block
    size, so the counts do not depend on it, and the transient memory does not
    grow with the chain.
    """
    vals = np.asarray(diag, dtype=float)
    E = np.atleast_1d(np.asarray(energies, dtype=float))
    rows = max(1, min(len(vals), _CHUNK // (E.size or 1)))
    d = np.full(E.shape, np.inf)  # 1/d = 0 makes the first pivot V_1 - E
    r = np.empty_like(d)
    m = np.empty(E.shape, dtype=bool)
    counts = np.zeros(E.shape, dtype=np.int64)
    block = np.empty((rows,) + E.shape)  # V - E over a block of sites
    signs = np.empty(block.shape, dtype=bool)  # and the signs of their pivots
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for b in range(0, len(vals), rows):
            v_b = vals[b:b + rows]
            ve = np.subtract(v_b.reshape(v_b.shape + (1,) * E.ndim), E, out=block[:len(v_b)])
            neg = signs[:len(v_b)]
            for v, n in zip(ve, neg):
                np.divide(1.0, d, out=r)
                np.subtract(v, r, out=d)
                np.less(np.abs(d, out=r), _PIVOT_FLOOR, out=m)
                np.copyto(d, _PIVOT_FLOOR, where=m)
                np.less(d, 0.0, out=n)
            counts += np.count_nonzero(neg, axis=0)
    return counts


def count_below_periodic(diag, energies, corner) -> np.ndarray:
    """Eigenvalue counts for the restriction with wrap-around boundary phase.

    ``corner`` is +1 for phase 0 and -1 for phase pi; the matrix equals the
    Dirichlet one plus ``corner`` in the (1, L) and (L, 1) entries (with the
    usual degenerate forms for L = 1, 2). The factorization is the bordered
    (arrowhead) elimination, still O(L) per energy.

    Stacked form: B problems of one length L at once, with ``diag`` site-major
    of shape (L, B), ``corner`` of shape (B,) and ``energies`` of shape (B, M);
    the counts have shape (B, M). Each problem sees exactly the arithmetic of
    its own 1-D call.
    """
    vals = np.asarray(diag, dtype=float)
    if vals.ndim == 1:
        E = np.atleast_1d(np.asarray(energies, dtype=float))
        return _count_periodic(vals[:, None, None], E[None, :],
                               np.array([[corner]], dtype=float))[0]
    return _count_periodic(vals[:, :, None], np.asarray(energies, dtype=float),
                           np.asarray(corner, dtype=float)[:, None])


def _count_periodic(vals, E, corner):
    """``count_below_periodic`` on vals (L, B, 1), E (B, M), corner (B, 1)."""
    L = len(vals)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if L == 1:
            d = vals[0] + 2.0 * corner - E
            return (d < 0).astype(np.int64)
        if L == 2:
            off = 1.0 + corner
            d1 = _fix_pivots(vals[0] - E)
            d2 = _fix_pivots((vals[1] - E) - off * off / d1)
            return (d1 < 0).astype(np.int64) + (d2 < 0)
        d = _fix_pivots(vals[0] - E)
        counts = (d < 0).astype(np.int64)
        f = np.broadcast_to(corner, E.shape)  # fill-in of the last column
        s = vals[L - 1] - E                   # running Schur complement of the corner
        for k in range(L - 2):
            s = s - f * f / d
            f = (1.0 if k + 1 == L - 2 else 0.0) - f / d
            # Saturate to keep inf/inf out of the next division; only the
            # pivot signs matter for the count.
            f = np.minimum(np.maximum(f, -1e150), 1e150)
            s = np.minimum(np.maximum(s, -1e150), 1e150)
            d = _fix_pivots((vals[k + 1] - E) - 1.0 / d)
            counts += d < 0
        d_last = _fix_pivots(s - f * f / d)
        counts += d_last < 0
    return counts


def eigen_count(values, E: float) -> int:
    """Number of eigenvalues strictly below E of the Dirichlet restriction
    with diagonal ``values``. Callers wanting 'at or below' semantics shift
    E by a small positive amount."""
    vals = np.asarray(values, dtype=float)
    if len(vals) == 0:
        raise DomainError("eigen_count needs a nonempty window")
    return int(count_below(vals, np.array([E]))[0])


def bisect_eigenvalues(count_fn, how_many: int, lo, hi,
                       iters: int = 60) -> np.ndarray:
    """All ``how_many`` eigenvalues of a counting function by parallel bisection.

    ``count_fn`` maps an energy array to strict-below counts; eigenvalue k is
    the infimum of {E : count(E) >= k}. With (B,) brackets ``lo`` and ``hi``,
    B problems are solved at once: ``count_fn`` then maps a (B, how_many)
    array to counts of that shape, and so does the result.
    """
    ks = np.arange(1, how_many + 1)
    shape = np.shape(lo) + (how_many,)
    lo_a = np.broadcast_to(np.asarray(lo, dtype=float)[..., None], shape)
    hi_a = np.broadcast_to(np.asarray(hi, dtype=float)[..., None], shape)
    for _ in range(iters):
        mid = 0.5 * (lo_a + hi_a)
        ge = count_fn(mid) >= ks
        hi_a = np.where(ge, mid, hi_a)
        lo_a = np.where(ge, lo_a, mid)
    return 0.5 * (lo_a + hi_a)


def ids_curve(spec: PotentialSpec, omega: float | None, L: int, grid) -> IdsCurve:
    """Finite-volume IDS: eigenvalue counts on the window [-L, L] (2L+1 sites)
    divided by 2L+1, evaluated at every grid energy."""
    if L < 1:
        raise DomainError("window half-size L must be at least 1")
    if omega is not None:
        spec = spec.with_omega(omega)
    diag = sample_potential(spec, -L, L)
    e = np.asarray(grid, dtype=float)
    counts = count_below(diag, e)
    return IdsCurve(e, counts / (2 * L + 1), 2 * L + 1)


def free_ids(E) -> np.ndarray | float:
    """Closed-form IDS of the zero-potential chain: 1/2 + arcsin(E/2)/pi on
    [-2, 2], clamped to 0/1 outside."""
    e = np.asarray(E, dtype=float)
    out = 0.5 + np.arcsin(np.clip(e / 2.0, -1.0, 1.0)) / math.pi
    out = np.where(e <= -2.0, 0.0, np.where(e >= 2.0, 1.0, out))
    return float(out) if np.isscalar(E) or out.ndim == 0 else out


def thouless_gamma(curve: IdsCurve, E: float) -> float:
    """Lyapunov exponent from the distribution function: the Stieltjes sum of
    ln|E - E'| against the grid increments of N.

    The grid cell containing E would make the logarithm singular; it
    contributes ln(cell width / 2) times its increment instead (midpoint
    regularization of the integrable singularity).
    """
    e = curve.energies
    mids = 0.5 * (e[1:] + e[:-1])
    widths = np.diff(e)
    dN = np.diff(curve.values)
    dist = np.abs(E - mids)
    singular = dist <= widths / 2.0 + 1e-12
    with np.errstate(divide="ignore"):
        terms = np.where(singular, np.log(widths / 2.0), np.log(np.maximum(dist, 1e-300)))
    return float(np.sum(terms * dN))


def char_poly_value(values, E: float) -> BigValue:
    """det(E - H) for the Dirichlet restriction to sites 1..L: psi_{L+1} of
    the forward recursion with psi_0 = 0, psi_1 = 1, which is the ``a``
    entry of the transfer product.

    Returns a float, or a (sign, log_abs) pair once the value leaves float
    range.
    """
    a, _, _, _, logs = (float(x) for x in product_grid(values, E))
    if a == 0.0:
        return 0.0
    return wrap(1 if a > 0 else -1, math.log(abs(a)) + logs)
