"""Floquet band spectra of periodic chains, gap labels and butterfly sweeps.

The spectrum of an L-periodic chain is {E : |tr T_{1..L}(E)| <= 2}. Its 2L
band edges are the roots of tr = +-2, i.e. the eigenvalues of the L-site
restriction with wrap-around boundary phase 0 and pi. Both restrictions are
real symmetric, and their eigenvalues are extracted by bisection with the
bordered pivot counter, which stays robust for periods in the thousands
where root-finding on the trace polynomial would not. Every edge comes from
one stacked bisection: both restrictions of a band set, and in a butterfly
all rows of one denominator q, are counted together, each with the
arithmetic it would get alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import DomainError
from .ids import IdsCurve, bisect_eigenvalues, count_below_periodic
from .potentials import PeriodicPotential
from .transfer import product_grid, propagate

# Gaps narrower than this are reported as closed and merged.
CLOSED_GAP_TOL = 1e-9


@dataclass(frozen=True)
class BandSet:
    """Sorted disjoint closed energy intervals, with optional gap labels
    (one IDS value per gap, in gap order)."""

    bands: tuple[tuple[float, float], ...]
    gap_labels: tuple[float, ...] | None = None

    def __post_init__(self):
        prev_hi = -math.inf
        for lo, hi in self.bands:
            if lo > hi:
                raise DomainError("band with lo > hi")
            if lo < prev_hi:
                raise DomainError("bands must be sorted and disjoint")
            prev_hi = hi
        if self.gap_labels is not None and len(self.gap_labels) != max(0, len(self.bands) - 1):
            raise DomainError("need one label per gap")

    def gaps(self) -> list[tuple[float, float]]:
        return [(self.bands[i][1], self.bands[i + 1][0])
                for i in range(len(self.bands) - 1)]

    def __len__(self) -> int:
        return len(self.bands)


def band_spectrum(p: PeriodicPotential, tol: float = CLOSED_GAP_TOL) -> BandSet:
    """Band set of the L-periodic potential.

    Edges come from the phase-0 and phase-pi eigenproblems; consecutive edge
    pairs bound the bands. A gap is treated as closed, and its neighbours
    merged, when it is narrower than CLOSED_GAP_TOL or when the trace at its
    midpoint exceeds 2 in absolute value by less than ``tol``.
    """
    return _band_sets(np.asarray(p.values, dtype=float)[None, :], tol)[0]


def _band_sets(rows: np.ndarray, tol: float) -> list[BandSet]:
    """``band_spectrum`` of every row of ``rows`` (R periods of one length),
    with the edges of all 2R restrictions from one stacked bisection."""
    R = len(rows)
    edges = _wraparound_edges(np.repeat(rows, 2, axis=0), np.tile([1.0, -1.0], R),
                              np.repeat(rows.min(axis=1) - 4.0, 2),
                              np.repeat(rows.max(axis=1) + 4.0, 2))
    return [_merge(vals, row_edges, math.log(2.0 + tol))
            for vals, row_edges in zip(rows, edges)]


def _wraparound_edges(vals: np.ndarray, corners: np.ndarray, lo: np.ndarray,
                      hi: np.ndarray) -> np.ndarray:
    """Sorted edges of R band sets from one stacked bisection.

    Rows 2r and 2r+1 of ``vals`` (2R, L) are the two wrap-around restrictions
    of band set r, with corner entries ``corners`` and brackets [lo, hi]
    (each of shape (2R,)); row r of the (R, 2L) result holds their 2L
    eigenvalues in ascending order.
    """
    B, L = vals.shape
    diag = np.ascontiguousarray(vals.T)
    e = bisect_eigenvalues(lambda E: count_below_periodic(diag, E, corners), L, lo, hi)
    return np.sort(e.reshape(B // 2, 2 * L), axis=1)


def _merge(vals: np.ndarray, edges: np.ndarray, log_bound: float) -> BandSet:
    """Bands between consecutive sorted ``edges``, joined across every gap
    that is narrower than CLOSED_GAP_TOL or at whose midpoint the trace over
    the period ``vals`` is at most e^log_bound in absolute value."""
    lo, hi = edges[0::2], edges[1::2]
    # Gap k lies between raw bands k and k+1; the merge decides each gap on its own.
    closed = lo[1:] - hi[:-1] <= CLOSED_GAP_TOL
    check = np.flatnonzero(~closed)
    a, _, _, d, logs = product_grid(vals, 0.5 * (lo[1:][check] + hi[:-1][check]))
    # Compared in the log domain, which cannot overflow.
    with np.errstate(divide="ignore"):
        closed[check] = np.log(np.abs(a + d)) + logs <= log_bound
    return _join(lo, hi, closed)


def _join(lo: np.ndarray, hi: np.ndarray, closed: np.ndarray) -> BandSet:
    """Bands [lo[k], hi[k]] joined across every gap k (after band k) marked closed."""
    open_gaps = np.flatnonzero(~closed)
    starts = np.concatenate(([0], open_gaps + 1))
    ends = np.concatenate((open_gaps, [len(lo) - 1]))
    return BandSet(tuple(zip(lo[starts].tolist(), hi[ends].tolist())))


def gap_labels(bands: BandSet, L: int) -> BandSet:
    """Label the gap after band k with k/L (periodic gap labeling)."""
    labels = tuple(k / L for k in range(1, len(bands)))
    return BandSet(bands.bands, labels)


def total_bandwidth(bands: BandSet) -> float:
    """Lebesgue measure of the band set."""
    return float(sum(hi - lo for lo, hi in bands.bands))


def butterfly(lam: float, q_max: int, omega: float = 0.0,
              threads: int = 1) -> list[tuple[int, int, BandSet]]:
    """Band sets of the cosine chain at every reduced fraction alpha = p/q with
    q <= q_max, ordered by (q, p). q = 1 contributes the single row (0, 1).

    The rows of one q share one stacked bisection. ``threads`` is accepted
    and ignored.
    """
    if q_max < 1:
        raise DomainError("q_max must be at least 1")
    out = []
    for q in range(1, q_max + 1):
        ps = [p for p in range(1, q) if gcd(p, q) == 1] or [0]
        rows = np.array([[lam * math.cos(2.0 * math.pi * (n * p / q + omega))
                          for n in range(1, q + 1)] for p in ps])
        out.extend(zip(ps, [q] * len(ps), _band_sets(rows, CLOSED_GAP_TOL)))
    return out


def phase_union_spectrum(lam: float, p: int, q: int) -> BandSet:
    """Spectrum of the rational-alpha cosine chain as an operator family: the
    union over phases of the q-periodic spectra.

    The q-periodic trace splits as tr(E, omega) = D(E) + s c cos(2 pi q omega)
    with c = 2 (|lam|/2)^q and s = +-1, so the union is {E : |D(E)| <= 2 + c}.
    Its 2q edges are the antiperiodic eigenvalues at the phase where the
    modulation is +c and the periodic eigenvalues at the phase where it is -c.
    A gap is joined when it is narrower than CLOSED_GAP_TOL or when
    |D| <= (2 + c)(1 + CLOSED_GAP_TOL) at its midpoint: at even q two bands
    touch at E = 0 (van Mouche, CMP 1989), where the bisection can leave a
    spurious gap of about 1e-9.
    (Fixed-phase approximant bands shrink to measure zero whenever the
    Lyapunov exponent is positive on the spectrum; the family spectrum is the
    object whose measure converges.)
    """
    if q < 1 or not 0 <= p <= q or (q > 1 and gcd(p, q) != 1):
        raise DomainError("need a reduced fraction p/q with q >= 1")

    def values(omega: float) -> np.ndarray:
        n = np.arange(1, q + 1)
        return lam * np.cos(2.0 * math.pi * (n * p / q + omega))

    # D is the trace at the quarter phase, where the modulation vanishes. The
    # sign of the modulation at omega = 0 is read off at a zero of D, where
    # the trace equals s c exactly (no cancellation).
    quarter = 1.0 / (4.0 * q)
    grid = np.linspace(-abs(lam) - 2.5, abs(lam) + 2.5, 8 * q + 5)
    v_quarter = values(quarter)
    ta, _, _, td, _ = product_grid(v_quarter, grid)
    signs = np.where(ta + td < 0.0, -1.0, 1.0)
    changes = np.flatnonzero(signs[:-1] != signs[1:])
    if not changes.size:
        raise DomainError("could not locate a zero of the phase-free trace part")
    i = int(changes[0])
    a, b = float(grid[i]), float(grid[i + 1])
    for _ in range(80):
        mid = 0.5 * (a + b)
        if math.copysign(1.0, propagate(mid, v_quarter).trace) == signs[i]:
            a = mid
        else:
            b = mid
    z = 0.5 * (a + b)
    s = math.copysign(1.0, propagate(z, values(0.0)).trace)

    omega_plus = 0.0 if s > 0 else 1.0 / (2.0 * q)   # modulation +c here
    omega_minus = 1.0 / (2.0 * q) if s > 0 else 0.0  # modulation -c here
    v_plus = values(omega_plus)
    v_minus = values(omega_minus)
    lo0 = float(min(v_plus.min(), v_minus.min())) - 4.0
    hi0 = float(max(v_plus.max(), v_minus.max())) + 4.0
    # D = -(2+c)  <=>  tr at omega_plus = -2 (antiperiodic eigenvalues);
    # D = +(2+c)  <=>  tr at omega_minus = +2 (periodic eigenvalues).
    edges = _wraparound_edges(np.stack([v_plus, v_minus]), np.array([-1.0, 1.0]),
                              np.full(2, lo0), np.full(2, hi0))[0]
    log_c = math.log(2.0) + q * math.log(abs(lam) / 2.0) if lam else -math.inf
    return _merge(v_quarter, edges, float(np.logaddexp(math.log(2.0), log_c))
                  + math.log1p(CLOSED_GAP_TOL))


@dataclass(frozen=True)
class GapLabelMatch:
    gap_index: int      # gap sits after this band (1-based)
    energy: float       # gap midpoint
    ids_value: float    # IDS sampled at the midpoint
    label: float        # nearest admissible label
    deviation: float
    within_tol: bool


def match_gap_labels(bands: BandSet, ids: IdsCurve, labels, tol: float) -> list[GapLabelMatch]:
    """Match the IDS value at every gap midpoint to the nearest admissible label."""
    lab = np.asarray(sorted(labels), dtype=float)
    report = []
    for k, (g_lo, g_hi) in enumerate(bands.gaps(), start=1):
        mid = 0.5 * (g_lo + g_hi)
        val = ids.at(mid)
        j = int(np.argmin(np.abs(lab - val)))
        dev = abs(float(lab[j]) - val)
        report.append(GapLabelMatch(k, mid, val, float(lab[j]), dev, dev <= tol))
    return report


def _directed_hausdorff(a: BandSet, b: BandSet) -> float:
    """sup over points of a of the distance to b, for unions of closed intervals."""
    if not a.bands or not b.bands:
        return math.inf if a.bands != b.bands else 0.0

    def dist_to_b(x: float) -> float:
        return min(0.0 if lo <= x <= hi else min(abs(x - lo), abs(x - hi))
                   for lo, hi in b.bands)

    candidates = [x for lo, hi in a.bands for x in (lo, hi)]
    # Deep interior points of a facing a gap of b are the gap midpoints.
    for g_lo, g_hi in b.gaps():
        mid = 0.5 * (g_lo + g_hi)
        if any(lo <= mid <= hi for lo, hi in a.bands):
            candidates.append(mid)
    return max(dist_to_b(x) for x in candidates)


def hausdorff_distance(a: BandSet, b: BandSet) -> float:
    """Hausdorff distance between two unions of closed intervals."""
    return max(_directed_hausdorff(a, b), _directed_hausdorff(b, a))
