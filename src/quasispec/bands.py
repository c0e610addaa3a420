"""Floquet band spectra of periodic chains, gap labels and butterfly sweeps.

The spectrum of an L-periodic chain is {E : |tr T_{1..L}(E)| <= 2}. Its 2L
band edges are the roots of tr = +-2, i.e. the eigenvalues of the L-site
restriction with wrap-around boundary phase 0 and pi. Both restrictions are
real symmetric, and their eigenvalues are extracted by bisection on an
eigenvalue count, which stays robust for periods in the thousands where
root-finding on the trace polynomial would not.

A period that is (a cyclic shift of) a substitution level block, as
``PeriodicPotential.level_word`` records for substitution and golden-mean
Sturmian approximants, counts both restrictions at once from the lift of the
one block product, ``transfer.block_product``, O(log L) products per energy
(``ids.floquet_count``). Every other period, and the almost-Mathieu,
butterfly and phase-union spectra, take the bordered pivot counter, O(L) per energy, in one stacked
bisection: both restrictions of a band set, and in a butterfly all rows of
one denominator q, are counted together, each with the arithmetic it would
get alone. Both edge sets go through the same merge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import DomainError
from .ids import (BISECTION_HALVINGS, IdsCurve, bisect_eigenvalues, count_below_periodic,
                  floquet_count)
from .potentials import MAX_FLOQUET_STEPS, LevelWord, PeriodicPotential, cosine_period
from .transfer import product_grid

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


def band_spectrum(p: PeriodicPotential) -> BandSet:
    """Band set of the L-periodic potential.

    Edges come from the phase-0 and phase-pi eigenproblems; consecutive edge
    pairs bound the bands. A gap is treated as closed, and its neighbours
    merged, when it is narrower than CLOSED_GAP_TOL or when |trace| at its
    midpoint exceeds 2 by less than that. A period with a ``level_word``
    takes all 2L edges from one bisection of the combined count of its lifted
    block product (``ids.floquet_count``), every other one from the stacked
    pivot counts. DomainError if the edges would take more than
    MAX_FLOQUET_STEPS steps (``_bisection_steps``, ``_lifted_steps``).
    """
    L, vals, word = p.period, np.asarray(p.values, dtype=float), p.level_word
    if word is None:
        _check_steps(_bisection_steps(1, L))
        return _band_sets(vals[None, :])[0]
    _check_steps(_lifted_steps(word))
    edges = bisect_eigenvalues(lambda E: floquet_count(word, E), 2 * L,
                               vals.min() - 4.0, vals.max() + 4.0)
    return _merge(vals, np.sort(edges), math.log(2.0 + CLOSED_GAP_TOL))


def _band_sets(rows: np.ndarray) -> list[BandSet]:
    """``band_spectrum`` of every row of ``rows`` (R periods of one length),
    with the edges of all 2R restrictions from one stacked bisection."""
    R = len(rows)
    edges = _wraparound_edges(np.repeat(rows, 2, axis=0), np.tile([1.0, -1.0], R),
                              np.repeat(rows.min(axis=1) - 4.0, 2),
                              np.repeat(rows.max(axis=1) + 4.0, 2))
    return [_merge(vals, row_edges, math.log(2.0 + CLOSED_GAP_TOL))
            for vals, row_edges in zip(rows, edges)]


def _bisection_steps(R: int, L: int) -> int:
    """Pivot steps of the stacked bisection of R band sets of period L:
    BISECTION_HALVINGS halvings of the L edges of each of the 2R restrictions,
    each count an L-site sweep."""
    return BISECTION_HALVINGS * 2 * R * L * L


def _lifted_steps(word: LevelWord) -> int:
    """Steps of the lifted edges of the L-site level block ``word``:
    BISECTION_HALVINGS halvings of 2L edges, each count the k levels' products
    of every letter's image, and the merge's trace check of up to 2L - 1 gap
    midpoints over L sites, which dominates from a few thousand sites on."""
    (level, _), = word.blocks
    L, products = word.sites, level * sum(len(w) for w in word.rule.images.values())
    return BISECTION_HALVINGS * 2 * L * products + L * (2 * L - 1)


def _check_steps(steps: int) -> None:
    if steps > MAX_FLOQUET_STEPS:
        raise DomainError(f"Floquet edges take {steps} steps, above the budget "
                          f"of {MAX_FLOQUET_STEPS}")


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
    # Gap k lies between raw bands k and k+1; the merge decides each gap on its
    # own. A width that overflows to inf is an open gap; its midpoint is summed
    # from halves, which cannot overflow.
    with np.errstate(over="ignore"):
        closed = lo[1:] - hi[:-1] <= CLOSED_GAP_TOL
    check = np.flatnonzero(~closed)
    a, _, _, d, logs = product_grid(vals, 0.5 * lo[1:][check] + 0.5 * hi[:-1][check])
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


def butterfly(lam: float, q_max: int, omega: float = 0.0) -> list[tuple[int, int, BandSet]]:
    """Band sets of the cosine chain at every reduced fraction alpha = p/q with
    q <= q_max, ordered by (q, p). q = 1 contributes the single row (0, 1).

    The rows of one q share one stacked bisection. DomainError, before any
    is run, if all of them would take more than MAX_FLOQUET_STEPS pivot steps.
    """
    if q_max < 1:
        raise DomainError("q_max must be at least 1")
    fractions, steps = [], 0
    for q in range(1, q_max + 1):
        ps = [p for p in range(1, q) if gcd(p, q) == 1] or [0]
        steps += _bisection_steps(len(ps), q)
        _check_steps(steps)
        fractions.append((q, ps))
    out = []
    for q, ps in fractions:
        rows = np.array([cosine_period(lam, p, q, omega) for p in ps])
        out.extend(zip(ps, [q] * len(ps), _band_sets(rows)))
    return out


def phase_union_spectrum(lam: float, p: int, q: int) -> BandSet:
    """Spectrum of the rational-alpha cosine chain as an operator family: the
    union over phases of the q-periodic spectra.

    The q-periodic trace splits as tr(E, omega) = D(E) + s c cos(2 pi q omega)
    with c = 2 (|lam|/2)^q, so the union is {E : |D(E)| <= 2 + c}. Only the
    product term (-1)^q prod V_n of the trace depends on omega (Chambers'
    formula), and its omega part is -2 (lam/2)^q cos(2 pi q omega) for odd q
    and -2 (|lam|/2)^q cos(2 pi q omega) for even q: s = -sign(lam)^q, which
    is -1 unless lam < 0 and q is odd. Its 2q edges are the antiperiodic
    eigenvalues at the phase where the modulation is +c and the periodic
    eigenvalues at the phase where it is -c.
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
    _check_steps(_bisection_steps(1, q))

    def values(omega: float) -> np.ndarray:
        return np.array(cosine_period(lam, p, q, omega))

    # The modulation s c cos(2 pi q omega) is +c at omega_plus, -c at omega_minus.
    half = 1.0 / (2.0 * q)
    omega_plus, omega_minus = (0.0, half) if lam < 0 and q % 2 else (half, 0.0)
    v_plus = values(omega_plus)
    v_minus = values(omega_minus)
    lo0 = float(min(v_plus.min(), v_minus.min())) - 4.0
    hi0 = float(max(v_plus.max(), v_minus.max())) + 4.0
    # D = -(2+c)  <=>  tr at omega_plus = -2 (antiperiodic eigenvalues);
    # D = +(2+c)  <=>  tr at omega_minus = +2 (periodic eigenvalues).
    edges = _wraparound_edges(np.stack([v_plus, v_minus]), np.array([-1.0, 1.0]),
                              np.full(2, lo0), np.full(2, hi0))[0]
    log_c = math.log(2.0) + q * math.log(abs(lam) / 2.0) if lam else -math.inf
    log_bound = float(np.logaddexp(math.log(2.0), log_c)) + math.log1p(CLOSED_GAP_TOL)
    # D is the trace at the quarter phase, where the modulation vanishes.
    return _merge(values(1.0 / (4.0 * q)), edges, log_bound)


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
