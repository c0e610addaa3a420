"""Finite-volume integrated density of states and eigenvalue counting.

Eigenvalues below a threshold are counted through the negative pivots of the
LDL factorization of (H - E): for the tridiagonal Dirichlet restriction this
is the classical Sturm pivot recursion d_i = (V_i - E) - 1/d_{i-1}
(Barth-Martin-Wilkinson 1967), with zero pivots replaced by a tiny value as
in Kahan (1966). A bordered variant handles the periodic / antiperiodic
restrictions whose matrices carry corner entries; there a pivot that is zero
up to rounding is taken with the next site as one 2x2 pair in its exact
limit, as a floored pivot would blow up the border rows and lose their
cancellation. Counts drive both IDS curves and the band-edge bisection used
elsewhere, which counts a tree of nested midpoints of every bracket at once
(multisection, Lo, Philippe & Sameh, SIAM J. Sci. Stat. Comput. 1987) and
walks it down node by node, so that its edges are those of one halving per
count bit for bit.

Chain segments written as substitution level blocks (``potentials.LevelWord``:
fixed-point windows, those of the golden-mean Sturmian at every phase
included, and level-block periods) are counted without a sweep:
the count is a rotation number (Johnson-Moser, CMP 1982), read from the
integer lift of the one block product, ``transfer.block_product``, O(log L)
2x2 products per energy (``dirichlet_count``, ``floquet_count``). The pivot
counts stay the path of every other chain and the oracle of the lifted ones.
The lifted Floquet count also gives a smooth function of the energy that
vanishes at the band edges, from the trace of the same product
(``_floquet_count``). Its bisection (``_guided``) steps a bracket that holds
one edge by regula falsi on that function (Anderson-Bjorck's Illinois-type
scaling) and keeps the tree elsewhere; the brackets still move only on the
count, and a last pass replays the halvings from their ends. So where the
count is monotone the edges are those of one halving per count bit for bit,
in about a third of the counts at golden q = 377.

Both counts run one block sweep, ``_sweep``: per site only the recursion
runs, into a block of stored pivots (and, bordered, fill-in and Schur rows).
The guards, the pivot floor and the saturation of the bordered rows, are
checked once per block on the stored values; a block where one would have
acted is rerun from its starting state with the guards at every site. The
counts are therefore those of the per-site guarded recursion, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numutil import BigValue, reject_nan, wrap
from . import transfer
from .potentials import LevelWord, PotentialSpec, fixed_point_window, sample_potential
from .transfer import block_product, product_grid

# Zero pivots are nudged to this tiny positive value. Tie-breaking rule: an
# eigenvalue lying exactly at E is not counted, keeping the strict-below
# semantics; callers wanting "at or below" shift E by +1e-12.
_PIVOT_FLOOR = 1e-300
# The fill-in and Schur entries of the bordered count are saturated at this
# magnitude, which keeps inf/inf out of their divisions; only the pivot signs
# matter for the count.
_SATURATION = 1e150
# A bordered pivot below this, times |E| + max|V| + 2, is taken together with
# the next leading site as one pair in its exact limit (``_pivot_rows``).
_PAIR_TOL = 1e-12
# Halvings of every bracket in ``bisect_eigenvalues``; the Floquet step
# budgets of ``bands`` count them.
BISECTION_HALVINGS = 60
# Energies one count call of ``bisect_eigenvalues`` holds at most, unless one
# halving of every bracket needs more; the depth of its multisection is the
# largest that fits. The depth changes no bit. Budget sweep
# (scripts/bisection_sweep.py, best of 12 calls, budgets interleaved, the
# better of two runs) on a 2-core x86 machine, ms for almost-Mathieu q = 89 /
# q = 144 / a random 300-site period / golden q = 377 (lifted) / butterfly
# qmax 10: one halving per call 30 / 68 / 159 / 70 / 87, budget 256 27 / 65 /
# 139 / 63 / 52, 512 28 / 63 / 138 / 63 / 46, 1024 23 / 49 / 141 / 63 / 43,
# 2048 26 / 57 / 158 / 62 / 45, 4096 38 / 63 / 155 / 74 / 47. The guided
# lifted edges (same script, best of 3, one run), golden q = 377 / the same
# at lambda = 16 / Thue-Morse order 10: one halving per call 84 / 98 / 214,
# 256 45 / 65 / 188, 512 45 / 64 / 190, 1024 40 / 67 / 194, 2048 51 / 75 /
# 204, 4096 74 / 94 / 226.
_BISECTION_LANES = 1024
# The guided edges of ``_guided``: a bracket takes a regula falsi point only
# where one of its ends' smooth values exceeds _FLAT in magnitude (closer to
# zero they are rounding), and only while it is at most 2^_SLACK times as wide
# as one halving per point and d per tree of depth d would have left it.
# Chosen on golden q = 55 to 377, Thue-Morse order 6, period doubling order 5
# and Fibonacci order 9: without the _FLAT test Thue-Morse order 6 took 23
# calls, with _SLACK 1 or 2 golden q = 377 took 28 or 16, at 4 to 8 it took
# 15 (the multisection: 18 and 51).
_FLAT = 1e-13
_SLACK = 4


@dataclass(frozen=True)
class IdsCurve:
    """Sampled distribution function N(E) on a nonempty, strictly increasing grid."""

    energies: np.ndarray
    values: np.ndarray
    size: int  # number of lattice sites used

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if e.ndim != 1 or e.shape != v.shape or not e.size:
            raise DomainError("energies and values must be nonempty 1d arrays of equal length")
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

    The pivots d = (V - E) - 1/d are swept over blocks of sites (see
    ``_sweep``): per site only the recursion runs, and the pivot floor is
    checked once per block on the stored pivots. A block with a pivot in
    (-_PIVOT_FLOOR, _PIVOT_FLOOR) is rerun from its starting pivots with the
    floor applied at every site, so the counts equal those of a per-site
    guarded recursion bit for bit, whatever the block size, and the transient
    memory does not grow with the chain.
    """
    vals = np.asarray(diag, dtype=float)
    E = np.atleast_1d(np.asarray(energies, dtype=float))
    reject_nan(vals, E)
    return _sweep(vals.reshape(vals.shape + (1,) * E.ndim), E)[0]


def count_below_periodic(diag, energies, corner) -> np.ndarray:
    """Eigenvalue counts for the restriction with wrap-around boundary phase.

    ``corner`` is +1 for phase 0 and -1 for phase pi; the matrix equals the
    Dirichlet one plus ``corner`` in the (1, L) and (L, 1) entries (with the
    usual degenerate forms for L = 1, 2). The factorization is the bordered
    (arrowhead) elimination, still O(L) per energy: the pivots of the first
    L - 1 sites, the fill-in f of the last column and the Schur complement s
    of the corner. For L >= 2 it runs on the block sweep of ``count_below``;
    f and s are saturated at +-_SATURATION, a guard checked once per block
    like the pivot floor (a NaN also reruns the block), so the counts equal
    those of the per-site guarded elimination bit for bit. An empty diagonal
    gives zero counts.

    Stacked form: B problems of one length L at once, with ``diag`` site-major
    of shape (L, B), ``corner`` of shape (B,) and ``energies`` of shape (B, M);
    the counts have shape (B, M). Each problem sees exactly the arithmetic of
    its own 1-D call. A NaN raises DomainError; ``_count_below_periodic``,
    the count itself, skips that check for a bisection whose values were
    checked once.
    """
    reject_nan(diag, energies, corner)
    return _count_below_periodic(diag, energies, corner)


def _count_below_periodic(diag, energies, corner) -> np.ndarray:
    """``count_below_periodic`` without its NaN check."""
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
        if L == 0:
            return np.zeros(E.shape, dtype=np.int64)
        if L == 1:
            d = vals[0] + 2.0 * corner - E
            return (d < 0).astype(np.int64)
        # Eliminating pivot k turns the last column's fill-in f into
        # c - f / d_k (c = 1 at k = L - 3, where the band meets the column)
        # and the corner's Schur complement s into s - f^2 / d_k; after the
        # last pivot, s is the last pivot itself (a saturation keeps its sign
        # and keeps it beyond the floor). f starts as the (1, L) entry, the
        # corner plus [L = 2]: at L = 2 (k = -1) the band meets the column
        # before the first pivot.
        counts, (_, s) = _sweep(vals[:L - 1], E, (corner + (L == 2), vals[L - 1] - E, L - 3,
                                                  np.abs(vals).max(axis=0)))
        return counts + (_fix_pivots(s) < 0)


def _sweep(vals, E, border=None):
    """Negative pivots of d_i = (V_i - E) - 1/d_{i-1} over the sites of ``vals``
    (a leading site axis, broadcasting against E), from d = +inf, so that
    1/d = 0 makes the first pivot V_1 - E.

    With ``border`` = (f, s, k, vmax), each pivot d_i also eliminates the
    border pair: s <- s - f * f / d_i and f <- c_i - f / d_i, with c_i = 1 at
    i = k and 0 elsewhere; a guarded pivot below tol = _PAIR_TOL (|E| + vmax
    + 2) in magnitude, vmax the largest |V| of the problem, is paired with
    the next site instead (``_pivot_rows``). Returns the counts (E's shape)
    and the final (f, s).

    Sites go in blocks whose pivots (and f, s) rows, with one bool row each
    for the signs, take at most 8 * transfer._CHUNK bytes. Per site only the
    recursion runs. Each block is then checked once: a stored pivot in
    (-_PIVOT_FLOOR, _PIVOT_FLOOR), or with a border one that may start a
    pair in (-lo, lo), lo a bound on every tol from the largest |E| and
    vmax, or an f or s beyond +-_SATURATION or NaN, means a guard may have
    acted, and the block is rerun from the state at its start with the
    guards applied at every site; a block after one whose last site begins
    a pair runs guarded at once. The first site where a
    guard acts has the same unguarded values either way, so the check
    misses none; where none acts, the guards change no bit. Signs are
    counted once per block.
    """
    L = len(vals)
    # Per element of a row: an 8-byte pivot and a 1-byte sign (and 16 bytes of f, s).
    row_bytes = E.size * (9 if border is None else 25)
    rows = max(1, min(L, 8 * transfer._CHUNK // (row_bytes or 1)))
    P = np.empty((rows,) + E.shape)  # V - E, overwritten by the pivots
    signs = np.empty(P.shape, dtype=bool)
    d = np.full(E.shape, np.inf)
    r, t = np.empty(E.shape), np.empty(E.shape)
    counts = np.zeros(E.shape, dtype=np.int64)
    fs = FS = None
    k, tol, lo, m, opened = -1, None, _PIVOT_FLOOR, L, False  # rows before m may start a pair
    if border is not None:
        f, s, k, vmax = border
        # Rounding is monotone, so lo bounds the tol of every lane (fmax
        # skips NaN lanes, whose tol is NaN and pairs nothing).
        top = [np.fmax.reduce(a, axis=None, initial=0.0) for a in (np.abs(E), vmax)]
        lo = _PAIR_TOL * (top[0] + top[1] + 2.0)
        m = L - 1
        fs = np.array([np.broadcast_to(f, E.shape), s])
        FS = np.empty((2,) + P.shape)  # the (f, s) rows after each pivot
    # A chain of one value per site forms its V - E blocks as one product
    # [1, V] @ [-E; 1], as ``transfer._differences`` forms E - V: the same
    # bits, (-E) - (-V) being V - E, but where a value of -0.0 meets an
    # energy of +0.0, which the broadcast keeps.
    one_v = None
    if (vals.size == L and transfer._PRODUCT_LANES <= E.size <= transfer._CHUNK
            and not np.signbit(vals[vals == 0.0]).any()):
        one_v, e_one = np.ones((rows, 2)), np.stack([-E.ravel(), np.ones(E.size)])
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for b in range(0, L, rows):
            n = min(rows, L - b)
            p, neg = P[:n], signs[:n]
            x = None if FS is None else FS[:, :n]
            for guard in (True,) if opened else (False, True):
                if guard and border is not None and tol is None:
                    tol = _PAIR_TOL * (np.abs(E) + vmax + 2.0)
                if one_v is None:
                    np.subtract(vals[b:b + n], E, out=p)
                else:
                    one_v[:n, 1] = vals[b:b + n].ravel()
                    np.matmul(one_v[:n], e_one, out=p.reshape(n, -1))
                _pivot_rows(p, d, x, fs, k - b, guard, r, t, (tol, m - b))
                if guard:
                    negs = np.count_nonzero(np.less(p, 0.0, out=neg), axis=0)
                    break
                # No pivot lies in (-lo, lo) iff as many lie below lo as at
                # or below -lo; then these are the negative ones.
                below = np.count_nonzero(np.less(p, lo, out=neg))
                negs = np.count_nonzero(np.less_equal(p, -lo, out=neg), axis=0)
                if b + n > m and below != negs.sum():  # rows from m take the floor as lo
                    last = p[m - b:]
                    below += np.count_nonzero(last < _PIVOT_FLOOR) - np.count_nonzero(last < lo)
                    negs += (np.count_nonzero(last <= -_PIVOT_FLOOR, axis=0)
                             - np.count_nonzero(last <= -lo, axis=0))
                if below == negs.sum() and (
                        x is None or (np.max(x, initial=-np.inf) <= _SATURATION
                                      and np.min(x, initial=np.inf) >= -_SATURATION)):
                    break
            # A pair begun at the block's last site is ended by a guarded block.
            opened = guard and x is not None and bool(np.isneginf(p[-1]).any())
            counts += negs
            np.copyto(d, p[-1])
            if x is not None:
                np.copyto(fs, x[:, -1])
    return counts, fs


def _pivot_rows(P, d, FS, fs, k, guard, r, t, pair):
    """Overwrite the rows of P (V - E on entry) by the pivots that follow the
    pivot d, and with FS the rows FS[:, i] by the (f, s) after each pivot,
    from ``fs`` before the first. ``guard`` floors each pivot and saturates
    each f and s as they are made; r and t are scratch rows.

    With FS, ``guard`` also takes a pivot d_i below tol in magnitude, for
    ``pair`` = (tol, m) and i < m (site i + 1 still in the leading block),
    together with site i + 1 as one pair in its exact limit d_i -> 0. The
    pair has one negative pivot: d_i is stored as -inf and d_(i+1) as +inf,
    so the pivot after it sees 1/d = 0. f and s pass site i unchanged, and
    at site i + 1 become c_(i+1) - f and s + (V_(i+1) - E) f^2 - 2 c_i f,
    the Schur complement of the pair [[0, 1], [1, V_(i+1) - E]]."""
    rows = zip(P) if FS is None else zip(P, *FS)
    for i, row in enumerate(rows):
        p = row[0]
        np.divide(1.0, d, out=r)
        np.subtract(p, r, out=p)
        if guard and FS is not None:
            second = np.isneginf(d)  # p is V - E there, as 1/d = -0
            first = (np.abs(p) < pair[0]) & ~second & (i < pair[1])
            a = p[second]
            np.copyto(p, -np.inf, where=first)
            np.copyto(p, np.inf, where=second)
        if guard:
            np.copyto(p, _PIVOT_FLOOR, where=np.abs(p, out=r) < _PIVOT_FLOOR)
        if FS is not None:
            f, s = fs
            _, f_new, s_new = row
            np.multiply(f, f, out=t)
            np.divide(t, p, out=t)
            np.subtract(s, t, out=s_new)
            np.divide(f, p, out=t)
            np.subtract(1.0 if i == k else 0.0, t, out=f_new)
            if guard:
                np.copyto(f_new, f, where=first)
                u = f[second]
                s_new[second] = s[second] + a * u * u - 2.0 * (i - 1 == k) * u
                f_new[second] = (i == k) - u
                for g in (f_new, s_new):
                    np.maximum(g, -_SATURATION, out=g)
                    np.minimum(g, _SATURATION, out=g)
            fs = (f_new, s_new)
        d = p


def eigen_count(values, E: float) -> int:
    """Number of eigenvalues strictly below E of the Dirichlet restriction
    with diagonal ``values``. Callers wanting 'at or below' semantics shift
    E by a small positive amount."""
    vals = np.asarray(values, dtype=float)
    if len(vals) == 0:
        raise DomainError("eigen_count needs a nonempty window")
    return int(count_below(vals, np.array([E]))[0])


def bisect_eigenvalues(count_fn, how_many: int, lo, hi, smooth: bool = False) -> np.ndarray:
    """All ``how_many`` eigenvalues of a counting function by parallel bisection,
    BISECTION_HALVINGS halvings of each bracket.

    ``count_fn`` maps an energy array to strict-below counts; eigenvalue k is
    the infimum of {E : count(E) >= k}. With (B,) brackets ``lo`` and ``hi``,
    B problems are solved at once. ``count_fn`` takes energies of shape
    ``shape(lo) + (n,)``, any n, and returns counts of that shape. A NaN
    bracket end raises DomainError.

    Each call to ``count_fn`` advances d halvings (multisection): it counts
    the 2^d - 1 nested midpoints of every bracket, each formed from its own
    ends as a halving would, and each bracket then walks down that tree one
    node at a time. So lo and hi are those of one halving per call bit for
    bit, even where the count is not monotone. d is the largest depth at which
    the call holds at most _BISECTION_LANES energies, at least 1 and at most
    the halvings left. Until
    the first call all brackets of a problem coincide, so one tree per problem
    serves them all.

    With ``smooth``, one problem (scalar ``lo`` and ``hi``) is solved by
    ``_guided``, and ``count_fn`` returns a pair: the counts and a smooth
    function of the energy that changes sign where the count moves by one
    (``_floquet_count``). Where the count is monotone the edges are those
    of the halvings above bit for bit, in far fewer counts.
    """
    reject_nan(lo, hi)
    if not how_many:
        return np.empty(np.shape(lo) + (0,))
    if smooth:
        return _guided(count_fn, how_many, float(lo), float(hi))
    ks = np.arange(1, how_many + 1)[:, None]
    # Axes (..., bracket, end): one bracket per problem before the first call.
    lo_a = np.asarray(lo, dtype=float)[..., None, None]
    hi_a = np.asarray(hi, dtype=float)[..., None, None]
    done = 0
    while done < BISECTION_HALVINGS:
        depth = (_BISECTION_LANES // max(1, lo_a.size) + 1).bit_length() - 1
        depth = min(max(1, depth), BISECTION_HALVINGS - done)
        tree = _tree(lo_a[..., 0], hi_a[..., 0], depth)
        inner = tree[..., 1:-1]
        flat = inner.shape[:-2] + (inner.shape[-2] * inner.shape[-1],)
        counts = np.reshape(count_fn(inner.reshape(flat)), inner.shape)
        a, b = _walk(counts, ks, depth)
        lo_a = np.take_along_axis(tree, a, axis=-1)
        hi_a = np.take_along_axis(tree, b, axis=-1)
        done += depth
    return (0.5 * lo_a + 0.5 * hi_a)[..., 0]


def _tree(lo, hi, depth: int) -> np.ndarray:
    """The 2^depth + 1 points that ``depth`` halvings of [lo, hi] can reach,
    on a new last axis; each is formed from the two points of the coarser
    level around it. Halves before the sum, which cannot overflow near the
    float limit; in range the result is the same float as 0.5 * (lo + hi)."""
    n = 1 << depth
    tree = np.empty(np.broadcast(lo, hi).shape + (n + 1,))
    tree[..., 0], tree[..., n] = lo, hi
    step = n
    while step > 1:
        tree[..., step // 2::step] = 0.5 * tree[..., :-1:step] + 0.5 * tree[..., step::step]
        step //= 2
    return tree


def _walk(counts: np.ndarray, ks, depth: int):
    """The cell (a, b) of a ``depth``-level tree, its inner points counted in
    ``counts`` (last axis), that each bracket of eigenvalue k walks down to,
    one node at a time: to the lower half where the count at the node is at
    least k, else to the upper half."""
    a = np.zeros(np.broadcast(counts[..., :1], ks).shape, dtype=np.intp)
    b = np.full(a.shape, 1 << depth)
    for _ in range(depth):
        mid = (a + b) >> 1
        ge = np.take_along_axis(counts, mid - 1, axis=-1) >= ks
        a, b = np.where(ge, a, mid), np.where(ge, mid, b)
    return a, b


def _guided(count_fn, how_many: int, lo: float, hi: float) -> np.ndarray:
    """``bisect_eigenvalues`` of one problem whose ``count_fn`` also returns a
    smooth function s of the energy (``_floquet_count``).

    The first call is the multisection's: one tree of every bracket. Then a
    bracket whose ends' counts are k - 1 and k, so that it holds one
    transition, and whose ends' s have opposite signs, takes a regula falsi
    point from s, with the Anderson-Bjorck scaling of an end kept twice in a
    row (an Illinois-type method, superlinear at a simple root); every other
    bracket keeps the tree, the brackets of one cell sharing it, at the
    depth that the energies left by the regula falsi points allow. A
    bracket also takes the tree where neither end's |s| exceeds _FLAT (s is
    rounding there, as at the double edges of closed gaps), or where it is
    wider than 2^_SLACK times the width that one halving per regula falsi
    point and d per tree of depth d would have left it; so it retires within
    _SLACK + 2 calls of what halvings from its first bracket would take. The
    brackets still move only on the count (count(x) >= k moves hi to x), and
    one retires once 0.5 lo + 0.5 hi equals an end, a fixed point of every
    further halving, or once it is narrower than the last halving's bracket.

    Where the count is monotone, a count below k at lo and at least k at hi
    decide every halving point outside (lo, hi); ``_replay`` takes the
    BISECTION_HALVINGS halvings from the first brackets with them, counting
    the rare point that falls inside, so the edges are those of one halving
    per count bit for bit. Where it is not, they are those of another
    transition in the same last bracket.
    """
    ks = np.arange(1, how_many + 1)
    depth = min(max(1, (_BISECTION_LANES + 1).bit_length() - 1), BISECTION_HALVINGS)
    tree = _tree(lo, hi, depth)
    counts, s = count_fn(tree[1:-1])
    a, b = (x[:, 0] for x in _walk(counts[None], ks[:, None], depth))
    # The counts and s at the first brackets' ends, unknown (-1, NaN) at lo and hi.
    c, s = np.concatenate(([-1], counts, [-1])), np.concatenate(([np.nan], s, [np.nan]))
    lo_k, hi_k, c_lo, c_hi, s_lo, s_hi = tree[a], tree[b], c[a], c[b], s[a], s[b]
    moved = np.zeros(how_many, dtype=np.int8)  # +1 / -1: hi / lo moved by the last point
    last = np.ldexp(0.5 * hi - 0.5 * lo, 1 - BISECTION_HALVINGS)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        allow = np.ldexp(hi_k - lo_k, _SLACK)
        while True:
            mid = 0.5 * lo_k + 0.5 * hi_k
            live = (mid != lo_k) & (mid != hi_k) & (hi_k - lo_k >= last)
            if not live.any():
                break
            rf = (live & (c_lo == ks - 1) & (c_hi == ks) & (s_lo * s_hi < 0)
                  & (np.fmax(np.abs(s_lo), np.abs(s_hi)) > _FLAT) & (hi_k - lo_k <= allow))
            i, j = np.flatnonzero(rf), np.flatnonzero(live & ~rf)
            x = lo_k[i] + (hi_k[i] - lo_k[i]) * (s_lo[i] / (s_lo[i] - s_hi[i]))
            x = np.clip(np.where(np.isfinite(x), x, mid[i]),
                        np.nextafter(lo_k[i], hi_k[i]), np.nextafter(hi_k[i], lo_k[i]))
            # Brackets of one cell (neighbours in k) share its tree, at the
            # depth that the energies left by the regula falsi points allow.
            first = np.ones(j.size, dtype=bool)
            first[1:] = (lo_k[j[1:]] != lo_k[j[:-1]]) | (hi_k[j[1:]] != hi_k[j[:-1]])
            cell, cells = np.cumsum(first) - 1, max(1, int(np.count_nonzero(first)))
            depth = (max(_BISECTION_LANES - i.size, cells) // cells + 1).bit_length() - 1
            depth = min(depth, BISECTION_HALVINGS)
            trees = _tree(lo_k[j][first], hi_k[j][first], depth)
            counts, s = count_fn(np.concatenate((x, trees[:, 1:-1].ravel())))

            m = i.size
            up = counts[:m] >= ks[i]  # the point becomes the bracket's hi
            scale = 1.0 - s[:m] / np.where(up, s_hi[i], s_lo[i])
            scale = np.where((scale > 0) & (scale < 1), scale, 0.5)
            kept = moved[i] == np.where(up, 1, -1)
            s_lo[i[up & kept]] *= scale[up & kept]
            s_hi[i[~up & kept]] *= scale[~up & kept]
            for side, ends in ((up, (hi_k, c_hi, s_hi)), (~up, (lo_k, c_lo, s_lo))):
                for out, row in zip(ends, (x, counts[:m], s[:m])):
                    out[i[side]] = row[side]
            moved[i] = np.where(up, 1, -1)
            allow[i] *= 0.5

            if j.size:
                rows = (trees[cell],
                        np.concatenate((c_lo[j, None], counts[m:].reshape(cells, -1)[cell],
                                        c_hi[j, None]), axis=1),
                        np.concatenate((s_lo[j, None], s[m:].reshape(cells, -1)[cell],
                                        s_hi[j, None]), axis=1))
                a, b = _walk(rows[1][:, 1:-1], ks[j, None], depth)
                for ends, at in (((lo_k, c_lo, s_lo), a), ((hi_k, c_hi, s_hi), b)):
                    for out, row in zip(ends, rows):
                        out[j] = np.take_along_axis(row, at, axis=1)[:, 0]
                moved[j] = 0
                allow[j] = np.ldexp(allow[j], -depth)
    return _replay(count_fn, lo, hi, lo_k, hi_k, ks)


def _replay(count_fn, lo: float, hi: float, below, above, ks) -> np.ndarray:
    """The edges of BISECTION_HALVINGS halvings of [lo, hi], one count per
    halving, for counts that are below k up to ``below`` and at least k from
    ``above`` on (k = ``ks``): a halving point outside (below, above) is
    decided without a count, and the ones inside, at most about one per
    bracket narrower than the last halving's, are counted, all of a pass in
    one call."""
    below, above = below.copy(), above.copy()
    while True:
        lo_a, hi_a = np.full(ks.shape, lo), np.full(ks.shape, hi)
        open_at = np.full(ks.shape, np.nan)  # the first point each bracket cannot decide
        for _ in range(BISECTION_HALVINGS):
            mid = 0.5 * lo_a + 0.5 * hi_a
            ge, lt = mid >= above, mid <= below
            new = ~(ge | lt) & np.isnan(open_at)
            open_at[new] = mid[new]
            go = np.isnan(open_at)
            hi_a = np.where(go & ge, mid, hi_a)
            lo_a = np.where(go & lt & ~ge, mid, lo_a)
        i = np.flatnonzero(~np.isnan(open_at))
        if not i.size:
            return 0.5 * lo_a + 0.5 * hi_a
        ge = count_fn(open_at[i])[0] >= ks[i]
        above[i[ge]], below[i[~ge]] = open_at[i[ge]], open_at[i[~ge]]


def floquet_count(word: LevelWord, energies) -> np.ndarray:
    """Periodic plus antiperiodic eigenvalues strictly below each energy, for
    the period that ``word`` spells (L = ``word.sites`` sites): the counts
    ``count_below_periodic`` gives at corners +1 and -1, summed.

    They follow from the product M over the period and its lift n
    (``transfer.block_product``): 2(L - n) - 1 where |tr M| < 2, and
    2(L - n - [sign c_M sign tr M < 0]) elsewhere. O(log L) 2x2 products
    per energy, where the pivot count takes L steps. A NaN raises
    DomainError; ``_floquet_count`` skips that check for a bisection whose
    values were checked once.
    """
    reject_nan(energies, list(word.letter_values.values()))
    return _floquet_count(word, energies)[0]


def _floquet_count(word: LevelWord, energies):
    """``floquet_count`` without its NaN check, and a smooth function of the
    energy whose zeros are the band edges: ln(|tr M| / 2) where |tr M| >= 2
    and |tr M| / 2 - 1 inside the bands. It is negative in the bands,
    continuous with its derivative at |tr M| = 2 and free of the
    logarithm's pole at tr M = 0. It is formed in floats from the mantissa
    and exponent of the long-double trace and the exponent of M, so it
    cannot overflow. Returns (counts, values).
    """
    def count(p, n):
        a, _, c, d, e = p
        L, tr = word.sites, a + d
        # |2^e tr| < 2, with e >= 0, compared without overflow.
        inside = np.abs(tr) < np.ldexp(np.longdouble(2.0), -e.astype(np.int64))
        counts = np.where(inside, 2 * (L - n) - 1, 2 * (L - n - (np.sign(c) * np.sign(tr) < 0)))
        m, k = np.frexp(tr)
        with np.errstate(divide="ignore"):
            g = np.log(np.abs(m.astype(float))) + (k + e.astype(float) - 1.0) * transfer._LN2
        np.expm1(g, out=g, where=inside)
        return np.stack((counts, g))

    out = block_product(word, energies, count)
    return out[0].astype(np.int64), out[1]


def dirichlet_count(word: LevelWord, energies) -> np.ndarray:
    """``count_below`` over the segment ``word`` spells, without sampling it:
    with P = [[a, b], [c, d]] its product and n the lift of P
    (``transfer.block_product``), ``word.sites`` - n - [c != 0 and
    sign(c) a <= 0]. O(log L) 2x2 products per energy. A NaN raises
    DomainError."""
    reject_nan(energies, list(word.letter_values.values()))

    def count(p, n):
        a, _, c, _, _ = p
        return word.sites - n - ((c != 0) & (np.sign(c) * a <= 0))

    return block_product(word, energies, count)


def ids_curve(spec: PotentialSpec, omega: float | None, L: int, grid) -> IdsCurve:
    """Finite-volume IDS: eigenvalue counts on the window [-L, L] (2L+1 sites)
    divided by 2L+1, evaluated at every grid energy. A window that
    ``potentials.fixed_point_window`` writes as level blocks (substitution
    fixed points and the golden-mean Sturmian at every phase, off phase 0
    the first occurrence of the sampled letters among the first 4(n+1)
    shifts of the Fibonacci fixed point) is counted from them
    (``dirichlet_count``), every other one from its samples."""
    if L < 1:
        raise DomainError("window half-size L must be at least 1")
    if omega is not None:
        spec = spec.with_omega(omega)
    e = np.asarray(grid, dtype=float)
    word = fixed_point_window(spec, -L, L)
    if word is None:
        counts = count_below(sample_potential(spec, -L, L), e)
    else:
        counts = dirichlet_count(word, e)
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
