"""SL(2,R) transfer-matrix algebra with overflow-safe scaling.

A single site contributes the unimodular step matrix [[E-V, -1], [1, 0]];
products of these encode all solutions of the chain equation
psi_{n-1} + psi_{n+1} + V_n psi_n = E psi_n. Long products in hyperbolic
regimes grow exponentially, so a product keeps its entries normalized and
carries the scale as a separate prefactor, changed only by exact powers of two.

``product_grid`` forms the product over any sampled chain, over an energy grid
and at optional prefix lengths (marks), rescaling only as often as overflow
requires. A site grows the entries by at most max|E| + max|V| + 2, so they are
rescaled every k sites, at the start of an E - V block, by powers of two whose
exponents are summed as integers; the schedule changes no bit of the result
outside the subnormal range. A narrow grid steps up to _LANES // M chain
segments of _SEGMENT sites side by side, each site one multiply per matrix row
against its (J, M) E - V row, and joins the segments' products in one prefix
pass of 2x2 products with one power-of-two rescale each; segments start at the
same sites whatever the lane count, so a mark's row equals the call on that
prefix bit for bit. A block's marks are captured in one gather after it: the
exponents change only at block starts, and a mark's rows (c, d) are the rows
(a, b) of the step before, so the lanes holding marks are stashed only at the
steps that reach a mark and the ones just before. The transient memory is the
(J, M) lanes, one E - V block (_CHUNK elements, or one row of a wider grid),
one padded segment and that stash: the lanes from the first one holding a
mark, at no more than one block's steps (up to twice the block where every
step reaches a mark; two steps of one lane without marks). Beyond the outputs
and a capture and a prefix per mark, it does not grow with the chain.

A lane step costs a few numpy calls whatever its width, so a call with few
energies on a short chain, as ``propagate``, ``gordon_ratio`` and
``ids.char_poly_value`` make, steps its segments in Python floats instead
(``_float_group``), one energy and segment at a time; the size of the call
picks the path (``_plan``). The float loop takes the same E - V
differences, forms z = (E - V) x - y with the same two roundings, rescales at
the same sites by the same powers of two and captures the same rows, and both
paths share the validation, the schedule, the prefix pass and the final
normalization, so every output is bit for bit the lanes', subnormals included.
An energy and a potential value that differ by more than the largest float,
where E - V would overflow, and a NaN among them raise DomainError before
either path runs.

Two more choices of ``_plan`` change no bit either. A lane block's E - V
rows are formed as one float64 product [1, -V] @ [E; 1] (``_differences``)
on grids of at least _PRODUCT_LANES energies: both terms of each dot
product, E and -V, are exact, so its one rounded sum is np.subtract's
E - V. The one exact difference it would change is (-0.0) - (+0.0) = -0.0,
which a BLAS sum started from +0.0 makes +0.0, so a grid holding an energy
of -0.0 keeps the broadcast. And the prefix pass joins a group's segment
products in Python floats (``_float_joins``) on grids of at most _FEW_JOINS
energies: per entry the same two products and one sum, and per join the
same power-of-two scaling, as the numpy rows of ``_lane_joins``, one energy
at a time.

A segment of a substitution fixed point needs no samples: ``iter_levels``
renormalizes the per-letter matrices level by level (the matrix of rule^(k+1)(x)
is the product of the level-k matrices of rule(x)), and ``block_product``, the
one lifted product, joins the O(log n) level blocks of a ``LevelWord`` with
their integer lifts in the universal cover of SL(2, R). These products are
formed unscaled in long double and rescaled, by one power of two per energy,
only once the measured largest entry of some energy's matrix leaves
2^+-_LEVEL_BITS (``_bounded``); the schedule changes no bit. ``lyapunov_grid``
takes it where ``potentials.fixed_point_window`` gives a word for sites 1..n
(substitution fixed points, and the golden-mean Sturmian at every phase: at
omega != 0 the first occurrence of the sampled letters among the first
4(n+1) shifts of the Fibonacci fixed point, found once in O(n)), and
``product_grid`` elsewhere; ``ids`` turns its lifts into eigenvalue counts
of fixed-point windows and level-block periods.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numutil import reject_nan
from .potentials import (LevelWord, PotentialSpec, PeriodicPotential, SubstitutionRule,
                         fixed_point_window, sample_potential)

TRACE_POLY_DEGREE_CAP = 64
# A narrow grid, M <= _NARROW energies, steps J = min(_LANES // M, segments)
# chain segments of _SEGMENT sites side by side, as one (J, M) array; a wider
# grid steps the whole chain as one segment. The segments start at the same
# sites whatever J is, so J changes no bit. Lane sweep (scripts/lane_sweep.py,
# best of 7 calls, two runs) on a 2-core x86 machine, almost-Mathieu 25,000
# sites x 200 energies / golden Sturmian 10^4 sites x 240 energies: 512 lanes
# 27 / 12 ms, 1024 17 / 10, 2048 19 / 9.5, 4096 17 / 8.6, 8192 16 / 11. 8192
# lanes are no faster on the golden chain and double the lanes' memory.
# Widths (same script, best of 9, the machine above, 10^4 sites, us per
# energy narrow / wide, almost-Mathieu; golden alike): M = 257 41 / 101, 512
# 40 / 61, 1024 42 / 65, 1280 34 / 43, 1536 39 / 33, 2048 34 / 36, 2560 37 /
# 26. The narrow path would pay up to about 1024 energies, but its segment
# joins lose up to 2e-10 relative in ln||P|| in gaps (ROADMAP item 3), where
# the wide path is the sequential oracle of the lifted products' tests at 300
# energies; so the threshold stays until the joins are guarded.
_NARROW = 256
_LANES = 4096
_SEGMENT = 256
# A call at M energies over n sites with K marks steps in Python floats where
# M (n + _MARK_SITES K) <= _FEW_LANES min(n, _SEGMENT): a lane step, one of
# min(n, _SEGMENT), costs about as much as _FEW_LANES sites of the float loop
# at one energy, and a mark there about _MARK_SITES sites. Few-lane sweep
# (scripts/few_lane_sweep.py, best of 7 calls, two runs, the machine above)
# on golden Sturmian chains of 21, 55, 144, 288, 610, 1000, 2000, 3000, 5000
# and 10^4 sites; the longest on which floats were faster, without marks /
# with a mark at every site, against the longest the constants pick:
#   M = 1:  3000-5000 / 1000   picked 4093 / 1024 (5000 sites: 0.99 against
#           1.04 ms in one run, 0.71 against 0.67 in the other)
#   M = 2:  2000-3000 / 288    picked 2045 / 512
#   M = 4:  1000 / 144         picked 1021 / 256
#   M = 8:  610 / 21 or none   picked 509 / none
#   M = 16: 288 / none         picked none / none (floats 15-25% faster)
#   M = 32: none / none        picked none / none
_FEW_LANES = 16
_MARK_SITES = 3
# On the lanes, a grid of _PRODUCT_LANES <= M <= _CHUNK energies forms its
# E - V blocks as one BLAS product (``_differences``; a block of at most
# _CHUNK elements, which OpenBLAS runs on one thread), and ``ids`` its V - E
# blocks alike; the prefix pass joins segments in Python floats where
# M <= _FEW_JOINS. Same sweep, one run, the machine above, almost-Mathieu
# 25,000 sites; ms broadcast / product (product with OPENBLAS_NUM_THREADS=1):
#   M = 1: 0.71 / 0.81 (0.85)      M = 2: 1.28 / 1.02 (1.01)
#   M = 4: 3.28 / 2.68 (2.90)      M = 16: 3.32 / 2.80 (2.31)
#   M = 200: 18.3 / 15.1 (16.5)    M = 1000: 111 / 99 (105)
# ``ids.count_below`` there: within the host's noise up to 8 energies, where
# the blocks are a small part of a count (both ways in three runs), then
# 5-15% faster (M = 200: 45.8 / 41.7 ms; 1000: 118 / 100 ms). Joins, ms for
# 40 / 400 segments, numpy / floats: M = 1 0.43 / 0.07, 4.5 / 0.65; M = 4
# 0.43 / 0.24, 4.5 / 2.3; M = 6 0.44 / 0.36, 4.6 / 3.5; M = 8 0.45 / 0.47,
# 4.5 / 5.0; M = 16 0.46 / 0.96, 4.8 / 10.6.
_PRODUCT_LANES = 2
_FEW_JOINS = 6
# Sites between rescalings grow the entries by at most e^_LOG_GROWTH, far
# below the float limit e^709. _CHUNK bounds the elements of the E - V block
# built at once (256 KB of float64). The rescaling interval is the largest
# multiple of the block's rows within the safe k sites, so a small block does
# not rescale more often than a large one would. ``block_product`` and ``ids``
# size their energy slices and pivot blocks from the same budget.
_LOG_GROWTH = 600.0
_CHUNK = 1 << 15
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
    """One-site transfer matrix [[E-v, -1], [1, 0]] at a scalar energy; the
    kernels form it over energy arrays themselves."""
    return Mat2(E - v, -1.0, 1.0, 0.0, 0.0)


def propagate(E: float, values) -> Mat2:
    """Scaled product T_L ... T_1 over the sample V_1..V_L (left to right)."""
    return Mat2(*(float(x) for x in product_grid(values, E)))


def product_grid(values, energies, marks=None):
    """Scaled products T_n ... T_1 over the chain ``values`` at every energy:
    normalized entry arrays (a, b, c, d) and the log scale ``logs``, all of the
    energies' shape, the product being e^logs [[a, b], [c, d]] with its largest
    |entry| 1. With ``marks``, increasing prefix lengths (K,), each array gains
    a leading (K,) axis: the product over the first marks[k] sites, bit for bit
    the call on that prefix. The module docstring describes the kernel."""
    vals = np.asarray(values, dtype=float).ravel()
    E = np.asarray(energies, dtype=float)
    ends = np.asarray([len(vals)] if marks is None else marks, dtype=np.int64).ravel()
    if not (len(vals) and ends.size and 1 <= ends[0] and ends[-1] <= len(vals)
            and (marks is None or np.all(ends[1:] > ends[:-1]))):
        raise DomainError("a product needs at least one site, and lengths must be "
                          "increasing positive integers within the chain")
    e, n, K, M = E.ravel(), int(ends[-1]), ends.size, E.size
    vals = vals[:n]
    lo, hi = float(vals.min()), float(vals.max())
    e_lo, e_hi = float(e.min(initial=math.inf)), float(e.max(initial=-math.inf))
    if any(map(math.isnan, (lo, hi, e_lo, e_hi))):  # the extrema hold every NaN
        raise DomainError("energies and potential values must not be NaN")
    if max(e_hi - lo, hi - e_lo) > sys.float_info.max:
        raise DomainError("E - V overflows: an energy and a potential value differ by "
                          "more than the largest float")
    narrow = 0 < M <= _NARROW
    s = _SEGMENT if narrow else n
    nseg = -(-n // s)
    J = min(_LANES // M, nseg) if narrow else 1
    grow = max(e_hi, -e_lo, 0.0) + max(hi, -lo) + 2.0
    k = max(1, int(_LOG_GROWTH / math.log(grow))) if grow < math.inf else 1
    rows = min(k, max(1, _CHUNK // (J * M or 1)))  # the sites of an E - V block
    every = k - k % rows  # the sites between rescales, at most k
    seg, off = np.divmod(ends - 1, s)  # each end's segment, and its step there less 1
    # Rows a, b, c, d and the exponent (an integer, exact in a float) of the
    # raw product at each end; the rows of the segments before the end's own.
    cap, pre = np.empty((5, K, M)), np.empty((2, 2, K, M))
    # The joined product before each segment of a group, and its exponent.
    runs, exps = np.zeros((1, 2, 2, M)), np.zeros((1, M))
    runs[0, 0, 0] = runs[0, 1, 1] = 1.0
    group, join = _plan(e, n, K)
    for g0 in range(0, nseg, J):
        Jb = min(J, nseg - g0)
        bounds = np.searchsorted(seg, np.arange(g0, g0 + Jb + 1)).tolist()
        i, i_end = bounds[0], bounds[-1]
        last, x_exp = group(vals[g0 * s:(g0 + Jb) * s], e, s, rows, every,
                            seg[i:i_end] - g0, off[i:i_end], cap[:, i:i_end])
        joins = min(Jb, nseg - 1 - g0)  # none after the chain's last segment
        runs, exps = (join(last, x_exp, runs[-1], exps[-1], joins) if joins
                      else (runs[-1:], exps[-1:]))
        for j in range(Jb):  # the ends of segment j take the product before it
            if bounds[j] < bounds[j + 1]:
                pre[:, :, bounds[j]:bounds[j + 1]] = runs[j, :, :, None]
                cap[4, bounds[j]:bounds[j + 1]] += exps[j]  # the ends' whole exponents
    return _normalized(cap[0] * pre[0] + cap[1] * pre[1], cap[2] * pre[0] + cap[3] * pre[1],
                       cap[4], ((K,) if marks is not None else ()) + E.shape)


def _plan(e, n: int, K: int):
    """The stepping function and the prefix join of a call at the energies
    ``e`` over n sites with K ends: floats where M (n + _MARK_SITES K) <=
    _FEW_LANES min(n, _SEGMENT), else the lanes, with E - V blocks formed as
    products where _PRODUCT_LANES <= M <= _CHUNK and no energy is -0.0; the
    joins in floats where M <= _FEW_JOINS. A few integer comparisons where
    floats step, so that short calls do not pay for the choice."""
    M = len(e)
    join = _float_joins if M <= _FEW_JOINS else _lane_joins
    if M * (n + _MARK_SITES * K) <= _FEW_LANES * min(n, _SEGMENT):
        return _float_group, join
    if _PRODUCT_LANES <= M <= _CHUNK and not np.signbit(e[e == 0.0]).any():
        return functools.partial(_lane_group, product=True), join
    return _lane_group, join


def _lane_joins(last, x_exp, run, run_exp, joins):
    """The running products of a group: from ``run`` (2, 2, M), with its
    exponent ``run_exp`` (M,), the product before the group, join the first
    ``joins`` segment products (rows ``last`` (2, 2, J, M), exponents
    ``x_exp`` (J, M)) one at a time, each join a 2x2 product scaled by one
    power of two per energy. Returns the product before each segment and
    after the last one joined, (joins + 1, 2, 2, M), and their exponents
    (joins + 1, M)."""
    runs, exps = np.empty((joins + 1,) + run.shape), np.empty((joins + 1,) + run_exp.shape)
    runs[0], exps[0] = run, run_exp
    for j in range(joins):
        p = last[:, :1, j] * run[0] + last[:, 1:, j] * run[1]
        e_j = np.frexp(np.abs(p).max(axis=(0, 1)))[1]
        run = np.ldexp(p, -e_j, out=runs[j + 1])
        exps[j + 1] = exps[j] + x_exp[j] + e_j
    return runs, exps


def _float_joins(last, x_exp, run, run_exp, joins):
    """``_lane_joins`` in Python floats, one energy at a time: the same
    products, sums and power-of-two scalings, so the same bits, at one to
    two microseconds a join and energy where a lane join costs about ten
    numpy calls. The joins go _SEGMENT at a time, so that their Python floats stay
    within a few hundred KB however many segments the chain has."""
    M = run.shape[-1]
    runs, exps = np.empty((joins + 1,) + run.shape), np.empty((joins + 1, M))
    runs[0], exps[0] = run, run_exp
    for j0 in range(0, joins, _SEGMENT):
        j1 = min(joins, j0 + _SEGMENT)
        segs = last[:, :, j0:j1].transpose(3, 2, 0, 1).reshape(M, j1 - j0, 4).tolist()
        out = []
        for (a, b, c, d), x, seg_m, x_m in zip(runs[j0].reshape(4, M).T.tolist(),
                                               exps[j0].tolist(), segs, x_exp[j0:j1].T.tolist()):
            for (la, lb, lc, ld), x_j in zip(seg_m, x_m):
                a, b, c, d = la * a + lb * c, la * b + lb * d, lc * a + ld * c, lc * b + ld * d
                f = math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1]
                a, b, c, d = (math.ldexp(a, -f), math.ldexp(b, -f),
                              math.ldexp(c, -f), math.ldexp(d, -f))
                x = x + x_j + f
                out.append((a, b, c, d, x))
        out = np.array(out).reshape(M, j1 - j0, 5).transpose(1, 2, 0)
        runs[j0 + 1:j1 + 1] = out[:, :4].reshape(j1 - j0, 2, 2, M)
        exps[j0 + 1:j1 + 1] = out[:, 4]
    return runs, exps


def _lane_group(V, e, s, rows, every, lane, off, cap, product=False):
    """Step the segments of ``s`` sites that the chain slice ``V`` holds
    side by side, as (J, M) lanes, and capture the ends at step ``off`` + 1 of
    lane ``lane`` into ``cap`` (5, ends, M). Returns the rows (a, b) and
    (c, d) of each segment's raw product, (2, 2, J, M), and their exponents
    (J, M)."""
    M, Jb, steps = len(e), -(-len(V) // s), min(s, len(V))
    # Whole segments are a view of the chain; a last partial one is padded.
    whole = len(V) // s
    tail = np.zeros(s if whole < Jb else 0)
    tail[:len(V) - whole * s] = V[whole * s:]
    V = V[:whole * s].reshape(whole, s).T
    by_step = np.argsort(off, kind="stable")
    lane0 = lane[0] if len(lane) else Jb  # the first lane holding an end
    reach, lane_of = off[by_step] + 1, lane[by_step] - lane0
    cuts = np.searchsorted(reach, np.arange(0, steps + rows, rows), side="right").tolist()
    # Lanes holding ends, stashed at each end's step and the one before.
    need = np.zeros(steps + 1, dtype=np.intp)
    need[reach] = need[reach - 1] = 1
    wanted, before = need.tolist(), need.cumsum() - need
    stash = np.empty((2, min(before[-1] + 1, min(rows, steps) + 1), Jb - lane0, M))
    block = np.empty((min(rows, s), Jb, M))  # E - V over `rows` sites of each lane
    e_one = np.stack([e, np.ones(M)]) if product else None
    lanes = np.zeros((3, 2, Jb, M))  # x, y, z: the lanes' rows (a, b) at three steps
    bufs = list(zip(lanes, lanes[:, 0], lanes[:, 1]))
    x, y, z = bufs[steps % 3:] + bufs[:steps % 3]  # the last step writes lanes[0]
    x[1][:] = y[2][:] = 1.0
    x_exp = np.zeros((Jb, M))
    for t0, lo, hi in zip(range(0, steps, rows), cuts, cuts[1:]):
        if t0 and t0 % every == 0:
            _rescale(x[0], y[0], x_exp)
        r = min(rows, steps - t0)
        ev_rows = block[:r]
        _differences(e, V[t0:t0 + r], tail[t0:t0 + r], ev_rows, e_one)
        for t, ev in enumerate(ev_rows, t0):
            if wanted[t]:
                stash[:, before[t] - before[t0]] = x[0][:, lane0:]
            np.multiply(ev, x[1], out=z[1])
            np.multiply(ev, x[2], out=z[2])
            np.subtract(z[0], y[0], out=z[0])
            x, y, z = z, x, y
        if wanted[t0 + r]:
            stash[:, before[t0 + r] - before[t0]] = x[0][:, lane0:]
        if lo < hi:  # the block's ends in one gather; x_exp changes only at block starts
            i, at, js = by_step[lo:hi], before[reach[lo:hi]] - before[t0], lane_of[lo:hi]
            cap[:2, i], cap[2:4, i] = stash[:, at, js], stash[:, at - 1, js]
            cap[4, i] = x_exp[lane0:][js]
    return lanes[:2], x_exp


def _differences(e, V, tail, out, e_one=None):
    """E - V into ``out`` (r, J, M) at the energies ``e`` (M,), for the values
    ``V`` (r, J - 1 or J) of the whole lanes and ``tail`` (r,) of a padded
    last one, if any: a broadcast np.subtract, or with ``e_one`` = [e; 1]
    (2, M) the one float64 product [1, -V] @ [E; 1] over the r J rows. Both
    terms of each dot product, E and -V, are exact, so its sum is rounded
    once, to np.subtract's bits. BLAS sums from +0.0, which turns the one
    exact -0.0 difference, (-0.0) - (+0.0), into +0.0; ``_plan`` keeps
    energies of -0.0 on the broadcast."""
    whole = V.shape[1]
    if e_one is None:
        np.subtract(e, V[:, :, None], out=out[:, :whole])
        if len(tail):
            np.subtract(e, tail[:, None], out=out[:, whole])
        return
    one_v = np.empty(out.shape[:2] + (2,))
    one_v[..., 0] = 1.0
    np.negative(V, out=one_v[:, :whole, 1])
    if len(tail):
        np.negative(tail, out=one_v[:, whole, 1])
    np.matmul(one_v.reshape(-1, 2), e_one, out=out.reshape(-1, len(e)))


def _float_group(V, e, s, rows, every, lane, off, cap):
    """``_lane_group`` in Python floats, one energy and one segment at a time:
    the same steps, rescales (every ``every`` sites; ``rows`` is not read) and
    captures, so the same bits, at about 0.1 us a site and energy where a
    lane step costs three numpy calls."""
    segs = [V[j:j + s].tolist() for j in range(0, len(V), s)]
    # Each segment's stops: its ends' steps (captured first) and its rescales.
    reach = [set() for _ in segs]
    for j, t in zip(lane.tolist(), (off + 1).tolist()):
        reach[j].add(t)
    stops = [sorted(r.union(range(every, len(sites), every), [len(sites)]))
             for r, sites in zip(reach, segs)]
    caps, finals = [], []
    for E in e.tolist():
        for sites, ends, at in zip(segs, reach, stops):
            a, b, c, d, x, t = 1.0, 0.0, 0.0, 1.0, 0, 0
            for stop in at:
                for v in sites[t:stop]:
                    ev = E - v
                    a, c = ev * a - c, a
                    b, d = ev * b - d, b
                t = stop
                if stop in ends:
                    caps.append((a, b, c, d, x))
                if stop % every == 0 and stop < len(sites):
                    f = math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1]
                    a, b, c, d = (math.ldexp(a, -f), math.ldexp(b, -f),
                                  math.ldexp(c, -f), math.ldexp(d, -f))
                    x += f
            finals.append((a, b, c, d, x))
    M = len(e)
    cap[:] = np.array(caps).reshape(M, cap.shape[1], 5).T
    finals = np.array(finals).reshape(M, len(segs), 5).T
    return finals[:4].reshape(2, 2, len(segs), M), finals[4]


def _normalized(ab, cd, exps, shape):
    """The (a, b, c, d, logs) arrays of ``shape`` for the products
    2^exps [[ab], [cd]]: power-of-two scaling first, so that the exponent does
    not depend on how the product was formed, then the largest entry divided
    to exactly 1."""
    m, e = _rescale(ab, cd, exps)
    m = np.ldexp(m, -e)  # the largest |entry| after the scaling, exactly
    m[m == 0.0] = 1.0
    ab /= m
    cd /= m
    return tuple(r.reshape(shape) for r in (*ab, *cd, exps * _LN2 + np.log(m)))


def _rescale(x, y, exps, m=None):
    """Scale the row pairs ``x`` and ``y`` in place by one power of two per
    lane so that their largest |entry| lies in [1/2, 1); add its exponent to
    ``exps``. ``m`` is that largest |entry| per lane where already measured.
    Returns it before the scaling and the exponent.

    Long-double rows are multiplied by one factor 2^-e per lane, formed once:
    ``np.ldexp`` costs about four long-double multiplies an entry. Both scale
    exactly and round a subnormal result once, so they give the same bits;
    where 2^-e itself overflows (a largest |entry| below 2^-16384 on x86)
    ``np.ldexp`` is taken, as it is for float64 rows."""
    if m is None:
        m = np.maximum(np.abs(x).max(axis=0), np.abs(y).max(axis=0))
    e = np.frexp(m)[1]
    if x.dtype == np.longdouble and e.min(initial=0) > -np.finfo(x.dtype).maxexp:
        f = np.ldexp(np.ones(e.shape, x.dtype), -e)
        x *= f
        y *= f
    else:
        np.ldexp(x, -e, out=x)
        np.ldexp(y, -e, out=y)
    exps += e
    return m, e


def iter_levels(rule: SubstitutionRule, letter_values: dict[str, float], energies,
                levels: int):
    """Transfer matrices over the words rule^k(x) of every letter x, over a
    1-d energy array, with their lifts, yielded one level k = 0..levels at a
    time; only the level being built and the one before it are held.

    Each level is a (5, r, M) long-double array, at the r-th letter of the
    alphabet rows a, b, c, d and the exponent e of the product
    2^e [[a, b], [c, d]], and an (r, M) int64 array of lifts. Level 0 holds
    the step matrices [[E - v, -1], [1, 0]]; level k+1 of x is the product of
    the level-k matrices of the image of x in reversed order, the
    renormalization behind the trace maps of Kohmoto-Kadanoff-Tang (1983)
    and Suto (1989). The products are formed unscaled and rescaled by powers
    of two only once an energy's measured largest |entry| leaves
    2^+-_LEVEL_BITS (``_bounded``), so the entries are not normalized and the
    schedule changes no bit. The lifts are each level matrix's integer lift
    in the universal cover of SL(2, R) (``_chain``), from which the
    eigenvalue counts of the level words follow (Johnson-Moser, CMP 1982;
    ``ids.floquet_count``, ``ids.dirichlet_count``).

    The entries are long doubles (a 64-bit mantissa on x86; plain doubles
    where the platform has no wider type). A level matrix can have a much
    larger norm than the product it is joined into: near the spectrum, plain
    doubles lost up to 8e-10 relative in log-norm over a few thousand sites,
    where the site-by-site product keeps about 1e-12.
    """
    r = len(rule.alphabet)
    mats = np.zeros((5, r, len(energies)), dtype=np.longdouble)
    mats[0] = energies - np.array([letter_values[x] for x in rule.alphabet],
                                  dtype=np.longdouble)[:, None]
    mats[1], mats[2] = -1.0, 1.0
    lifts = np.zeros((r, len(energies)), dtype=np.int64)
    # A step's row sums are at most |E - v| + 1.
    bits = _bounded(mats, math.log2(float(np.abs(mats[0]).max(initial=0.0)) + 1.0))
    images = [[rule.alphabet.index(y) for y in rule.images[x]] for x in rule.alphabet]
    lower = _lower(mats[0], mats[2])
    yield mats, lifts
    for _ in range(levels):
        up, up_lifts, below, top = (np.empty_like(mats), np.empty_like(lifts),
                                    np.empty_like(lower), 0.0)
        for i, word in enumerate(images):
            up[:, i], up_lifts[i], b, below[i] = _chain(mats, lifts, bits, lower, word)
            top = max(top, b)
        mats, lifts, lower, bits = up, up_lifts, below, top
        yield mats, lifts


# Level products are formed unscaled. A stored 2^e [[a, b], [c, d]] with
# determinant 1 has its largest |entry| in [2^(-e - 1/2), 2^bits], where bits is
# log2 of a bound on its row sums. While each factor's largest |entry| lies
# within 2^+-_LEVEL_BITS, a quarter of the exponent range, the product of two
# neither overflows nor underflows (2^-8193 to 2^8192 for x86 long doubles).
# ``_bounded`` reads that from bits and e where it can, and measures it where
# they do not tell: a stack is rescaled only once a lane's measured largest
# |entry| leaves the range.
_LEVEL_BITS = np.finfo(np.longdouble).maxexp / 4


def _bounded(p: np.ndarray, bits: float) -> float:
    """Keep the power-of-two matrices ``p`` (rows on axis 0) within range;
    return the bound on log2 of their row sums after.

    While ``bits`` and their largest exponent are at most _LEVEL_BITS, every
    lane's largest |entry| lies in range and ``bits`` is returned unread.
    Past that, each lane's largest |entry| m is measured, the maximum that
    ``_rescale`` forms: if some lane's m lies outside
    [2^-_LEVEL_BITS, 2^_LEVEL_BITS] the stack is rescaled (a bound of 1 bit
    after), else the measured bound f + 1, for the largest m below 2^f, is
    returned where it is below ``bits``. The range is read from _LEVEL_BITS
    at each call, so that a patched value takes effect."""
    if bits <= _LEVEL_BITS and p[4].max(initial=0.0) <= _LEVEL_BITS:
        return bits
    m = np.abs(p[:4]).max(axis=0)
    hi, top = m.max(initial=1.0), np.ldexp(np.longdouble(1.0), int(_LEVEL_BITS))
    if hi <= top and m.min(initial=1.0) * top >= 1.0:
        return min(bits, float(np.frexp(hi)[1]) + 1.0)
    _rescale(p[:2], p[2:4], p[4], m)
    return 1.0


def _chain(mats: np.ndarray, lifts: np.ndarray, bits: float, lower: np.ndarray,
           word) -> tuple[np.ndarray, np.ndarray, float, np.ndarray]:
    """The product P = mats[:, f_m] ... mats[:, f_1] of the ``word``
    [f_1, ..., f_m], indices into a (5, r, M) stack in the power-of-two form of
    ``iter_levels``, as (P (5, M), its lift (M,), the bound on log2 of its
    row sums, its ``_lower`` (M,)).

    ``lifts`` (r, M) are the stack's lifts, ``bits`` the bound on log2 of its
    row sums and ``lower`` (r, M) its ``_lower``; a partial product is
    rescaled only when ``_bounded`` asks. A step has lift 0, and the product
    AB has lift n_A + n_B + [s_A s_B t < 0], where t = (AB)_21, or (AB)_11
    where (AB)_21 == 0, and s_X is the sign that turns the first column (a, c)
    of X into the upper half plane: sign c, or sign a where c == 0 (so
    s_AB = sign t). The test reads the stored product's own entry, so a column
    that rounding moves across the horizontal moves its lift with it.
    """
    f, *rest = word
    p, n, s, b = mats[:, f], lifts[f].copy(), lower[f], bits
    for f in rest:
        # One sum of products per entry, in the order of the four products
        # it replaced: the same bits, but for the sign of an exact zero
        # ((-0) + (-0) may come out +0), which no lift or count reads
        # (``_lower`` tests c < 0 and c == 0).
        q = np.empty(p.shape, dtype=p.dtype)
        np.einsum("ijm,jkm->ikm", mats[:4, f].reshape(2, 2, -1), p[:4].reshape(2, 2, -1),
                  out=q[:4].reshape(2, 2, -1))
        np.add(mats[4, f], p[4], out=q[4])
        t = _lower(q[0], q[2])
        n += lifts[f]
        n += lower[f] ^ s ^ t
        p, s, b = q, t, _bounded(q, b + bits)
    return p, n, b, s


def _lower(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Where the first column (a, c) of a matrix lies in the lower half plane:
    c < 0, or c == 0 and a < 0."""
    lower = c < 0
    zero = c == 0
    if zero.any():
        lower |= zero & (a < 0)
    return lower


def block_product(word: LevelWord, energies, per_slice) -> np.ndarray:
    """``per_slice`` of the transfer matrix over the segment ``word`` spells
    (its blocks' level matrices joined, O(len(blocks) + k) 2x2 products per
    energy) and of its lift. The energies are flattened and go in slices
    whose level matrices, two levels of every letter and one per block, hold
    at most 8 * _CHUNK long doubles (4 MB), so the memory beyond the results
    does not grow with the grid; the slices change no bit. ``per_slice`` maps
    a slice's product (5, m), in the unnormalized power-of-two form of
    ``iter_levels``, and its lift (m,) to an array whose last axis is the
    slice's; the results are joined on that axis, shaped as the energies."""
    E = np.asarray(energies, dtype=float)
    rule = word.rule
    at = [(k, rule.alphabet.index(x)) for k, x in word.blocks]
    size = max(1, 8 * _CHUNK // (5 * (len(at) + 2 * len(rule.alphabet))))
    out = []
    for j in range(0, max(E.size, 1), size):  # an empty grid is one empty slice
        e = E.ravel()[j:j + size]
        factors = np.empty((5, len(at), e.size), dtype=np.longdouble)
        lifts = np.empty((len(at), e.size), dtype=np.int64)
        levels = iter_levels(rule, word.letter_values, e, max(k for k, _ in at))
        for k, (mats, level_lifts) in enumerate(levels):
            for i, (ki, x) in enumerate(at):
                if ki == k:
                    factors[:, i], lifts[i] = mats[:, x], level_lifts[x]
        p, n = factors[:, 0], lifts[0]  # a level block: its matrix as built
        if len(at) > 1:  # the chain's bound of 1 bit takes normalized factors
            _rescale(factors[:2], factors[2:4], factors[4])
            p, n, _, _ = _chain(factors, lifts, 1.0, _lower(factors[0], factors[2]), range(len(at)))
        out.append(per_slice(p, n))
    out = np.concatenate(out, axis=-1)
    return out.reshape(out.shape[:-1] + E.shape)


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
    reject_nan(energies)
    word = fixed_point_window(spec, 1, n)
    if word is None:
        log_norm = Mat2(*product_grid(sample_potential(spec, 1, n), energies)).op_norm_log()
    else:
        log_norm = block_product(word, energies, _log_norm)
    return np.maximum(0.0, log_norm) / n


def _log_norm(p: np.ndarray, _) -> np.ndarray:
    """ln||P|| of a ``block_product`` slice P, through its ``product_grid`` form."""
    _rescale(p[:2], p[2:4], p[4])
    p = p.astype(float)
    return Mat2(*_normalized(p[:2], p[2:4], p[4], p.shape[1:])).op_norm_log()


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
    if not np.allclose(vals[:2 * L], vals[L:], atol=tol):  # blocks 1, 2 against 2, 3
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
