import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quasispec import (
    DomainError,
    GOLDEN_MEAN,
    IdsCurve,
    PotentialSpec,
    char_poly_value,
    count_below,
    count_below_periodic,
    eigen_count,
    free_ids,
    ids_curve,
    thouless_gamma,
)
from quasispec import ids
from quasispec import transfer
from quasispec.ids import bisect_eigenvalues, dirichlet_count, floquet_count
from quasispec.potentials import fixed_point_window, periodic_approximant, sample_potential

from conftest import RULES, primitive_rules


def _dense_tridiag(diag):
    L = len(diag)
    H = np.diag(np.asarray(diag, dtype=float))
    if L > 1:
        H += np.diag(np.ones(L - 1), 1) + np.diag(np.ones(L - 1), -1)
    return H


def site_guarded_count_below(diag, energies):
    """Reference Dirichlet count: the pivot recursion with the floor applied
    at every site."""
    E = np.atleast_1d(np.asarray(energies, dtype=float))
    counts = np.zeros(E.shape, dtype=np.int64)
    d = np.full(E.shape, np.inf)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for v in np.asarray(diag, dtype=float):
            d = (v - E) - 1.0 / d
            d = np.where(np.abs(d) < ids._PIVOT_FLOOR, ids._PIVOT_FLOOR, d)
            counts += d < 0
    return counts


def site_guarded_count_periodic(diag, energies, corner):
    """Reference wrap-around count for L >= 2: the bordered elimination with
    the guards at every site, and for L = 2 the 2 x 2 pivots with the corner
    added to the off-diagonal. The guards: a pivot below 1e-12 (|E| + max|V|
    + 2) in magnitude whose next site is still in the leading block is taken
    with that site as one pair in its exact limit, which has one negative
    pivot and leaves 1/d = 0 for the pivot after it; any other pivot is
    floored, and f and s are saturated at +-1e150."""
    vals = np.asarray(diag, dtype=float)
    E = np.atleast_1d(np.asarray(energies, dtype=float))
    L = len(vals)

    def fix(d):
        return np.where(np.abs(d) < ids._PIVOT_FLOOR, ids._PIVOT_FLOOR, d)

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if L == 2:
            off = 1.0 + corner
            d1 = fix(vals[0] - E)
            d2 = fix((vals[1] - E) - off * off / d1)
            return (d1 < 0).astype(np.int64) + (d2 < 0)
        tol = 1e-12 * (np.abs(E) + np.abs(vals).max() + 2.0)
        counts = np.zeros(E.shape, dtype=np.int64)
        f = np.broadcast_to(float(corner), E.shape)
        s = vals[L - 1] - E
        inv, second = np.zeros(E.shape), np.zeros(E.shape, dtype=bool)
        for j in range(L - 1):  # the leading sites; row j + 1 meets the column at j = L - 3
            a = vals[j] - E
            d = a - inv
            first = (np.abs(d) < tol) & ~second & (j < L - 2)
            d = np.where(first | second, d, fix(d))
            c_before, c = float(j - 1 == L - 3), float(j == L - 3)
            s = np.where(first, s, np.where(second, s + a * f * f - 2.0 * c_before * f,
                                            s - f * f / d))
            f = np.where(first, f, np.where(second, c - f, c - f / d))
            f = np.minimum(np.maximum(f, -1e150), 1e150)
            s = np.minimum(np.maximum(s, -1e150), 1e150)
            counts += first | (~second & (d < 0))
            inv = np.where(first | second, 0.0, 1.0 / d)
            second = first
        counts += fix(s) < 0
    return counts


@st.composite
def guard_chains(draw):
    """A chain of 2 to 200 sites and up to 40 energies. Values and energies
    from {-1, 0, 2} make zero pivots; a 1e200 diagonal entry saturates s and
    an energy of +-1e200 saturates every s; otherwise uniform draws."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    L, M = draw(st.integers(2, 200)), draw(st.integers(1, 40))
    if draw(st.booleans()):
        diag, E = rng.choice([-1.0, 0.0, 2.0], L), rng.choice([-1.0, 0.0, 2.0], M)
    else:
        diag, E = rng.uniform(-3.0, 3.0, L), rng.uniform(-5.0, 5.0, M)
    if draw(st.booleans()):
        diag[rng.integers(L)] = 1e200
    if draw(st.booleans()):
        E[rng.integers(M)] = rng.choice([-1.0, 1.0]) * 1e200
    return diag, E, draw(st.sampled_from([1.0, -1.0])), draw(st.sampled_from([64, 1 << 15]))


class TestGuardDeferredSweep:
    """The block sweep checks its guards once per block and reruns a tripped
    block with per-site guards: the counts equal the per-site guarded
    recursion's, on chains that trip every guard and at any block size."""

    @settings(max_examples=300)
    @given(guard_chains())
    def test_counts_equal_site_guarded_references(self, chain):
        diag, E, corner, chunk = chain
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transfer, "_CHUNK", chunk)
            dirichlet = count_below(diag, E)
            periodic = count_below_periodic(diag, E, corner)
        assert np.array_equal(dirichlet, site_guarded_count_below(diag, E))
        assert np.array_equal(periodic, site_guarded_count_periodic(diag, E, corner))

    def test_guards_trip_and_rerun(self):
        # A zero pivot at site 2 of the free chain at E = 0, and a saturated
        # Schur complement from a 1e200 corner site.
        calls = []
        original = ids._pivot_rows

        def spy(*args):
            calls.append(args[5])
            return original(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ids, "_pivot_rows", spy)
            assert count_below([0.0, 0.0, 0.0], [0.0])[0] == 1
            assert calls == [False, True]
            calls.clear()
            diag = np.array([0.5, -0.5, 0.25, 1e200])
            E = np.array([-1.0, 0.1, 2.0])
            assert np.array_equal(count_below_periodic(diag, E, 1.0),
                                  site_guarded_count_periodic(diag, E, 1.0))
            assert calls == [False, True]

    def test_empty_diagonal_counts_zero(self):
        np.testing.assert_array_equal(count_below_periodic([], [0.0, 1.0], 1.0), [0, 0])
        stacked = count_below_periodic(np.empty((0, 2)), np.zeros((2, 3)), [1.0, -1.0])
        assert stacked.shape == (2, 3) and not stacked.any()


class TestTinyBorderedPivot:
    """A bordered pivot that is zero, or zero up to rounding, is taken with
    the next site as one pair, and the counts keep to the dense eigenvalues."""

    @pytest.mark.parametrize("corner", [1.0, -1.0])
    def test_zero_first_pivot(self, corner):
        assert count_below_periodic([0.0, 8.0, 0.0], [0.0], corner)[0] == 1

    @pytest.mark.parametrize("corner", [1.0, -1.0])
    def test_energy_at_every_value(self, rng, corner):
        # Half-integer periods make zero pivots; an energy that is itself an
        # eigenvalue has no strict count to compare.
        for _ in range(400):
            vals = rng.integers(-6, 7, size=int(rng.integers(1, 13))) / 2.0
            E = np.unique(vals)
            eig = np.linalg.eigvalsh(_dense_wraparound(vals, corner))
            want = np.sum(eig[None, :] < E[:, None], axis=1)
            off = np.min(np.abs(eig[None, :] - E[:, None]), axis=1) > 1e-9
            got = count_below_periodic(vals, E, corner)
            assert np.array_equal(got[off], want[off]), vals


class TestEigenCount:
    def test_free_five_sites(self):
        # Eigenvalues 2cos(k pi / 6): +-sqrt(3), +-1, 0; two lie strictly below 0.
        assert eigen_count([0.0] * 5, 0.0) == 2

    def test_below_and_above_spectrum(self, rng):
        for _ in range(10):
            vals = rng.uniform(-2, 2, size=int(rng.integers(1, 40)))
            bound = 2 + float(np.max(np.abs(vals)))
            assert eigen_count(vals, -bound - 1) == 0
            assert eigen_count(vals, bound + 1) == len(vals)

    def test_matches_dense_solver(self, rng):
        for _ in range(50):
            L = int(rng.integers(1, 51))
            vals = rng.uniform(-3, 3, size=L)
            E = float(rng.uniform(-5, 5))
            ref = int(np.sum(np.linalg.eigvalsh(_dense_tridiag(vals)) < E))
            assert eigen_count(vals, E) == ref

    def test_empty_window(self):
        with pytest.raises(DomainError):
            eigen_count([], 0.0)


def _dense_wraparound(vals, corner):
    """The wrap-around restriction with boundary phase 0 (corner +1) or pi
    (corner -1), with its degenerate forms for L = 1, 2."""
    L = len(vals)
    H = np.diag(np.asarray(vals, dtype=float))
    if L == 1:
        H[0, 0] += 2 * corner
    else:
        H += np.diag(np.ones(L - 1), 1) + np.diag(np.ones(L - 1), -1)
        if L == 2:
            H[0, 1] += corner
            H[1, 0] += corner
        else:
            H[0, L - 1] += corner
            H[L - 1, 0] += corner
    return H


class TestPeriodicCounter:
    def test_matches_dense_solver(self, rng):
        for _ in range(60):
            L = int(rng.integers(1, 16))
            vals = rng.uniform(-3, 3, size=L)
            for corner in (1.0, -1.0):
                ev = np.linalg.eigvalsh(_dense_wraparound(vals, corner))
                E = rng.uniform(-6, 6, size=5)
                ref = np.array([int(np.sum(ev < e)) for e in E])
                np.testing.assert_array_equal(
                    count_below_periodic(vals, E, corner), ref)


@st.composite
def wraparound_stacks(draw):
    """B wrap-around problems of one length L: diag (L, B), corners (B,),
    per-problem brackets (B,) and energies (B, M) inside them, some of them
    exactly at a diagonal entry so that zero pivots occur."""
    L = draw(st.sampled_from([1, 2, 3]) | st.integers(4, 60))
    B = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # two-valued periods
        diag = rng.choice([0.0, float(rng.uniform(0.5, 4.0))], size=(L, B))
    else:
        diag = rng.uniform(-3.0, 3.0, size=(L, B)).round(int(rng.integers(1, 17)))
    corners = rng.choice([1.0, -1.0], size=B)
    lo, hi = diag.min(axis=0) - 4.0, diag.max(axis=0) + 4.0
    E = rng.uniform(lo[:, None], hi[:, None], size=(B, draw(st.integers(1, 12))))
    E[:, 0] = diag[0]
    return diag, corners, lo, hi, E


class TestStackedWraparound:
    """The stacked forms run each problem with the arithmetic of its own call."""

    @given(wraparound_stacks())
    def test_counts_equal_per_problem_calls(self, stack):
        diag, corners, _, _, E = stack
        ref = np.array([count_below_periodic(diag[:, b], E[b], corners[b])
                        for b in range(len(corners))])
        np.testing.assert_array_equal(count_below_periodic(diag, E, corners), ref)

    @given(wraparound_stacks())
    def test_bisection_equals_per_problem_calls(self, stack):
        diag, corners, lo, hi, _ = stack
        L = len(diag)
        stacked = bisect_eigenvalues(
            lambda E: count_below_periodic(diag, E, corners), L, lo, hi)
        ref = np.array([
            bisect_eigenvalues(lambda E: count_below_periodic(diag[:, b], E, corners[b]),
                               L, lo[b], hi[b])
            for b in range(len(corners))])
        np.testing.assert_array_equal(stacked, ref)


@st.composite
def level_chains(draw):
    """A named or random primitive rule (2 or 3 letters), letter values, the
    period of an order in 1..10 with at most 400 sites, a window half-size
    and a generator."""
    rule = draw(st.sampled_from(list(RULES.values())) | primitive_rules())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lv = {x: float(rng.uniform(-3.0, 3.0)) for x in rule.alphabet}
    spec = PotentialSpec.substitution(rule, lv)
    period = periodic_approximant(spec, 1)
    for order in range(2, draw(st.integers(1, 10)) + 1):
        (_, x), = period.level_word.blocks
        if len(rule.iterate(x, order)) > 400:
            break
        period = periodic_approximant(spec, order)
    return spec, period, draw(st.integers(1, 300)), rng


def _far_from(E, eigenvalues, rel=1e-9):
    """The energies at least ``rel`` (relative) from every eigenvalue."""
    E = np.asarray(E, dtype=float)
    gap = np.abs(E[:, None] - eigenvalues[None, :]).min(axis=1)
    return E[gap >= rel * np.maximum(1.0, np.abs(E))]


class TestLiftedCounts:
    """Counts from the lifted level matrices against the pivot counts, at
    energies at least 1e-9 (relative) from every dense eigenvalue, and
    against the dense counts exactly at the letter values, where level
    products have (AB)_21 == 0."""

    @given(level_chains())
    def test_floquet_count_equals_pivot_counts(self, chain):
        spec, period, _, rng = chain
        vals = np.asarray(period.values)
        ev = np.concatenate([np.linalg.eigvalsh(_dense_wraparound(vals, c)) for c in (1, -1)])
        E = _far_from(rng.uniform(vals.min() - 4.5, vals.max() + 4.5, 60), ev)
        want = count_below_periodic(vals, E, 1.0) + count_below_periodic(vals, E, -1.0)
        np.testing.assert_array_equal(floquet_count(period.level_word, E), want)
        E = _far_from(list(spec.letter_values.values()), ev)
        want = [np.count_nonzero(ev < e) for e in E]
        np.testing.assert_array_equal(floquet_count(period.level_word, E), want)

    @given(level_chains())
    def test_window_count_equals_pivot_count(self, chain):
        spec, _, L, rng = chain
        window = sample_potential(spec, -L, L)
        ev = np.linalg.eigvalsh(_dense_tridiag(window))
        word = fixed_point_window(spec, -L, L)
        E = _far_from(rng.uniform(window.min() - 3.0, window.max() + 3.0, 60), ev)
        got = dirichlet_count(word, E)
        np.testing.assert_array_equal(got, count_below(window, E))
        E = _far_from(list(spec.letter_values.values()), ev)
        got = dirichlet_count(word, E)
        np.testing.assert_array_equal(got, [np.count_nonzero(ev < e) for e in E])

    @pytest.mark.parametrize("rounding", ["floor", "ceil"])
    def test_golden_window_count_equals_pivot_count(self, rounding):
        # The golden-mean Sturmian at omega = 0 gets two-sided words too.
        spec = PotentialSpec.sturmian(GOLDEN_MEAN, 2.0, rounding=rounding)
        E = np.random.default_rng(17).uniform(-3.0, 5.0, 200)
        for L in (1, 2, 3, 10, 1000, 54321):
            word = fixed_point_window(spec, -L, L)
            assert word.sites == 2 * L + 1
            np.testing.assert_array_equal(dirichlet_count(word, E),
                                          count_below(sample_potential(spec, -L, L), E))

    @pytest.mark.parametrize("rounding", ["floor", "ceil"])
    def test_shifted_golden_ids_equals_pivot_count(self, rounding):
        # Every golden phase: ids_curve counts a shifted factor window of the
        # Fibonacci fixed point from its level products.
        rng = np.random.default_rng(23)
        for omega, L in ((0.3, 400), (-0.8, 333), (7.25, 500), (float(rng.uniform()), 1)):
            spec = PotentialSpec.sturmian(GOLDEN_MEAN, 2.0, omega, rounding)
            window = sample_potential(spec, -L, L)
            assert fixed_point_window(spec, -L, L) is not None
            ev = np.linalg.eigvalsh(_dense_tridiag(window))
            E = _far_from(np.sort(np.concatenate([rng.uniform(-3.0, 5.0, 200), [0.0, 2.0]])), ev)
            curve = ids_curve(spec, None, L, E)
            np.testing.assert_array_equal(np.rint(curve.values * (2 * L + 1)),
                                          count_below(window, E))

    @pytest.mark.parametrize("name", RULES)
    def test_ids_curve_takes_the_lifted_count(self, name):
        # 2 x 10^6 + 1 sites: the pivot sweep would take seconds.
        spec = PotentialSpec.substitution(RULES[name], {"a": 1.0, "b": -0.5})
        grid = np.linspace(-4.0, 4.0, 200)
        curve = ids_curve(spec, None, 10**6, grid)
        assert curve.size == 2 * 10**6 + 1
        L = 3000
        np.testing.assert_array_equal(
            ids_curve(spec, None, L, grid).values,
            count_below(sample_potential(spec, -L, L), grid) / (2 * L + 1))


class TestIdsCurve:
    def test_free_midpoint(self):
        grid = np.linspace(-3, 3, 241)
        curve = ids_curve(PotentialSpec.constant(0.0), None, 1000, grid)
        assert curve.at(0.0) == pytest.approx(0.5, abs=2e-3)
        assert curve.at(1.0) == pytest.approx(free_ids(1.0), abs=2e-3)
        assert curve.size == 2001

    def test_zero_below_spectrum(self):
        grid = np.array([-5.0, -4.5])
        curve = ids_curve(PotentialSpec.sturmian(GOLDEN_MEAN, 1.0), None, 400, grid)
        assert curve.values[0] == 0.0

    def test_monotone_and_stable_in_size(self):
        grid = np.linspace(-3.5, 3.5, 101)
        for spec in (PotentialSpec.constant(0.0),
                     PotentialSpec.sturmian(GOLDEN_MEAN, 1.0)):
            nl = ids_curve(spec, None, 200, grid).values
            n2l = ids_curve(spec, None, 400, grid).values
            assert np.all(np.diff(nl) >= -1e-15)
            assert np.max(np.abs(nl - n2l)) <= 5 / 200

    def test_boundary_condition_independence(self, rng):
        # Dirichlet and wrap-around restrictions differ by at most 2/L.
        L = 150
        vals = rng.uniform(-1, 1, size=5)
        spec = PotentialSpec.explicit(vals)
        grid = np.linspace(-3.5, 3.5, 141)
        from quasispec import count_below, sample_potential
        diag = sample_potential(spec, -L, L)
        nd = count_below(diag, grid) / (2 * L + 1)
        npb = count_below_periodic(diag, grid, 1.0) / (2 * L + 1)
        assert np.max(np.abs(nd - npb)) <= 2 / L
        curve = ids_curve(spec, None, L, grid)
        np.testing.assert_allclose(curve.values, nd, atol=1e-12)

    def test_omega_override(self):
        grid = np.linspace(-4, 4, 41)
        spec = PotentialSpec.almost_mathieu(GOLDEN_MEAN, 1.5, omega=0.0)
        a = ids_curve(spec, 0.25, 60, grid)
        b = ids_curve(spec.with_omega(0.25), None, 60, grid)
        np.testing.assert_array_equal(a.values, b.values)

    def test_curve_validation(self):
        with pytest.raises(DomainError):
            IdsCurve(np.array([0.0, 0.0]), np.array([0.0, 1.0]), 3)
        with pytest.raises(DomainError):
            IdsCurve(np.array([0.0, 1.0]), np.array([0.5, 0.1]), 3)


class TestFreeIds:
    def test_anchors(self):
        assert free_ids(0.0) == 0.5
        assert free_ids(-2.0) == 0.0
        assert free_ids(2.0) == 1.0
        assert free_ids(1.0) == pytest.approx(0.5 + math.asin(0.5) / math.pi)

    @given(st.floats(-10, 10))
    def test_monotone_bounded(self, e):
        v = free_ids(e)
        assert 0.0 <= v <= 1.0
        assert free_ids(e + 0.1) >= v


@pytest.fixture(scope="module")
def free_curve():
    grid = np.linspace(-2, 2, 10001)
    return IdsCurve(grid, free_ids(grid), 10**6)


class TestThouless:

    def test_outside_spectrum(self, free_curve):
        for E in (3.0, 10.0):
            assert thouless_gamma(free_curve, E) == pytest.approx(
                math.acosh(E / 2), abs=0.01)

    def test_inside_spectrum(self, free_curve):
        assert abs(thouless_gamma(free_curve, 0.0)) <= 0.02

    def test_on_grid_point(self, free_curve):
        # Landing exactly on a grid node triggers the singular-cell rule.
        E = float(free_curve.energies[5000])
        assert abs(thouless_gamma(free_curve, E)) <= 0.02


class TestCharPoly:
    def test_single_site(self):
        assert char_poly_value([5.0], 2.0) == pytest.approx(-3.0)

    def test_two_sites(self):
        assert char_poly_value([0.0, 0.0], 1.5) == pytest.approx(1.5**2 - 1)

    def test_matches_dense_determinant(self, rng):
        for _ in range(50):
            L = int(rng.integers(1, 9))
            vals = rng.uniform(-3, 3, size=L)
            E = float(rng.uniform(-6, 6))
            oracle = float(np.linalg.det(E * np.eye(L) - _dense_tridiag(vals)))
            got = char_poly_value(vals, E)
            assert got == pytest.approx(oracle, rel=1e-8, abs=1e-8)

    def test_huge_value_goes_to_log_pair(self):
        got = char_poly_value([0.0] * 400, 10.0)
        assert isinstance(got, tuple)
        sign, log_abs = got
        assert sign == 1
        # psi grows like the larger root of x^2 - 10x + 1.
        rate = math.log((10 + math.sqrt(96)) / 2)
        assert log_abs == pytest.approx(400 * rate, rel=1e-2)
