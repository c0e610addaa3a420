import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quasispec import (
    DomainError,
    GOLDEN_MEAN,
    Mat2,
    MatClass,
    PeriodicPotential,
    PotentialSpec,
    approximant_by_denominator,
    band_spectrum,
    classify,
    gordon_ratio,
    lyapunov_estimate,
    propagate,
    sample_potential,
    step_matrix,
    trace_poly,
)
from quasispec.transfer import product_grid


def scalar_product(values, E):
    """Reference product: one Mat2 step per site, rescaled after every site."""
    m = Mat2(1.0, 0.0, 0.0, 1.0)
    for v in values:
        m = step_matrix(E, v).matmul(m)
    return m


def kernel_log_norms(values, energies):
    """ln of the Frobenius norm of each product from the kernel."""
    a, b, c, d, logs = product_grid(values, energies)
    return 0.5 * np.log(a * a + b * b + c * c + d * d) + logs


@st.composite
def random_chains(draw):
    """A chain with |V| <= 3 of up to 2000 sites, a grid width and a generator."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 2000))
    return rng.uniform(-3.0, 3.0, n), draw(st.sampled_from([1, 7, 300])), rng


class TestStepAndProducts:
    def test_step_entries(self):
        m = step_matrix(0.0, 0.0)
        np.testing.assert_array_equal(m.true_entries(), [[0, -1], [1, 0]])
        m = step_matrix(3.0, 1.0)
        np.testing.assert_array_equal(m.true_entries(), [[2, -1], [1, 0]])

    @given(st.floats(-5, 5), st.floats(-5, 5))
    def test_step_unimodular(self, E, v):
        assert step_matrix(E, v).det() == pytest.approx(1.0, abs=1e-12)

    def test_rotation_square_is_minus_identity(self):
        p = propagate(0.0, [0.0, 0.0])
        np.testing.assert_allclose(p.true_entries(), [[-1, 0], [0, -1]], atol=1e-15)

    def test_single_value_is_step(self):
        p = propagate(1.7, [0.4])
        np.testing.assert_allclose(p.true_entries(),
                                   step_matrix(1.7, 0.4).true_entries())

    def test_hyperbolic_growth_rate(self):
        p = propagate(3.0, [0.0] * 500)
        assert p.log_scale / 500 == pytest.approx(math.acosh(1.5), abs=1e-3)

    def test_empty_product_rejected(self):
        with pytest.raises(DomainError):
            propagate(1.0, [])

    def test_unimodularity_long_product(self, rng):
        # Weak potential keeps the product in the float-representable regime
        # where the determinant check is meaningful.
        for _ in range(3):
            values = rng.uniform(-0.01, 0.01, size=100_000)
            m = propagate(0.5, values)
            assert abs(m.det() - 1.0) <= 1e-9

    def test_rescale_keeps_entries_normalized(self, rng):
        m = propagate(2.7, rng.uniform(-2, 2, size=257))
        assert 0.5 <= np.max(np.abs(m.entries())) <= 2.0


class TestProductKernel:
    @given(random_chains())
    def test_matches_scalar_reference(self, chain):
        # Anywhere in or near the spectrum: the benchmark's tolerance.
        values, M, rng = chain
        E = rng.uniform(-5.5, 5.5, M)
        got = kernel_log_norms(values, E)
        for i in rng.choice(M, size=min(M, 3), replace=False):
            want = 0.5 * scalar_product(values, E[i]).trace_norm_sq_log()
            assert abs(got[i] - want) <= 1e-9 * max(1.0, abs(want))

    @given(random_chains())
    def test_off_spectrum_to_1e_12(self, chain):
        # |E| > max|V| + 2 lies outside the spectrum of every such chain.
        values, M, rng = chain
        E = rng.choice([-1.0, 1.0], M) * rng.uniform(5.5, 12.0, M)
        got = kernel_log_norms(values, E)
        for i in rng.choice(M, size=min(M, 3), replace=False):
            want = 0.5 * scalar_product(values, E[i]).trace_norm_sq_log()
            assert abs(got[i] - want) <= 1e-12 * abs(want)

    @given(st.lists(st.sampled_from([-1.0, 0.0, 2.0]), min_size=1, max_size=60),
           st.sampled_from([-1.0, 0.0, 2.0]))
    def test_energy_equal_to_potential(self, values, E):
        # E == V makes exact zero entries along the way.
        a, b, c, d, logs = product_grid(values, [E])
        want = scalar_product(values, E).true_entries().ravel()
        np.testing.assert_allclose(np.array([a[0], b[0], c[0], d[0]]) * np.exp(logs[0]),
                                   want, rtol=0, atol=1e-12 * np.abs(want).max())

    @given(st.floats(-5, 5), st.floats(-5, 5))
    def test_single_site_is_step(self, E, v):
        a, b, c, d, logs = product_grid([v], E)
        np.testing.assert_allclose(np.array([a, b, c, d]) * np.exp(logs),
                                   [E - v, -1.0, 1.0, 0.0], rtol=1e-15, atol=1e-15)

    @given(st.lists(st.floats(-3, 3), min_size=1, max_size=50),
           st.floats(1e199, 1e201), st.sampled_from([-1.0, 1.0]))
    def test_huge_energy_rescales_every_site(self, values, E, sign):
        # |E - V| ~ 1e200 allows no two steps between rescalings (k = 1).
        got = kernel_log_norms(values, [sign * E])[0]
        want = 0.5 * scalar_product(values, sign * E).trace_norm_sq_log()
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_rescale_schedule_changes_no_bits(self, rng):
        values = rng.uniform(-3.0, 3.0, 700)
        E = rng.uniform(-6.0, 6.0, 300)
        plain = product_grid(values, E)
        # A huge extra energy forces a rescale after every site.
        every_site = product_grid(values, np.append(E, 1e200))
        for x, y in zip(plain, every_site):
            assert np.array_equal(x, y[:-1])

    @pytest.mark.parametrize("M", [1, 7, 300])
    @pytest.mark.parametrize("chain", ["fibonacci", "almost-mathieu", "random"])
    def test_marks_equal_prefix_calls(self, chain, M):
        rng = np.random.default_rng(M)
        spec = {"fibonacci": PotentialSpec.sturmian(GOLDEN_MEAN, 1.5),
                "almost-mathieu": PotentialSpec.almost_mathieu(GOLDEN_MEAN, 2.5, 0.3),
                "random": PotentialSpec.explicit(rng.uniform(-3.0, 3.0, 5000))}[chain]
        values = sample_potential(spec, 1, 5000)
        E = rng.uniform(-4.5, 4.5, M)
        marks = np.unique(np.concatenate([[1, 255, 256, 257, 512, 4999, 5000],
                                          rng.integers(1, 5001, 25)]))
        rows = product_grid(values, E, marks)
        assert all(r.shape == (len(marks), M) for r in rows)
        for k, m in enumerate(marks):
            for got, want in zip(rows, product_grid(values[:m], E)):
                assert np.array_equal(got[k], want)

    @pytest.mark.parametrize("values, marks", [
        ([], None), ([1.0, 2.0], []), ([1.0, 2.0], [0]), ([1.0, 2.0], [3]),
        ([1.0, 2.0], [2, 1]), ([1.0, 2.0], [1, 1])])
    def test_rejects_empty_chain_and_bad_marks(self, values, marks):
        with pytest.raises(DomainError):
            product_grid(values, [0.3], marks)


class TestClassify:
    def test_elliptic(self):
        assert classify(step_matrix(0.0, 0.0)) is MatClass.ELLIPTIC

    def test_parabolic(self):
        assert classify(step_matrix(2.0, 0.0)) is MatClass.PARABOLIC

    def test_minus_identity(self):
        assert classify(propagate(0.0, [0.0, 0.0])) is MatClass.MINUS_IDENTITY

    def test_plus_identity(self):
        p = propagate(0.0, [0.0] * 4)  # fourth power of the quarter rotation
        assert classify(p) is MatClass.PLUS_IDENTITY

    def test_hyperbolic(self):
        assert classify(step_matrix(5.0, 0.0)) is MatClass.HYPERBOLIC


class TestWronskian:
    @pytest.mark.parametrize("values,E", [
        (None, 1.0),            # free chain
        ([0.0, 1.0], None),     # period-2, energy picked inside a band
    ])
    def test_constant_wronskian(self, values, E):
        if values is None:
            values, E = [0.0], E
            pot = [0.0] * 10_000
        else:
            bands = band_spectrum(PeriodicPotential(tuple(values))).bands
            E = 0.5 * (bands[0][0] + bands[0][1])
            pot = (values * (10_000 // len(values) + 1))[:10_000]
        # Standard solutions by direct recursion, independent of Mat2.
        p1_prev, p1 = 0.0, 1.0
        p2_prev, p2 = 1.0, 0.0
        for v in pot:
            p1_prev, p1 = p1, (E - v) * p1 - p1_prev
            p2_prev, p2 = p2, (E - v) * p2 - p2_prev
            w = p1 * p2_prev - p1_prev * p2
            assert abs(w - 1.0) <= 1e-8


def _random_unimodular(rng, elliptic: bool):
    while True:
        tr = rng.uniform(-1.9, 1.9) if elliptic else \
            rng.choice([-1, 1]) * rng.uniform(2.05, 2.5)
        a = rng.uniform(-2, 2)
        d = tr - a
        bc = a * d - 1.0
        b = rng.uniform(0.3, 2.0) * rng.choice([-1, 1])
        c = bc / b
        if abs(c) < 50:
            return np.array([[a, b], [c, d]])


class TestPowerTraceLaw:
    def test_elliptic_powers_bounded(self, rng):
        for _ in range(40):
            A = _random_unimodular(rng, elliptic=True)
            P = np.eye(2)
            for _ in range(64):
                P = A @ P
                assert abs(np.trace(P)) <= 2.0 + 1e-9

    def test_hyperbolic_powers_unbounded(self, rng):
        for _ in range(40):
            A = _random_unimodular(rng, elliptic=False)
            P = np.eye(2)
            for _ in range(64):
                P = A @ P
                assert abs(np.trace(P)) > 2.0


class TestLyapunov:
    def test_free_hyperbolic(self):
        got = lyapunov_estimate(PotentialSpec.constant(0.0), 3.0, 10_000)
        assert got == pytest.approx(math.acosh(1.5), abs=1e-2)

    def test_free_elliptic(self):
        assert lyapunov_estimate(PotentialSpec.constant(0.0), 0.0, 10_000) <= 1e-3

    def test_shift_invariance(self):
        got = lyapunov_estimate(PotentialSpec.constant(5.0), 8.0, 10_000)
        assert got == pytest.approx(math.acosh(1.5), abs=1e-2)

    def test_nonnegative(self, rng):
        for _ in range(5):
            spec = PotentialSpec.explicit(rng.uniform(-2, 2, size=7))
            assert lyapunov_estimate(spec, rng.uniform(-4, 4), 500) >= 0.0

    def test_norm_lower_bounds(self, rng):
        # Operator norm >= 1 and squared trace norm >= 2 for any product.
        for _ in range(20):
            m = propagate(rng.uniform(-3, 3), rng.uniform(-2, 2, size=23))
            assert m.op_norm_log() >= -1e-12
            assert m.trace_norm_sq_log() >= math.log(2.0) - 1e-12


class TestTracePoly:
    def test_degree_one(self):
        np.testing.assert_allclose(trace_poly(PeriodicPotential((0.0,))), [0, 1])

    def test_degree_two(self):
        np.testing.assert_allclose(trace_poly(PeriodicPotential((0.0, 2.0))),
                                   [-2, -2, 1])

    def test_cap(self):
        with pytest.raises(DomainError):
            trace_poly(PeriodicPotential((0.0,) * 65))

    def test_matches_propagate(self, rng):
        values = tuple(rng.uniform(-2, 2, size=9))
        coeffs = trace_poly(PeriodicPotential(values))
        assert coeffs[-1] == pytest.approx(1.0, abs=1e-12)
        for E in rng.uniform(-3, 3, size=20):
            direct = propagate(E, values).trace
            poly = float(np.polynomial.polynomial.polyval(E, coeffs))
            assert poly == pytest.approx(direct, rel=1e-8, abs=1e-8)


class TestGordon:
    def test_free_rotation_ratio_one(self):
        g = gordon_ratio([0.0] * 9, 0.0, 3)
        assert g.three_block == pytest.approx(1.0, abs=1e-12)

    def test_free_ratio_bound(self):
        g = gordon_ratio([0.0] * 12, 1.0, 4)
        assert g.three_block >= 0.5

    def test_periodic_block(self):
        g = gordon_ratio([1.0, 0.0] * 9, 0.5, 6)
        assert g.three_block >= 0.5
        assert g.two_block >= 0.5

    def test_ratios_past_float_range_are_inf(self):
        spec = PotentialSpec.almost_mathieu(GOLDEN_MEAN, 3.0, 0.0)
        block = approximant_by_denominator(spec, 610).values
        g = gordon_ratio(np.tile(block, 3), 1.7, 610)
        assert g.three_block == math.inf
        assert g.two_block == math.inf

    def test_repetition_checked(self):
        vals = [0.0] * 8 + [1.0]
        with pytest.raises(DomainError):
            gordon_ratio(vals, 0.3, 3)

    def test_matches_direct_recursion(self, rng):
        for _ in range(25):
            L = int(rng.integers(1, 12))
            vals = np.tile(rng.uniform(-2, 2, size=L), 3)
            E = float(rng.uniform(-3, 3))
            fwd = [(1.0, 0.0)]  # (psi_{n+1}, psi_n) for n = 0 .. 2L
            for v in vals[L:]:
                fwd.append(((E - v) * fwd[-1][0] - fwd[-1][1], fwd[-1][0]))
            back = (1.0, 0.0)  # (psi_{n+1}, psi_n) for n = 0 down to -L
            for v in vals[L - 1::-1]:
                back = (back[1], (E - v) * back[1] - back[0])
            norm_L, norm_2L = math.hypot(*fwd[L]), math.hypot(*fwd[2 * L])
            tr = scalar_product(vals[L:2 * L], E).trace
            g = gordon_ratio(vals, E, L)
            assert g.three_block == pytest.approx(
                max(math.hypot(*back), norm_L, norm_2L), rel=1e-12)
            assert g.two_block == pytest.approx(max(abs(tr) * norm_L, norm_2L), rel=1e-12)
            assert g.trace == pytest.approx(tr, rel=1e-12, abs=1e-12)

    def test_random_three_blocks(self, rng):
        for _ in range(25):
            L = int(rng.integers(1, 9))
            block = rng.uniform(-2, 2, size=L)
            vals = np.tile(block, 3)
            g = gordon_ratio(vals, float(rng.uniform(-3, 3)), L)
            assert g.three_block >= 0.5 - 1e-9
