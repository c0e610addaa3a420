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
    step_matrix,
    trace_poly,
)


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

    def test_random_three_blocks(self, rng):
        for _ in range(25):
            L = int(rng.integers(1, 9))
            block = rng.uniform(-2, 2, size=L)
            vals = np.tile(block, 3)
            g = gordon_ratio(vals, float(rng.uniform(-3, 3)), L)
            assert g.three_block >= 0.5 - 1e-9
