import math

import numpy as np
import pytest

from quasispec import (
    DomainError,
    FIBONACCI_RULE,
    GOLDEN_MEAN,
    PotentialSpec,
    THUE_MORSE_RULE,
    approximant_by_denominator,
    band_spectrum,
    bounded_spectrum,
    fibonacci_trace_orbit,
    fricke_invariant,
    gap_closing_residual,
    hausdorff_distance,
    letter_matrix_orbit,
    thue_morse_residual,
    total_bandwidth,
    trace_poly,
)
from quasispec.numutil import as_float
from quasispec.tracemap import MAX_TRACE_STEPS


class TestFibonacciOrbit:
    def test_hand_iteration(self):
        # Integer traces up to 15 digits: read from the level matrices, each
        # scaled by its power of two, they come out exact.
        o = fibonacci_trace_orbit(0.0, 2.0, 10)
        assert [o.tau(n) for n in range(-1, 11)] == [
            2, 0, -2, -2, 4, -6, -22, 128, -2810, -359658, 1010638852, -363484348229806]

    def test_invariant_is_lambda_squared(self):
        assert fibonacci_trace_orbit(0.0, 2.0, 3).invariant == 4.0

    def test_escape_far_outside(self):
        assert fibonacci_trace_orbit(10.0, 1.0, 10).escape_index <= 3

    def test_escape_monotone_in_budget(self, rng):
        for _ in range(30):
            E = float(rng.uniform(-4, 4))
            lam = float(rng.uniform(0.2, 3.0))
            short = fibonacci_trace_orbit(E, lam, 12)
            long = fibonacci_trace_orbit(E, lam, 30)
            if short.escape_index is not None:
                assert long.escape_index == short.escape_index

    def test_step_budget(self):
        with pytest.raises(DomainError):
            fibonacci_trace_orbit(0.3, 2.0, MAX_TRACE_STEPS + 1)
        with pytest.raises(DomainError):
            fibonacci_trace_orbit(0.3, 2.0, 0)
        for E, lam in ((0.3, 2.0), (1e300, 2.0), (-1e308, 1e307)):
            o = fibonacci_trace_orbit(E, lam, MAX_TRACE_STEPS)
            assert all(math.isfinite(t[1] if isinstance(t, tuple) else t) for t in o.taus)

    def test_huge_values_become_log_pairs(self):
        o = fibonacci_trace_orbit(6.0, 3.0, 40)
        assert any(isinstance(t, tuple) for t in o.taus)
        # Magnitudes keep growing after escape.
        logs = [abs(t) if not isinstance(t, tuple) else math.inf for t in o.taus]
        assert logs[-1] == math.inf


class TestFricke:
    def test_values(self):
        assert fricke_invariant(-2, 0, 2) == 4.0
        assert fricke_invariant(2, 2, 2) == 0.0
        assert fricke_invariant(-6, 4, -2) == 4.0
        # tau_10, tau_9, tau_8 at E = 0, lambda = 2, where the float
        # expression cancels catastrophically: exact rationals give lambda^2.
        t2, t1, t0 = -363484348229806.0, 1010638852.0, -359658.0
        assert t2 * t2 + t1 * t1 + t0 * t0 - t2 * t1 * t0 - 4.0 != 4.0
        assert fricke_invariant(t2, t1, t0) == 4.0
        # NaN once a trace or the value leaves float range.
        assert math.isnan(fricke_invariant(math.inf, 1.0, 1.0))
        assert math.isnan(fricke_invariant((1, 800.0), 1.0, 1.0))
        assert math.isnan(fricke_invariant(1e200, 1e150, 1e100))

    def test_conserved_along_orbits(self, rng):
        for _ in range(60):
            E = float(rng.uniform(-4, 4))
            lam = float(rng.uniform(0.05, 3.0))
            o = fibonacci_trace_orbit(E, lam, 15)
            for n in range(0, 15):
                triple = [o.tau(n + 1), o.tau(n), o.tau(n - 1)]
                if any(isinstance(t, tuple) for t in triple):
                    break  # beyond float range the scaled tolerance is vacuous
                mag = max(1.0, *(abs(t) for t in triple))
                assert abs(fricke_invariant(*triple) - lam**2) <= 1e-6 * mag**2


class TestLetterOrbit:
    def test_matches_polynomial_recursion(self, rng):
        lam = 1.0
        for E in rng.uniform(-4, 4, size=8):
            traces = letter_matrix_orbit(FIBONACCI_RULE, {"a": lam, "b": 0.0},
                                         float(E), 12)
            orbit = fibonacci_trace_orbit(float(E), lam, 13)
            for level in range(13):
                got = as_float(traces["a"][level])
                want = as_float(orbit.tau(level + 1))
                if abs(want) < 1e100:
                    assert got == pytest.approx(want, rel=1e-6, abs=1e-6)

    def test_level_zero_traces(self):
        traces = letter_matrix_orbit(FIBONACCI_RULE, {"a": 0.7, "b": 0.0}, 2.0, 0)
        assert traces["a"] == [pytest.approx(2.0 - 0.7)]
        assert traces["b"] == [pytest.approx(2.0)]

    def test_thue_morse_identity(self, rng):
        lv = {"a": 1.0, "b": -1.0}
        for E in rng.uniform(-4, 4, size=10):
            xs = letter_matrix_orbit(THUE_MORSE_RULE, lv, float(E), 10)["a"]
            for n in range(1, 9):
                assert thue_morse_residual(xs, n) <= 1e-6


def _tm_trace_zeros(letter_values, level):
    """Zeros of the level-n block trace, via the explicit periodic block's
    monic trace polynomial (independent of the matrix-orbit route)."""
    word = THUE_MORSE_RULE.iterate("a", level)
    values = tuple(letter_values[ch] for ch in word)
    from quasispec import PeriodicPotential
    coeffs = trace_poly(PeriodicPotential(values))
    roots = np.roots(coeffs[::-1])
    return sorted(float(r.real) for r in roots if abs(r.imag) < 1e-9)


class TestGapClosing:
    def test_double_zeros(self):
        lv = {"a": 1.0, "b": -1.0}
        for n in (1, 2):
            zeros = _tm_trace_zeros(lv, n)
            assert len(zeros) == 2**n
            for z in zeros:
                val, der = gap_closing_residual(THUE_MORSE_RULE, lv, z, n)
                assert val <= 1e-4
                assert der <= 1e-4

    def test_generic_point_not_a_zero(self):
        lv = {"a": 1.0, "b": -1.0}
        val, _ = gap_closing_residual(THUE_MORSE_RULE, lv, 0.941, 2)
        assert val > 1e-2


class TestBoundedSpectrum:
    def test_contained_in_operator_norm_ball(self):
        bs = bounded_spectrum(1.0, (-5.0, 5.0), 12, 25)
        assert bs.bands[0][0] >= -3.0 - 0.01
        assert bs.bands[-1][1] <= 3.0 + 0.01

    def test_survivor_length_monotone_in_budget(self):
        lens = [total_bandwidth(bounded_spectrum(2.0, (-3.0, 5.0), 12, nm))
                for nm in (10, 20, 30)]
        assert lens[0] >= lens[1] >= lens[2]

    def test_close_to_floquet_approximant(self):
        spec = PotentialSpec.sturmian(GOLDEN_MEAN, 2.0)
        bands = band_spectrum(approximant_by_denominator(spec, 89))
        est = bounded_spectrum(2.0, (-3.0, 5.0), 12, 25)
        assert hausdorff_distance(est, bands) <= 0.05

    def test_mirror_symmetry(self):
        # Flipping the sign of the two-valued potential mirrors the spectrum.
        a = bounded_spectrum(1.5, (-4.0, 4.0), 10, 20)
        b = bounded_spectrum(-1.5, (-4.0, 4.0), 10, 20)
        mirrored = sorted((-hi, -lo) for lo, hi in b.bands)
        res = 8.0 / 2**10
        assert len(a.bands) == len(mirrored)
        for (lo1, hi1), (lo2, hi2) in zip(a.bands, mirrored):
            assert abs(lo1 - lo2) <= res + 1e-12
            assert abs(hi1 - hi2) <= res + 1e-12

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            bounded_spectrum(1.0, (1.0, -1.0), 4, 5)
        with pytest.raises(DomainError):
            bounded_spectrum(1.0, (-1.0, 1.0), 0, 5)
        with pytest.raises(DomainError, match="span overflows"):
            bounded_spectrum(1.0, (-1e308, 1e308), 3, 5)

    @pytest.mark.parametrize("window, limit", [((0.0, 1.0), 52), ((-5.0, 5.0), 53),
                                               ((1e-300, 2e-300), 51)])
    def test_depth_below_float_spacing_rejected(self, window, limit):
        # At the limit a cell is as wide as the float spacing of the window.
        lo, hi = window
        assert (hi - lo) / 2**limit >= math.ulp(hi) > (hi - lo) / 2**(limit + 1)
        for depth in (limit + 1, 2000, 10**30):
            with pytest.raises(DomainError, match=f"at most {limit} levels"):
                bounded_spectrum(1.0, window, depth, 5)
