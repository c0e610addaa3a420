import math

import numpy as np
import pytest

from quasispec import (
    DomainError,
    FIBONACCI_RULE,
    GOLDEN_MEAN,
    PotentialSpec,
    ResistanceProfile,
    approximant_by_denominator,
    band_spectrum,
    ids_curve,
    landauer_trace_norm,
    lyapunov_estimate,
    min_resistance,
    resistance_profile,
    sample_potential,
    scatter,
)


def _random_admissible(rng, max_len=12):
    L = int(rng.integers(1, max_len + 1))
    values = rng.uniform(-2, 2, size=L)
    w1 = float(rng.uniform(-1.5, 1.5))
    w2 = float(rng.uniform(-1.5, 1.5))
    lo, hi = max(w1, w2) - 2.0, min(w1, w2) + 2.0
    E = float(rng.uniform(lo + 0.05, hi - 0.05))
    return values, E, w1, w2


class TestScatter:
    def test_free_site_transparent(self):
        r = scatter([0.0], 0.0)
        assert abs(r.t) == pytest.approx(1.0, abs=1e-12)
        assert abs(r.r) <= 1e-12
        assert r.resistance <= 1e-12

    def test_single_barrier_quarter_wave(self):
        r = scatter([2.0], 0.0)
        assert r.resistance == pytest.approx(1.0, abs=1e-12)
        assert r.resistance_direct == pytest.approx(1.0, abs=1e-12)

    def test_golden_sample_current_conservation(self):
        spec = PotentialSpec.sturmian(GOLDEN_MEAN, 1.0)
        r = scatter(sample_potential(spec, 1, 13), 0.0)
        residual = abs(abs(r.t) ** 2 * math.sin(r.k2)
                       - (1 - abs(r.r) ** 2) * math.sin(r.k1))
        assert residual <= 1e-10

    def test_evanescent_lead_rejected(self):
        with pytest.raises(DomainError):
            scatter([0.0], 3.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            scatter([0.0], 0.0, 0.0, 2.5)

    def test_conservation_random(self, rng):
        for _ in range(100):
            values, E, w1, w2 = _random_admissible(rng)
            r = scatter(values, E, w1, w2)
            residual = abs(abs(r.t) ** 2 * math.sin(r.k2)
                           - (1 - abs(r.r) ** 2) * math.sin(r.k1))
            assert residual <= 1e-10
            assert abs(r.r) <= 1.0 + 1e-12

    def test_resistance_paths_agree(self, rng):
        for _ in range(100):
            values, E, w1, w2 = _random_admissible(rng)
            r = scatter(values, E, w1, w2)
            assert r.resistance == pytest.approx(r.resistance_direct,
                                                 rel=1e-9, abs=1e-12)

    def test_lead_matrix_determinant_relation(self, rng):
        # det Y = sin k1 / sin k2, reconstructed from t and r.
        for _ in range(100):
            values, E, w1, w2 = _random_admissible(rng)
            res = scatter(values, E, w1, w2)
            ratio = math.sin(res.k1) / math.sin(res.k2)
            alpha = (ratio / res.t).conjugate()
            beta = (-res.r * alpha.conjugate()).conjugate()
            assert abs(alpha) ** 2 - abs(beta) ** 2 == pytest.approx(
                ratio, abs=1e-9)


class TestTraceNormResistance:
    def test_single_site(self):
        assert landauer_trace_norm([2.0], 0.0) == pytest.approx(1.0, abs=1e-12)
        assert landauer_trace_norm([3.0], 0.0) == pytest.approx(9 / 4, abs=1e-12)

    def test_transparent_constant_sample(self):
        assert landauer_trace_norm([0.7] * 8, 0.7) == pytest.approx(0.0, abs=1e-12)

    def test_agrees_with_scatter_at_matched_leads(self, rng):
        for _ in range(50):
            L = int(rng.integers(1, 10))
            values = rng.uniform(-1, 1, size=L)
            E = float(rng.uniform(-0.9, 0.9))
            r = scatter(values, E, E, E)
            assert landauer_trace_norm(values, E) == pytest.approx(
                r.resistance, rel=1e-9, abs=1e-9)

    def test_nonnegative(self, rng):
        for _ in range(50):
            values = rng.uniform(-2, 2, size=int(rng.integers(1, 20)))
            assert landauer_trace_norm(values, float(rng.uniform(-3, 3))) >= -1e-12


class TestMinResistance:
    def test_free_sample(self):
        assert min_resistance([0.0], 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_single_barrier(self):
        expect = 0.25 * (math.sqrt(5) - 1) ** 2
        assert min_resistance([2.0], 0.0) == pytest.approx(expect, abs=1e-12)

    def test_below_particular_choice(self, rng):
        for _ in range(50):
            values = rng.uniform(-2, 2, size=int(rng.integers(1, 15)))
            E = float(rng.uniform(-3, 3))
            assert min_resistance(values, E) <= landauer_trace_norm(values, E) + 1e-9


class TestResistanceProfile:
    def test_free_sample_bounded(self):
        prof = resistance_profile(PotentialSpec.constant(0.0), 0.5, range(1, 101))
        assert max(p.resistance for p in prof) <= 1.0

    def test_constant_barrier_growth_rate(self):
        spec = PotentialSpec.constant(1.0)
        prof = resistance_profile(spec, 4.0, range(100, 501, 50))
        Ls = np.array([p.length for p in prof], dtype=float)
        ln_R = np.array([p.log10_resistance for p in prof]) * math.log(10.0)
        slope = np.polyfit(2 * Ls, ln_R, 1)[0]
        gamma = lyapunov_estimate(spec, 4.0, 10_000)
        assert abs(slope - gamma) / gamma <= 0.10

    def test_gap_energy_rate_matches_lyapunov(self):
        spec = PotentialSpec.sturmian(GOLDEN_MEAN, 1.0)
        bands = band_spectrum(approximant_by_denominator(spec, 89))
        widest = max(bands.gaps(), key=lambda g: g[1] - g[0])
        E = 0.5 * (widest[0] + widest[1])
        prof = resistance_profile(spec, E, range(200, 1001, 100))
        Ls = np.array([p.length for p in prof], dtype=float)
        ln_R = np.array([p.log10_resistance for p in prof]) * math.log(10.0)
        slope = np.polyfit(2 * Ls, ln_R, 1)[0]
        gamma = lyapunov_estimate(spec, E, 1000)
        assert abs(slope - gamma) / gamma <= 0.10

    def test_explicit_leads_and_validation(self):
        prof = resistance_profile(PotentialSpec.constant(0.0), 0.3, [1, 2, 3],
                                  leads=(0.0, 0.0))
        assert [p.length for p in prof] == [1, 2, 3]
        with pytest.raises(DomainError):
            resistance_profile(PotentialSpec.constant(0.0), 0.3, [3, 2])

    def test_points_match_columns(self):
        prof = resistance_profile(PotentialSpec.sturmian(GOLDEN_MEAN, 1.0), 0.4,
                                  range(5, 301, 5), leads="zero")
        assert isinstance(prof, ResistanceProfile) and len(prof) == 60
        points = list(prof)
        assert all(type(p.length) is int for p in points)
        assert [p.length for p in points] == prof.lengths.tolist()
        assert [p.resistance for p in points] == prof.resistance.tolist()
        assert [p.log10_resistance for p in points] == prof.log10_resistance.tolist()
        assert prof[-1] == points[-1] and prof[0].length == 5

    @pytest.mark.parametrize("leads", ["at-energy", "zero"])
    def test_matches_per_length_calls(self, leads):
        spec = PotentialSpec.almost_mathieu(GOLDEN_MEAN, 1.2, 0.1)
        lengths = [1, 2, 3, 255, 256, 257, 700, 1500]
        prof = resistance_profile(spec, 0.35, lengths, leads=leads)
        values = sample_potential(spec, 1, lengths[-1])
        for p in prof:
            want = (landauer_trace_norm(values[:p.length], 0.35) if leads == "at-energy"
                    else scatter(values[:p.length], 0.35).resistance_direct)
            assert p.resistance == pytest.approx(want, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize("call", [
    lambda: landauer_trace_norm([], 0.3),
    lambda: min_resistance([], 0.3),
    lambda: resistance_profile(PotentialSpec.constant(0.0), 0.3, []),
    lambda: scatter([], 0.3),
    lambda: ids_curve(PotentialSpec.substitution(FIBONACCI_RULE, {"a": 1.0, "b": 0.0}),
                      None, 10, np.array([])),
    lambda: ids_curve(PotentialSpec.sturmian(GOLDEN_MEAN, 1.0), None, 10, np.array([])),
], ids=["landauer_trace_norm", "min_resistance", "resistance_profile", "scatter",
        "ids_curve-fixed-point", "ids_curve-sampled"])
def test_empty_input_raises_domain_error(call):
    with pytest.raises(DomainError):
        call()
