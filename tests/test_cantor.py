import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quasispec import (
    DomainError,
    GOLDEN_MEAN,
    LabelSet,
    cantor_alpha,
    cantor_fourier,
    hierarchical_labels,
    sturmian_label_set,
)
from quasispec.potentials import MAX_SITES


class TestCantorFunction:
    def test_anchor_values(self):
        assert cantor_alpha(0.0) == 0.0
        assert cantor_alpha(Fraction(1, 3)) == 0.5
        assert cantor_alpha(0.25) == pytest.approx(1 / 3, abs=1e-15)

    def test_outside_unit_interval(self):
        assert cantor_alpha(-0.5) == 0.0
        assert cantor_alpha(1.5) == 1.0

    def test_triadic_rational_infinite_representation(self):
        # 2/3 = 0.2(000...) base 3, taken as 0.1(222...): both give 1/2...
        # actually 0.2 -> digit 2 then zeros: value 1/2 from either side.
        assert cantor_alpha(Fraction(2, 3)) == 0.5
        assert cantor_alpha(Fraction(1, 9)) == 0.25
        assert cantor_alpha(Fraction(2, 9)) == 0.25

    @given(st.fractions(min_value=0, max_value=1))
    def test_symmetry(self, x):
        assert abs(cantor_alpha(x) + cantor_alpha(1 - x) - 1.0) <= 1e-12

    @given(st.fractions(min_value=0, max_value=Fraction(1, 3)))
    def test_self_similarity(self, x):
        assert abs(2.0 * cantor_alpha(x) - cantor_alpha(3 * x)) <= 1e-12

    def test_monotone_on_grid(self):
        xs = np.linspace(0.0, 1.0, 10_001)
        vals = [cantor_alpha(float(x)) for x in xs]
        assert all(b - a >= -1e-15 for a, b in zip(vals, vals[1:]))

    def test_middle_thirds_remainder_measure(self):
        # Explicit interval bookkeeping: removing middle thirds leaves (2/3)^n.
        # Endpoints are kept as integers in units of 3^-n, so the arithmetic
        # is exact; each level-n interval (a, a+1) splits into (3a, 3a+1) and
        # (3a+2, 3a+3).
        starts = [0]
        for n in range(1, 21):
            starts = [s for a in starts for s in (3 * a, 3 * a + 2)]
            assert len(starts) == 2**n
            measure = Fraction(len(starts), 3**n)
            assert measure == Fraction(2, 3) ** n
            assert all(b - a >= 2 for a, b in zip(starts, starts[1:]))


class TestCantorFourier:
    def test_at_zero(self):
        assert cantor_fourier(0.0, 10) == pytest.approx(1.0)

    def test_no_decay_along_powers_of_three(self):
        base = abs(cantor_fourier(2 * math.pi, 60))
        for k in range(6):
            assert abs(cantor_fourier(2 * math.pi * 3**k, 60)) == pytest.approx(
                base, abs=1e-10)

    def test_matches_direct_product(self):
        t = math.pi
        direct = cmath.exp(0.5j * t)
        for n in range(1, 61):
            direct *= math.cos(t / 3**n)
        assert cantor_fourier(t, 60) == pytest.approx(direct, abs=1e-12)

    def test_factors_past_unit_cosines_change_nothing(self):
        # Every factor past |t| 3^-n < 1e-8 is exactly 1.0.
        for t in (0.0, 1.5, 50.0, -1e4):
            prod, scale = 1.0, 1.0
            for _ in range(100):
                scale /= 3.0
                prod *= math.cos(t * scale)
            assert cantor_fourier(t, 10**9) == cmath.exp(0.5j * t) * prod

    def test_needs_a_factor(self):
        with pytest.raises(DomainError):
            cantor_fourier(1.0, 0)


class TestSturmianLabels:
    def test_golden_small(self):
        got = sturmian_label_set(GOLDEN_MEAN, 3)
        expect = sorted((k * GOLDEN_MEAN) % 1.0 for k in range(-3, 4))
        assert len(got) == 7
        np.testing.assert_allclose(got.values, expect, atol=1e-12)

    def test_rational_alpha_collapses(self):
        got = sturmian_label_set(0.4, 10)
        np.testing.assert_allclose(got.values, [0, 0.2, 0.4, 0.6, 0.8], atol=1e-9)

    def test_k_zero(self):
        assert sturmian_label_set(GOLDEN_MEAN, 0).values == (0.0,)

    def test_group_closure(self):
        k = 6
        small = sturmian_label_set(GOLDEN_MEAN, k)
        big = sturmian_label_set(GOLDEN_MEAN, 2 * k)
        for x in small.values:
            for y in small.values:
                s = (x + y) % 1.0
                assert min(abs(s - v) for v in big.values + (1.0,)) <= 1e-12

    def test_alpha_validation(self):
        with pytest.raises(DomainError):
            sturmian_label_set(1.2, 3)


class TestHierarchicalLabels:
    def test_levels(self):
        assert hierarchical_labels(0).values == (0.5,)
        assert hierarchical_labels(1).values == (0.25, 0.5, 0.75)
        assert len(hierarchical_labels(2)) == 7

    def test_all_dyadic_odd(self):
        for v in hierarchical_labels(4).values:
            f = Fraction(v).limit_denominator(2**6)
            assert f.denominator & (f.denominator - 1) == 0  # a power of two
            assert f.numerator % 2 == 1

    def test_label_budget(self):
        # 2^23 - 1 and 2^22 + 1 labels: one past MAX_SITES = 2^22 each.
        with pytest.raises(DomainError, match="budget"):
            hierarchical_labels(22)
        with pytest.raises(DomainError, match="budget"):
            sturmian_label_set(GOLDEN_MEAN, MAX_SITES // 2)

    def test_labelset_dedup_and_sort(self):
        ls = LabelSet((0.5, 0.25, 0.5 + 1e-15))
        assert ls.values == (0.25, 0.5)
        assert ls.nearest(0.4) == 0.5


def loop_label_values(values):
    """Reference dedup: sort, then keep each label more than 1e-12 above the
    last one kept, one Python float at a time."""
    dedup = []
    for x in sorted(values):
        if not 0.0 <= x < 1.0 + 1e-12:
            raise DomainError("labels must lie in [0, 1)")
        if not dedup or x - dedup[-1] > 1e-12:
            dedup.append(float(x))
    return tuple(dedup)


class TestVectorizedLabels:
    """The numpy label sets equal the Python-loop construction exactly."""

    @pytest.mark.parametrize("alpha", [GOLDEN_MEAN, 0.3, 0.5, 2 ** -0.5, 1e-9])
    @pytest.mark.parametrize("k_max", [0, 1, 13, 1000, 262143])
    def test_sturmian(self, alpha, k_max):
        want = loop_label_values((k * alpha) % 1.0 for k in range(-k_max, k_max + 1))
        assert sturmian_label_set(alpha, k_max).values == want

    @pytest.mark.parametrize("n_max", range(13))
    def test_hierarchical(self, n_max):
        want = loop_label_values((2 * k - 1) / 2.0 ** (n + 1)
                                 for n in range(n_max + 1) for k in range(1, 2 ** n + 1))
        assert hierarchical_labels(n_max).values == want

    @given(st.integers(0, 2**32 - 1))
    def test_clustered(self, seed):
        # Clusters of labels spaced below 1e-12 in total over more than 1e-12,
        # so that the greedy choice of kept labels matters, plus exact repeats.
        rng = np.random.default_rng(seed)
        centers = rng.uniform(0.0, 1.0 - 1e-10, rng.integers(1, 20))
        spread = rng.choice([0.0, 3e-13, 2e-12, 5e-12], centers.size)
        pts = np.concatenate([c + np.sort(rng.uniform(0.0, s, rng.integers(1, 9)))
                              for c, s in zip(centers, spread)])
        pts = np.concatenate([pts, pts[:3], [0.0, 1e-13]])
        rng.shuffle(pts)
        values = tuple(pts.tolist())
        got = LabelSet(values).values
        assert got == loop_label_values(values)
        assert all(type(x) is float for x in got)

    @pytest.mark.parametrize("values", [(float("nan"),), (0.2, 1.5), (-1e-3, 0.5)])
    def test_out_of_range_rejected(self, values):
        with pytest.raises(DomainError):
            LabelSet(values)
