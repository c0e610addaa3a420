import math

import numpy as np
import pytest

from quasispec import (
    BandSet,
    DomainError,
    GOLDEN_MEAN,
    IdsCurve,
    PeriodicPotential,
    PotentialSpec,
    approximant_by_denominator,
    band_spectrum,
    butterfly,
    gap_labels,
    hausdorff_distance,
    ids_curve,
    match_gap_labels,
    propagate,
    total_bandwidth,
    trace_poly,
)
from quasispec.bands import (CLOSED_GAP_TOL, _bisection_steps, _lifted_steps,
                             _wraparound_edges, phase_union_spectrum)
from quasispec.potentials import (FIBONACCI_RULE, MAX_FLOQUET_STEPS, NAMED_RULES,
                                  periodic_approximant)
from quasispec.ids import _floquet_count, bisect_eigenvalues, count_below_periodic

SQ5 = math.sqrt(5.0)


def scalar_merge_bands(pot, tol=CLOSED_GAP_TOL):
    """Reference band set: the same wrap-around edges, merged gap by gap with
    one scalar propagate trace per surviving gap midpoint."""
    vals = np.asarray(pot.values, dtype=float)
    L = len(vals)
    lo0, hi0 = float(vals.min()) - 4.0, float(vals.max()) + 4.0
    edges = np.sort(np.concatenate([
        bisect_eigenvalues(lambda E: count_below_periodic(vals, E, corner), L, lo0, hi0)
        for corner in (+1.0, -1.0)]))
    merged = [[float(edges[0]), float(edges[1])]]
    for lo, hi in edges[2:].reshape(-1, 2).tolist():
        mid = 0.5 * (lo + merged[-1][1])
        if (lo - merged[-1][1] <= CLOSED_GAP_TOL
                or abs(propagate(mid, vals).trace) <= 2.0 + tol):
            merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


def two_call_phase_union(lam, p, q):
    """Reference phase-union spectrum: the closed-form sign of the phase
    modulation, then one bisection per restriction, merged gap by gap with one
    scalar trace at the quarter phase per surviving midpoint."""
    def values(omega):
        return lam * np.cos(2.0 * math.pi * (np.arange(1, q + 1) * p / q + omega))

    v_quarter = values(1.0 / (4.0 * q))
    # tr(E, omega) - D(E) = s c cos(2 pi q omega) with s = -sign(lam)^q.
    s = -math.copysign(1.0, lam) ** q
    v_plus = values(0.0 if s > 0 else 1.0 / (2.0 * q))
    v_minus = values(1.0 / (2.0 * q) if s > 0 else 0.0)
    lo0 = float(min(v_plus.min(), v_minus.min())) - 4.0
    hi0 = float(max(v_plus.max(), v_minus.max())) + 4.0
    edges = np.sort(np.concatenate([
        bisect_eigenvalues(lambda E: count_below_periodic(v, E, corner), q, lo0, hi0)
        for v, corner in ((v_plus, -1.0), (v_minus, +1.0))]))
    bound = (2.0 + 2.0 * (abs(lam) / 2.0) ** q) * (1.0 + CLOSED_GAP_TOL)
    merged = [[float(edges[0]), float(edges[1])]]
    for lo, hi in edges[2:].reshape(-1, 2).tolist():
        mid = 0.5 * (lo + merged[-1][1])
        if (lo - merged[-1][1] <= CLOSED_GAP_TOL
                or abs(propagate(mid, v_quarter).trace) <= bound):
            merged[-1][1] = hi
        else:
            merged.append([lo, hi])
    return tuple((lo, hi) for lo, hi in merged)


class TestBandSpectrum:
    def test_free_chain(self):
        bs = band_spectrum(PeriodicPotential((0.0,)))
        assert len(bs.bands) == 1
        np.testing.assert_allclose(bs.bands[0], (-2, 2), atol=1e-10)

    def test_period_two(self):
        bs = band_spectrum(PeriodicPotential((0.0, 2.0)))
        np.testing.assert_allclose(
            bs.bands, [(1 - SQ5, 0.0), (2.0, 1 + SQ5)], atol=1e-10)

    def test_period_two_cosine(self):
        bs = band_spectrum(PeriodicPotential((2.0, -2.0)))
        np.testing.assert_allclose(
            bs.bands, [(-2 * math.sqrt(2), -2.0), (2.0, 2 * math.sqrt(2))],
            atol=1e-10)

    def test_band_count_bound(self, rng):
        for _ in range(10):
            L = int(rng.integers(1, 14))
            bs = band_spectrum(PeriodicPotential(tuple(rng.uniform(-2, 2, L))))
            assert 1 <= len(bs.bands) <= L

    def test_constant_closed_gaps_merge(self):
        bs = band_spectrum(PeriodicPotential((1.0,) * 6))
        assert len(bs.bands) == 1
        np.testing.assert_allclose(bs.bands[0], (-1.0, 3.0), atol=1e-9)

    def test_trace_bounded_inside_and_on_edges(self, rng):
        pots = [
            PeriodicPotential(tuple(rng.uniform(-2, 2, 7))),
            approximant_by_denominator(PotentialSpec.sturmian(GOLDEN_MEAN, 2.0), 13),
        ]
        for pot in pots:
            bs = band_spectrum(pot)
            for lo, hi in bs.bands:
                for E in np.linspace(lo, hi, 52)[1:-1]:
                    assert abs(propagate(float(E), pot.values).trace) <= 2 + 1e-6
                for E in (lo, hi):
                    assert abs(abs(propagate(E, pot.values).trace) - 2) <= 1e-6

    def test_edges_match_trace_poly_bisection(self, rng):
        # Independent route: locate sign changes of tr(E) -+ 2 on the monic
        # trace polynomial by bisection.
        values = tuple(rng.uniform(-1.5, 1.5, size=6))
        coeffs = trace_poly(PeriodicPotential(values))

        def roots_of(offset):
            f = lambda E: float(np.polynomial.polynomial.polyval(E, coeffs)) - offset
            grid = np.linspace(-4.5, 4.5, 20001)
            vals = np.array([f(e) for e in grid])
            roots = []
            for i in np.nonzero(np.diff(np.sign(vals)) != 0)[0]:
                a, b = grid[i], grid[i + 1]
                for _ in range(60):
                    m = 0.5 * (a + b)
                    if f(a) * f(m) <= 0:
                        b = m
                    else:
                        a = m
                roots.append(0.5 * (a + b))
            return roots

        edges = sorted(roots_of(2.0) + roots_of(-2.0))
        bs = band_spectrum(PeriodicPotential(values))
        flat = [x for band in bs.bands for x in band]
        assert len(edges) == len(flat)
        np.testing.assert_allclose(sorted(flat), edges, atol=1e-8)

    @pytest.mark.parametrize("pot", [
        *(pytest.param(PeriodicPotential(tuple(np.random.default_rng(L).uniform(-2, 2, L))),
                       id=f"random-{L}") for L in (5, 9, 17, 40)),
        pytest.param(PeriodicPotential((1.0,) * 6), id="constant"),
        pytest.param(PeriodicPotential((0.0, 2.0) * 4), id="two-valued"),
        pytest.param(PeriodicPotential((1.5, -0.5, -0.5) * 3), id="two-valued-3"),
        pytest.param(approximant_by_denominator(PotentialSpec.sturmian(GOLDEN_MEAN, 8.0), 233),
                     id="sturmian-8-233"),
        # One gap midpoint trace is ~e^912 here, past float range.
        pytest.param(approximant_by_denominator(PotentialSpec.sturmian(GOLDEN_MEAN, 100.0), 233),
                     id="sturmian-100-233"),
    ])
    def test_merge_matches_scalar_trace_reference(self, pot):
        # The reference takes Sturm edges, so the period goes without its
        # level block, which would take the lifted edges.
        plain = PeriodicPotential(pot.values)
        assert band_spectrum(plain).bands == scalar_merge_bands(pot)

    def test_sturmian_approximant_gaps_all_open(self):
        for lam in (1.0, 2.0):
            spec = PotentialSpec.sturmian(GOLDEN_MEAN, lam)
            for q in (5, 8, 13):
                bs = band_spectrum(approximant_by_denominator(spec, q))
                assert len(bs.bands) == q
                assert len(bs.gaps()) == q - 1


def lifted_edges(pot):
    """The raw edges ``band_spectrum`` takes for a level block: the guided
    bisection of the lifted count."""
    vals = np.asarray(pot.values)
    L = len(vals)
    return np.sort(bisect_eigenvalues(lambda E: _floquet_count(pot.level_word, E), 2 * L,
                                      vals.min() - 4.0, vals.max() + 4.0, smooth=True))


def sturm_edges(pot):
    vals = np.asarray(pot.values)
    return _wraparound_edges(np.stack([vals, vals]), np.array([1.0, -1.0]),
                             np.full(2, vals.min() - 4.0), np.full(2, vals.max() + 4.0))[0]


def dense_edges(pot):
    vals = np.asarray(pot.values)
    L = len(vals)
    H = np.diag(vals) + np.diag(np.ones(L - 1), 1) + np.diag(np.ones(L - 1), -1)
    out = []
    for corner in (1.0, -1.0):
        Hc = H.copy()
        Hc[0, L - 1] += corner
        Hc[L - 1, 0] += corner
        out.append(np.linalg.eigvalsh(Hc))
    return np.sort(np.concatenate(out))


class TestTinyBorderedPivot:
    def test_three_site_spectrum(self):
        # The bracket [-4, 12] of (0, 8, 0) puts a bisection midpoint exactly
        # on E = 0, where the first pivot of both restrictions is zero.
        pot = PeriodicPotential((0.0, 8.0, 0.0))
        np.testing.assert_allclose(np.ravel(band_spectrum(pot).bands), dense_edges(pot),
                                   rtol=0, atol=1e-12)


class TestLiftedEdges:
    """Band edges of level blocks from the lifted count, against the stacked
    Sturm bisection and dense eigenvalues."""

    @pytest.mark.parametrize("name, lv, order", [
        ("fibonacci", {"a": 2.0, "b": 0.0}, 11),
        ("fibonacci", {"a": -7.5, "b": 3.25}, 10),
        ("fibonacci", {"a": 9.9, "b": -10.0}, 9),
        ("period-doubling", {"a": 1.3, "b": -0.8}, 8),
        ("period-doubling", {"a": -10.0, "b": 6.1}, 7),
    ])
    def test_equal_sturm_edges(self, name, lv, order):
        pot = periodic_approximant(PotentialSpec.substitution(NAMED_RULES[name], lv), order)
        lifted, sturm = lifted_edges(pot), sturm_edges(pot)
        scale = np.maximum(1.0, np.abs(sturm))
        assert np.max(np.abs(lifted - sturm) / scale) <= 1e-12
        assert np.max(np.abs(lifted - dense_edges(pot)) / scale) <= 1e-9

    @pytest.mark.parametrize("lv, order", [({"a": 1.0, "b": -1.0}, 8),
                                           ({"a": 3.0, "b": 0.5}, 7)])
    def test_thue_morse_clusters_match_dense(self, lv, order):
        spec = PotentialSpec.substitution(NAMED_RULES["thue-morse"], lv)
        pot = periodic_approximant(spec, order)
        want = dense_edges(pot)
        assert np.max(np.abs(lifted_edges(pot) - want) / np.maximum(1.0, np.abs(want))) <= 1e-9

    def test_midpoint_at_a_letter_value(self):
        # The second midpoint of the bracket [-4, 12] is exactly the letter
        # value 8, where the level products have (AB)_21 == 0: the (AB)_11
        # tie-break keeps the edges near 9.17445 off 8.
        pot = approximant_by_denominator(PotentialSpec.sturmian(GOLDEN_MEAN, 8.0), 233)
        assert pot.level_word is not None
        want = dense_edges(pot)
        got = lifted_edges(pot)
        assert not np.any(got == 8.0)
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-9

    @pytest.mark.parametrize("omega", [0.0, 0.37])
    def test_golden_approximant_bands(self, omega):
        pot = approximant_by_denominator(PotentialSpec.sturmian(GOLDEN_MEAN, 2.0, omega), 377)
        plain = band_spectrum(PeriodicPotential(pot.values))
        got = band_spectrum(pot)
        assert len(got) == len(plain)
        np.testing.assert_allclose(np.ravel(got.bands), np.ravel(plain.bands),
                                   rtol=0, atol=1e-12)


class TestGapLabelsAndBandwidth:
    def test_two_band_label(self):
        bs = gap_labels(band_spectrum(PeriodicPotential((0.0, 2.0))), 2)
        assert bs.gap_labels == (0.5,)

    def test_five_band_labels(self):
        spec = PotentialSpec.sturmian(GOLDEN_MEAN, 2.0)
        bs = band_spectrum(approximant_by_denominator(spec, 5))
        labeled = gap_labels(bs, 5)
        np.testing.assert_allclose(labeled.gap_labels,
                                   [1 / 5, 2 / 5, 3 / 5, 4 / 5])

    def test_single_band_no_labels(self):
        bs = gap_labels(band_spectrum(PeriodicPotential((0.0,))), 1)
        assert bs.gap_labels == ()

    def test_bandwidth_examples(self):
        assert total_bandwidth(BandSet(((-2.0, 2.0),))) == 4.0
        assert total_bandwidth(BandSet(())) == 0.0
        bw = total_bandwidth(band_spectrum(PeriodicPotential((0.0, 2.0))))
        assert bw == pytest.approx(2 * SQ5 - 2, abs=1e-9)

    def test_bandwidth_bound(self, rng):
        for _ in range(25):
            L = int(rng.integers(2, 12))
            vals = rng.uniform(-2, 2, size=L)
            if np.ptp(vals) < 0.05:
                continue
            bw = total_bandwidth(band_spectrum(PeriodicPotential(tuple(vals))))
            assert bw <= 4 + 1e-6
            assert bw < 4 - 1e-6  # equality is reserved for constant potentials


class TestButterfly:
    def test_single_row(self):
        rows = butterfly(2.0, 1, omega=0.25)
        assert len(rows) == 1
        p, q, bs = rows[0]
        assert (p, q) == (0, 1)
        np.testing.assert_allclose(bs.bands[0], (-2, 2), atol=1e-9)

    def test_half_flux_row(self):
        rows = butterfly(2.0, 2, omega=0.0)
        assert [(p, q) for p, q, _ in rows] == [(0, 1), (1, 2)]
        np.testing.assert_allclose(
            rows[1][2].bands,
            [(-2 * math.sqrt(2), -2.0), (2.0, 2 * math.sqrt(2))], atol=1e-9)

    def test_band_count_and_order(self):
        rows = butterfly(1.5, 5, omega=0.0)
        keys = [(q, p) for p, q, _ in rows]
        assert keys == sorted(keys)
        for p, q, bs in rows:
            assert len(bs.bands) <= q

    @pytest.mark.parametrize("lam, omega", [(2.0, 0.0), (1.3, 0.21), (0.4, 0.37)])
    def test_rows_equal_band_spectrum(self, lam, omega):
        for p, q, bs in butterfly(lam, 11, omega=omega):
            vals = tuple(lam * math.cos(2.0 * math.pi * (n * p / q + omega))
                         for n in range(1, q + 1))
            assert bs == band_spectrum(PeriodicPotential(vals))


class TestPhaseUnion:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.7, 2.0, 3.0])
    @pytest.mark.parametrize("p, q", [(0, 1), (1, 2), (1, 3), (2, 5), (3, 7), (3, 8),
                                      (5, 13), (13, 21), (21, 34)])
    def test_equals_two_call_reference(self, lam, p, q):
        assert phase_union_spectrum(lam, p, q).bands == two_call_phase_union(lam, p, q)

    @pytest.mark.parametrize("lam", np.linspace(0.5, 3.0, 11).tolist())
    @pytest.mark.parametrize("p, q", [(3, 8), (5, 8), (13, 34), (21, 34)])
    def test_even_q_has_no_gap_at_zero(self, lam, p, q):
        # The bands touch at E = 0 for even q (van Mouche 1989), where the
        # bisection edges can be 1e-9 to 1e-8 apart.
        gaps = phase_union_spectrum(lam, p, q).gaps()
        assert not any(lo <= 0.0 <= hi for lo, hi in gaps)

    @pytest.mark.parametrize("p, q, lam", [
        (p, q, lam) for lam in (2.0, 2.5, 3.0) for p, q in ((1, 34), (13, 21), (21, 34))
    ] + [(17, 35, 1.0), (18, 37, 1.0), (21, 43, -1.3)])
    def test_contains_band_spectra_at_every_phase(self, p, q, lam):
        # The union must hold every fixed-phase band, also where the
        # modulation c = 2 (|lam|/2)^q is far below the trace's rounding and
        # its sign cannot be told from traces.
        union = phase_union_spectrum(lam, p, q).bands
        for omega in np.arange(16) / (16 * q):
            vals = lam * np.cos(2.0 * math.pi * (np.arange(1, q + 1) * p / q + omega))
            for lo, hi in band_spectrum(PeriodicPotential(tuple(vals))).bands:
                assert any(a - 1e-9 <= lo and hi <= b + 1e-9 for a, b in union)

    def test_trivial_denominator(self):
        bs = phase_union_spectrum(3.0, 0, 1)
        np.testing.assert_allclose(bs.bands, [(-5.0, 5.0)], atol=1e-9)

    def test_contains_fixed_phase_spectrum(self):
        lam, p, q = 2.0, 1, 2
        union = phase_union_spectrum(lam, p, q)
        vals = tuple(lam * math.cos(2 * math.pi * (n * p / q)) for n in (1, 2))
        fixed = band_spectrum(PeriodicPotential(vals))
        for lo, hi in fixed.bands:
            for x in (lo, 0.5 * (lo + hi), hi):
                assert any(a - 1e-9 <= x <= b + 1e-9 for a, b in union.bands)

    def test_rejects_unreduced(self):
        with pytest.raises(DomainError):
            phase_union_spectrum(2.0, 2, 4)


class TestFloquetBudget:
    # 120 L^2 pivot steps pass 2^32 from L = 5983 on. A butterfly sums its
    # rows: no q <= 124 alone takes 2e8 steps, all of them together pass 2^32.
    def test_boundary(self):
        assert _bisection_steps(1, 5982) <= MAX_FLOQUET_STEPS < _bisection_steps(1, 5983)

    def test_lifted_boundary(self):
        # The merge's L (2L - 1) trace steps pass 2^32 first: the Fibonacci
        # level 21 block (28,657 sites) fits, level 22 (46,368 sites) does not.
        spec = PotentialSpec.substitution(FIBONACCI_RULE, {"a": 1.0, "b": 0.0})
        fits, over = (periodic_approximant(spec, k) for k in (21, 22))
        assert _lifted_steps(fits.level_word) <= MAX_FLOQUET_STEPS
        assert _lifted_steps(over.level_word) > MAX_FLOQUET_STEPS
        assert over.period * (2 * over.period - 1) > MAX_FLOQUET_STEPS

    @pytest.mark.parametrize("compute", [
        lambda: band_spectrum(periodic_approximant(
            PotentialSpec.substitution(FIBONACCI_RULE, {"a": 1.0, "b": 0.0}), 22)),
        lambda: band_spectrum(periodic_approximant(
            PotentialSpec.substitution(NAMED_RULES["thue-morse"], {"a": 1.0, "b": 0.0}), 19)),
        lambda: band_spectrum(approximant_by_denominator(
            PotentialSpec.sturmian(GOLDEN_MEAN, 1.0), 100_000)),
    ], ids=["fibonacci-level-22", "thue-morse-order-19", "golden-q-75025"])
    def test_lifted_refused_before_any_work(self, compute, monkeypatch):
        def no_bisection(*args):
            raise AssertionError("bisection ran")

        monkeypatch.setattr("quasispec.bands.bisect_eigenvalues", no_bisection)
        with pytest.raises(DomainError, match="budget"):
            compute()

    @pytest.mark.parametrize("compute", [
        lambda: band_spectrum(PeriodicPotential((0.0,) * 5983)),
        lambda: phase_union_spectrum(2.0, 1, 5983),
        lambda: butterfly(2.0, 124),
    ], ids=["band_spectrum", "phase_union", "butterfly"])
    def test_refused_before_any_work(self, compute, monkeypatch):
        def no_bisection(*args):
            raise AssertionError("bisection ran")

        monkeypatch.setattr("quasispec.bands.bisect_eigenvalues", no_bisection)
        with pytest.raises(DomainError, match="budget"):
            compute()


class TestMatchGapLabels:
    def test_periodic_exact_labels(self):
        spec = PotentialSpec.sturmian(GOLDEN_MEAN, 4.0)
        pot = approximant_by_denominator(spec, 13)
        bs = band_spectrum(pot)
        mids = [0.5 * (a + b) for a, b in bs.gaps()]
        grid = np.array([bs.bands[0][0] - 1.0] + mids + [bs.bands[-1][1] + 1.0])
        curve = ids_curve(PotentialSpec.explicit(pot.values), None, 1500, grid)
        labels = [k / 13 for k in range(1, 13)]
        report = match_gap_labels(bs, curve, labels, tol=2e-3)
        assert len(report) == 12
        for k, m in enumerate(report, start=1):
            assert m.within_tol
            assert m.label == pytest.approx(k / 13, abs=1e-12)

    def test_empty_gap_list(self):
        bs = band_spectrum(PeriodicPotential((0.0,)))
        curve = IdsCurve(np.linspace(-3, 3, 11), np.linspace(0, 1, 11), 11)
        assert match_gap_labels(bs, curve, [0.5], 0.1) == []


class TestHausdorff:
    def test_identical(self):
        a = BandSet(((0.0, 1.0), (2.0, 3.0)))
        assert hausdorff_distance(a, a) == 0.0

    def test_shifted(self):
        a = BandSet(((0.0, 1.0),))
        b = BandSet(((0.25, 1.25),))
        assert hausdorff_distance(a, b) == pytest.approx(0.25)

    def test_gap_midpoint_matters(self):
        a = BandSet(((0.0, 3.0),))
        b = BandSet(((0.0, 1.0), (2.0, 3.0)))
        assert hausdorff_distance(a, b) == pytest.approx(0.5)
