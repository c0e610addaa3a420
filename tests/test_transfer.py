import decimal
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quasispec import (
    DomainError,
    FIBONACCI_RULE,
    GOLDEN_MEAN,
    Mat2,
    MatClass,
    PeriodicPotential,
    PotentialSpec,
    approximant_by_denominator,
    band_spectrum,
    classify,
    fibonacci_trace_orbit,
    gordon_ratio,
    lyapunov_estimate,
    lyapunov_grid,
    propagate,
    sample_potential,
    step_matrix,
    trace_poly,
)
from quasispec.ids import dirichlet_count, floquet_count
from quasispec.numutil import wrap
from quasispec import potentials, transfer
from quasispec.potentials import MAX_SITES, fixed_point_window, periodic_approximant
from quasispec.tracemap import identity_residual, letter_matrix_orbit
from quasispec.transfer import _normalized, _rescale, block_product, iter_levels, product_grid

from conftest import RULES


def matmul(p, q):
    """p @ q for scalar Mat2s, rescaled so the largest entry has magnitude 1."""
    a = p.a * q.a + p.b * q.c
    b = p.a * q.b + p.b * q.d
    c = p.c * q.a + p.d * q.c
    d = p.c * q.b + p.d * q.d
    m = max(abs(a), abs(b), abs(c), abs(d)) or 1.0
    return Mat2(a / m, b / m, c / m, d / m, p.log_scale + q.log_scale + math.log(m))


def scalar_product(values, E):
    """Reference product: one Mat2 step per site, rescaled after every site."""
    m = Mat2(1.0, 0.0, 0.0, 1.0)
    for v in values:
        m = matmul(step_matrix(E, v), m)
    return m


def kernel_log_norms(values, energies):
    """ln of the Frobenius norm of each product from the kernel."""
    return log_norms(product_grid(values, energies))


def log_norms(product):
    a, b, c, d, logs = product
    return 0.5 * np.log(a * a + b * b + c * c + d * d) + logs


@st.composite
def random_chains(draw):
    """A chain with |V| <= 3 of up to 2000 sites, a grid width and a generator."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 2000))
    return rng.uniform(-3.0, 3.0, n), draw(st.sampled_from([1, 7, 300])), rng


def pinned_digest(M, huge=False):
    """sha256 of product_grid over prefixes of one random chain at M energies:
    lengths on both sides of the 256-site segments, marks absent, on the
    segment edges and inside the padded last segment, and at every site where
    the output stays small. a, b, c, d go in bit for bit, logs rounded to 13
    significant digits (np.log may differ in the last bit between builds)."""
    rng = np.random.default_rng(M)
    values, E = rng.uniform(-3.0, 3.0, 10_003), rng.uniform(-4.5, 4.5, M)
    if huge:
        E[0] = 1e200
    h = hashlib.sha256()
    for n in (1, 255, 256, 257, 10_003):
        edges = [m for m in (1, 255, 256, 257, 511, 512, 513, 9985, 9990, n) if m <= n]
        for marks in (None, sorted(set(edges)), np.arange(1, n + 1)):
            if marks is not None and len(marks) == n and n * M > 2**17:
                continue
            *entries, logs = product_grid(values[:n], E, marks)
            for r in entries:
                h.update(np.ascontiguousarray(r).tobytes())
            h.update(" ".join(f"{v:.12e}" for v in logs.ravel().tolist()).encode())
    return h.hexdigest()


# Recorded before the kernel's block captures, segment joins and per-row
# steps were written; each of those changes must keep every bit.
PINNED = {
    "grid-1": "d1a870d67969b7136a0415f50db4a7812faa72b74a7dc2cd81167f2cd4b4fa24",
    "grid-7": "9e9465a81219f97cf837f4733cd0391da424d0c34c036dfd3e4d45a25c947dfc",
    "grid-200": "aef53911145f2e0f5bb80a9e860ba5bbb1767d11282261f4a14051d1a5e8abf2",
    "grid-256": "8bbc9afa6dcb6de086e22ac48a585963dc17603a03b9e6eaedbaf4ea49b399f6",
    "grid-257": "4732a636e508216beda13005742c59fc46413a5ef76585c7aae6df7c15db1549",
    "grid-400": "b8c1bee6b727a1dbc2dd16495daed3216de907f27a19266cf47f363884ed557d",
    "huge-7": "8762f961730bf5447430893cba3955b0fd5da5262ab8dc358a3828d2fee016d7",
    "small-1": "d1a870d67969b7136a0415f50db4a7812faa72b74a7dc2cd81167f2cd4b4fa24",
    "small-3": "d3ecaaad70dc55e8c94e71bb3500ac8d30b34c7e28fa0b18fd4cf89752f23ee4",
}


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

    @pytest.mark.parametrize("case", list(PINNED))
    def test_bits_pinned(self, case, monkeypatch):
        # "small" has 8 lanes and 64-element blocks, as with_small_budgets in
        # test_budgets, so marks cross lane groups and rescales fall inside
        # marked blocks; "huge" adds an energy of 1e200, a rescale every site.
        kind, M = case.split("-")
        if kind == "small":
            monkeypatch.setattr(transfer, "_LANES", 8)
            monkeypatch.setattr(transfer, "_CHUNK", 64)
        assert pinned_digest(int(M), huge=kind == "huge") == PINNED[case]

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


def fixed_point_product(rule, lv, E, n):
    """The product over sites 1..n of the substitution's fixed point as
    ``lyapunov_grid`` forms it: the block product of its level word, in the
    normalized form of ``product_grid``."""
    word = fixed_point_window(PotentialSpec.substitution(rule, lv), 1, n)

    def rows(p, _):  # scaled into float range first, as lyapunov_grid does
        _rescale(p[:2], p[2:4], p[4])
        return p.astype(float)

    p = block_product(word, np.ravel(E), rows)
    return _normalized(p[:2], p[2:4], p[4], np.shape(E))


def assert_renormalized_matches_direct(rule, lv, n, E):
    """The renormalized product over sites 1..n against ``product_grid`` over
    the sampled chain: at the same energies to the benchmark's bound
    |dgamma| <= 1e-9 max(1, gamma), and off the spectrum (gamma > 1e-3) to
    1e-11 relative in log-norm against the kernel's sequential path.

    That path steps one chain over more than 256 energies. On narrower grids
    the kernel joins separately formed 256-site segment products, which in a
    spectral gap can lose up to about 1e-9 relative in log-norm, so the
    tighter comparison pads the grid to 300 energies.
    """
    values = sample_potential(PotentialSpec.substitution(rule, lv), 1, n)
    renormalized, direct = fixed_point_product(rule, lv, E, n), product_grid(values, E)
    got, want = log_norms(renormalized), log_norms(direct)
    bound = 1e-9 * np.maximum(1.0, want / n)
    assert np.all(np.abs(got - want) / n <= bound)
    # The entries too: a product in reversed order has the same norm and trace.
    a, b, c, d, logs = renormalized
    scale = np.exp(logs - direct[4])
    delta = np.sqrt(sum((x * scale - y) ** 2 for x, y in zip((a, b, c, d), direct)))
    assert np.all(delta * np.exp(direct[4] - want) / n <= bound)
    pad = np.linspace(-6.0, 6.0, max(0, 300 - len(E)))
    want = kernel_log_norms(values, np.concatenate([E, pad]))[:len(E)]
    off = want / n > 1e-3
    assert np.all(np.abs(got - want)[off] <= 1e-11 * np.abs(want[off]))


def letter_values(rng):
    return {"a": float(rng.uniform(-3.0, 3.0)), "b": float(rng.uniform(-3.0, 3.0))}


def energies(rng, lv, M):
    lo, hi = min(lv.values()) - 2.5, max(lv.values()) + 2.5
    return np.sort(rng.uniform(lo, hi, M))


def long_double_log_norms(values, E):
    """ln of the Frobenius norm of the product, stepped site by site in long
    double (64-bit mantissa on x86), rescaled after every site."""
    E = np.asarray(E, dtype=np.longdouble)
    a, b, c, d = np.ones_like(E), np.zeros_like(E), np.zeros_like(E), np.ones_like(E)
    logs = np.zeros_like(E)
    for v in np.asarray(values, dtype=np.longdouble):
        a, b, c, d = (E - v) * a - c, (E - v) * b - d, a, b
        m = np.maximum(np.maximum(abs(a), abs(b)), np.maximum(abs(c), abs(d)))
        a, b, c, d, logs = a / m, b / m, c / m, d / m, logs + np.log(m)
    return (0.5 * np.log(a * a + b * b + c * c + d * d) + logs).astype(float)


# The widest window [-HALF, HALF] within MAX_SITES.
HALF = MAX_SITES // 2 - 1


class TestRenormalized:
    @pytest.mark.parametrize("name", RULES)
    def test_every_short_prefix(self, name):
        rng = np.random.default_rng(len(name))
        lv = letter_values(rng)
        for n in range(1, 301):
            assert_renormalized_matches_direct(RULES[name], lv, n, energies(rng, lv, 7))

    @pytest.mark.parametrize("name", RULES)
    def test_level_lengths_and_neighbours(self, name):
        rule, rng = RULES[name], np.random.default_rng(7 * len(name))
        lv = letter_values(rng)
        lengths = set()
        for x in rule.alphabet:
            word = x
            while len(word) <= 20_000:
                lengths.add(len(word))
                word = rule.apply(word)
        for n in sorted({m + d for m in lengths for d in (-1, 0, 1)} - {0}):
            assert_renormalized_matches_direct(rule, lv, n, energies(rng, lv, 1))

    @pytest.mark.parametrize("M", [1, 7, 300])
    @pytest.mark.parametrize("name", RULES)
    def test_random_lengths(self, name, M):
        rng = np.random.default_rng(M + len(name))
        for _ in range(4):
            lv = letter_values(rng)
            n = int(rng.integers(1, 20_001))
            assert_renormalized_matches_direct(RULES[name], lv, n, energies(rng, lv, M))

    @pytest.mark.parametrize("name", RULES)
    def test_letter_value_and_huge_energies(self, name):
        # E == V makes exact zero entries; |E - V| ~ 1e200 rescales every product.
        rng = np.random.default_rng(3)
        lv = letter_values(rng)
        E = np.array([lv["a"], lv["b"], 1e200, -1e200, -3e199])
        for n in (1, 2, 3, 57, 1000, 4097):
            assert_renormalized_matches_direct(RULES[name], lv, n, E)

    def test_long_double_reference(self):
        # Fibonacci over 10^4 sites and 240 energies, as in the benchmark.
        rng = np.random.default_rng(11)
        lv = {"a": 2.0, "b": -0.5}
        values = sample_potential(PotentialSpec.substitution(FIBONACCI_RULE, lv), 1, 10_000)
        E = energies(rng, lv, 240)
        want = long_double_log_norms(values, E)
        got = log_norms(fixed_point_product(FIBONACCI_RULE, lv, E, 10_000))
        off = want / 10_000 > 1e-3
        assert off.sum() > 50
        assert np.all(np.abs(got - want)[off] <= 1e-11 * want[off])

    @pytest.mark.parametrize("lam, E", [(1.0, 0.3), (1.0, -1.7), (2.0, 0.0), (2.0, 1.1),
                                        (3.0, -0.4), (0.5, 2.6)])
    def test_traces_follow_the_trace_map(self, lam, E):
        # The trace over the first F_k sites is tau_k (F_1 = 1, F_2 = 2) of the
        # trace map tau_{k+1} = tau_k tau_{k-1} - tau_{k-2}, run here in
        # 60-digit decimals. fibonacci_trace_orbit reads the same traces from
        # the level matrices; on the bounded orbit at lam = 1, E = 0.3 they
        # stay within 1e-12 (a float run of the recursion drifted 9e-9 by k = 30).
        ctx = decimal.Context(prec=60, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
        D = decimal.Decimal
        taus = [D(2), D(E), ctx.subtract(D(E), D(lam))]
        F = [1, 1]
        lv = {"a": lam, "b": 0.0}
        orbit = fibonacci_trace_orbit(E, lam, 31)
        orbit_tol = 1e-12 if (lam, E) == (1.0, 0.3) else 1e-9
        for k in range(1, 32):
            taus.append(ctx.subtract(ctx.multiply(taus[-1], taus[-2]), taus[-3]))
            F.append(F[-1] + F[-2])
            tau = taus[k + 1]
            want = wrap(-1 if tau < 0 else 1, float(ctx.ln(abs(tau))))
            a, _, _, d, logs = (float(x) for x in fixed_point_product(FIBONACCI_RULE, lv, E, F[k]))
            got = wrap(int(math.copysign(1, a + d)), math.log(abs(a + d)) + logs)
            assert identity_residual(got, want) <= 1e-9, k
            assert identity_residual(orbit.tau(k), want) <= orbit_tol, k

    @pytest.mark.parametrize("name", RULES)
    def test_level_rescale_schedule_changes_no_bits(self, name, monkeypatch):
        # The level products rescale only near the exponent range; rescaling
        # after every product, as a bound of -1 bit forces, changes no bit of
        # the products, the traces, the lifts or the counts.
        rule, rng = RULES[name], np.random.default_rng(len(name))
        lv = letter_values(rng)
        E = np.concatenate([energies(rng, lv, 40), list(lv.values()), [1e200, -3e199]])

        spec = PotentialSpec.substitution(rule, lv)

        def run():
            period = periodic_approximant(spec, 6)
            levels = list(iter_levels(rule, lv, E, 30))
            for mats, _ in levels:  # normalized, as their schedules differ
                _rescale(mats[:2], mats[2:4], mats[4])
            arrays = [*fixed_point_product(rule, lv, E, 1_000_003),
                      *fixed_point_product(rule, lv, E, 777),
                      *(a for level in levels for a in level),
                      floquet_count(period.level_word, E),
                      dirichlet_count(fixed_point_window(spec, -5000, 5000), E)]
            return arrays, letter_matrix_orbit(rule, lv, 0.3, 200)

        lazy, lazy_traces = run()
        monkeypatch.setattr("quasispec.transfer._LEVEL_BITS", -1)
        eager, eager_traces = run()
        for x, y in zip(lazy, eager):
            assert np.array_equal(x, y)
        assert lazy_traces == eager_traces

    @pytest.mark.parametrize("spec, first, last", [
        *((PotentialSpec.substitution(rule, {"a": 1.5, "b": -0.25}), 1, MAX_SITES)
          for rule in RULES.values()),
        (PotentialSpec.sturmian(GOLDEN_MEAN, 1.5), 1, MAX_SITES),
        (PotentialSpec.sturmian(GOLDEN_MEAN, -2.0, rounding="ceil"), 1, MAX_SITES),
        *((PotentialSpec.substitution(rule, {"a": 1.5, "b": -0.25}), -HALF, HALF)
          for rule in RULES.values()),
        (PotentialSpec.sturmian(GOLDEN_MEAN, 1.5), -HALF, HALF),
        (PotentialSpec.sturmian(GOLDEN_MEAN, -2.0, rounding="ceil"), -HALF, HALF),
        (PotentialSpec.sturmian(GOLDEN_MEAN, 1.5, omega=0.1), 1, 3000),
    ], ids=[*RULES, "sturmian-floor", "sturmian-ceil", *(f"{r}-two-sided" for r in RULES),
            "sturmian-floor-two-sided", "sturmian-ceil-two-sided", "omega"])
    def test_fixed_point_equals_sampled_chain(self, spec, first, last):
        word = fixed_point_window(spec, first, last)
        lv = word.letter_values
        letters = "".join(word.rule.iterate(x, k) for k, x in word.blocks)
        assert len(letters) == word.sites == last - first + 1
        table = np.zeros(256)
        table[[ord(x) for x in lv]] = list(lv.values())
        assert np.array_equal(table[np.frombuffer(letters.encode(), np.uint8)],
                              sample_potential(spec, first, last))

    @pytest.mark.parametrize("spec", [
        PotentialSpec.sturmian(0.618, 1.5),
        PotentialSpec.sturmian(1.0 - GOLDEN_MEAN, 1.5),
        PotentialSpec.almost_mathieu(GOLDEN_MEAN, 2.0),
        PotentialSpec.circle(GOLDEN_MEAN, 1.5),
        PotentialSpec.explicit([1.0, 0.0, 1.0]),
        PotentialSpec.constant(0.5),
    ], ids=["alpha", "other-golden", "almost-mathieu", "circle", "explicit", "constant"])
    def test_other_specs_take_the_direct_path(self, spec):
        assert fixed_point_window(spec, 1, 3000) is None
        E = np.linspace(-4.0, 4.0, 9)
        direct = Mat2(*product_grid(sample_potential(spec, 1, 3000), E)).op_norm_log()
        assert np.array_equal(lyapunov_grid(spec, E, 3000), np.maximum(0.0, direct) / 3000)

    @pytest.mark.parametrize("rounding", ["floor", "ceil"])
    def test_shifted_golden_chain_matches_direct(self, rounding):
        # Every golden phase takes the block product: against the kernel's
        # sequential path (300 energies), 1e-12 relative in ln||P|| off the
        # spectrum and the benchmark's 1e-9 bound in gamma everywhere.
        rng = np.random.default_rng(41 if rounding == "floor" else 43)
        phases = [*rng.uniform(0.0, 1.0, 3), *rng.uniform(-5.0, 0.0, 2), *rng.uniform(1.0, 1e9, 2)]
        for omega, n in zip(phases, (1, 2, 89, 3000, 10_000, 25_000, 54_321)):
            lam = float(rng.uniform(-3.0, 3.0))
            spec = PotentialSpec.sturmian(GOLDEN_MEAN, lam, float(omega), rounding)
            assert fixed_point_window(spec, 1, n) is not None
            E = np.sort(rng.uniform(min(lam, 0.0) - 2.5, max(lam, 0.0) + 2.5, 300))
            got = lyapunov_grid(spec, E, n) * n
            direct = Mat2(*product_grid(sample_potential(spec, 1, n), E)).op_norm_log()
            want = np.maximum(0.0, direct)
            assert np.all(np.abs(got - want) / n <= 1e-9 * np.maximum(1.0, want / n))
            off = want / n > 1e-3
            assert np.all(np.abs(got - want)[off] <= 1e-12 * want[off])

    def test_a_refused_word_takes_the_direct_path(self, monkeypatch):
        # A fixed point spelled without b holds none of the sampled letters,
        # so no word is found; the samples then take the direct path, bit for bit.
        spec = PotentialSpec.sturmian(GOLDEN_MEAN, 1.5, 0.4)
        E = np.linspace(-4.0, 4.0, 9)
        assert fixed_point_window(spec, 1, 3000) is not None
        monkeypatch.setattr(potentials, "generate_substitution_word",
                            lambda rule, seed, size: seed * size)
        assert fixed_point_window(spec, 1, 3000) is None
        direct = Mat2(*product_grid(sample_potential(spec, 1, 3000), E)).op_norm_log()
        assert np.array_equal(lyapunov_grid(spec, E, 3000), np.maximum(0.0, direct) / 3000)

    def test_site_budget_holds_on_both_paths(self):
        for spec in (PotentialSpec.sturmian(GOLDEN_MEAN, 2.0),
                     PotentialSpec.almost_mathieu(GOLDEN_MEAN, 2.0)):
            with pytest.raises(DomainError):
                lyapunov_grid(spec, [0.0], MAX_SITES + 1)

    def test_blocks_are_zeckendorf_digits(self):
        F = [1, 2]
        while F[-1] < 10**6:
            F.append(F[-1] + F[-2])
        spec = PotentialSpec.substitution(FIBONACCI_RULE, {"a": 1.0, "b": 0.0})
        for n in (1, 4, 12, 100, 999_999):
            ks = [k for k, _ in fixed_point_window(spec, 1, n).blocks]
            assert sum(F[k] for k in ks) == n
            assert all(k1 >= k2 + 2 for k1, k2 in zip(ks, ks[1:]))


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
