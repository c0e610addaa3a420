"""The lane and block budgets of the chain kernels change no bit of a result
and bound the kernels' transient memory."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from quasispec import (GOLDEN_MEAN, THUE_MORSE_RULE, PotentialSpec,
                       approximant_by_denominator, count_below, count_below_periodic, ids,
                       ids_curve, lyapunov_grid, sample_potential, transfer)
from quasispec.potentials import fixed_point_window
from quasispec.transfer import product_grid

WIDTHS = [1, 7, 200, 256, 257]


@st.composite
def chains(draw):
    """Up to 3000 sites, a grid width from WIDTHS and increasing marks. Values
    and energies from {-1, 0, 2} make exact zero entries and zero pivots; a
    huge energy forces a rescale after every site."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, M = draw(st.integers(1, 3000)), draw(st.sampled_from(WIDTHS))
    if draw(st.booleans()):
        values, E = rng.uniform(-3.0, 3.0, n), rng.uniform(-6.0, 6.0, M)
    else:
        values, E = rng.choice([-1.0, 0.0, 2.0], n), rng.choice([-1.0, 0.0, 2.0], M)
    if draw(st.booleans()):
        E[0] = rng.choice([-1.0, 1.0]) * 1e200
    marks = np.unique(rng.integers(1, n + 1, draw(st.integers(1, 20))))
    return values, E, marks


def edge_problem(seed):
    """The stacked count behind a band set's edges: both wrap-around
    restrictions of a golden Sturmian period of 377 sites, site-major (377, 2),
    at 377 energies each (2, 377), some exactly on diagonal entries."""
    rng = np.random.default_rng(seed)
    spec = PotentialSpec.sturmian(GOLDEN_MEAN, rng.uniform(1.0, 3.0), rng.uniform())
    vals = np.asarray(approximant_by_denominator(spec, 377).values)
    E = rng.uniform(vals.min() - 4.0, vals.max() + 4.0, (2, 377))
    E[:, :3] = vals[:3]
    return np.ascontiguousarray(np.stack([vals, vals], axis=1)), E, np.array([1.0, -1.0])


def with_small_budgets(f):
    """f() with 512 lanes and 64-element blocks in every kernel."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transfer, "_LANES", 512)
        mp.setattr(transfer, "_CHUNK", 64)
        return f()


def assert_all_equal(got, want):
    assert len(got) == len(want)
    for x, y in zip(got, want):
        assert x.shape == y.shape and np.array_equal(x, y)


class TestBudgetsChangeNoBit:
    @given(chains())
    def test_product_grid(self, chain):
        values, E, marks = chain

        def run():
            return (*product_grid(values, E), *product_grid(values, E, marks))

        assert_all_equal(with_small_budgets(run), run())

    @given(chains())
    def test_count_below(self, chain):
        values, E, _ = chain
        assert_all_equal([with_small_budgets(lambda: count_below(values, E))],
                         [count_below(values, E)])

    @given(st.integers(0, 2**32 - 1))
    def test_count_below_periodic(self, seed):
        diag, E, corners = edge_problem(seed)

        def run():
            return count_below_periodic(diag, E, corners)

        assert_all_equal([with_small_budgets(run)], [run()])

    @pytest.mark.parametrize("M", WIDTHS)
    def test_long_chain(self, M):
        # 98 segments: more than the small budget's 512 // M lanes for M >= 7.
        values = sample_potential(PotentialSpec.almost_mathieu(GOLDEN_MEAN, 2.5, 0.3),
                                  1, 25_000)
        E = np.linspace(-4.5, 4.5, M)
        marks = [1, 255, 256, 257, 4096, 12_345, 25_000]

        def run():
            return (*product_grid(values, E), *product_grid(values, E, marks),
                    count_below(values[:2001], E))

        assert_all_equal(with_small_budgets(run), run())

    def test_lifted_counts(self):
        # The small budget slices the energies a few at a time.
        period = approximant_by_denominator(PotentialSpec.sturmian(GOLDEN_MEAN, 2.0, 0.3), 233)
        E = np.linspace(-4.0, 6.0, 466)
        window = fixed_point_window(
            PotentialSpec.substitution(THUE_MORSE_RULE, {"a": 1.0, "b": -0.5}), -300, 300)

        def run():
            return (ids.floquet_count(period.level_word, E), ids.dirichlet_count(window, E))

        assert_all_equal(with_small_budgets(run), run())

    @pytest.mark.parametrize("spec", [
        PotentialSpec.substitution(THUE_MORSE_RULE, {"a": 1.0, "b": -0.5}),
        PotentialSpec.sturmian(GOLDEN_MEAN, 2.0),
    ], ids=["thue-morse", "golden"])
    def test_lifted_grid_in_slices(self, spec):
        # 20,004 energies: more than ten slices of the block product's budget
        # at 1,000,003 sites. Calls on 1000 energies at a time, whose ends are
        # not the slices', give the same bits; so does ids_curve on a
        # substitution window of 2 x 10^6 + 1 sites.
        E = np.concatenate([np.linspace(-4.0, 4.0, 20_000), [1.0, -0.5, 1e200, -1e300]])
        parts = range(0, E.size, 1000)
        want = np.concatenate([lyapunov_grid(spec, E[j:j + 1000], 1_000_003) for j in parts])
        assert np.array_equal(lyapunov_grid(spec, E, 1_000_003), want)
        if spec.kind == "substitution":
            grid = np.sort(E[:-1])
            want = np.concatenate([ids_curve(spec, None, 10**6, grid[j:j + 1000]).values
                                   for j in parts])
            assert np.array_equal(ids_curve(spec, None, 10**6, grid).values, want)


def traced_peak(f):
    """The result of f() and the peak of the memory traced while it ran."""
    f()  # anything allocated once per process is not the kernel's
    tracemalloc.start()
    try:
        out = f()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTransientMemory:
    # The lanes, one E - V block, one padded segment and numpy's iterator
    # buffers stay within 1 MB beyond the outputs; a 2 MB block or a copy of
    # a long chain would not.
    BOUND = 1 << 20

    def test_product_grid(self):
        values = sample_potential(PotentialSpec.almost_mathieu(GOLDEN_MEAN, 2.5, 0.3),
                                  1, 25_000)
        E = np.linspace(-4.5, 4.5, 200)
        out, peak = traced_peak(lambda: product_grid(values, E))
        assert peak <= sum(r.nbytes for r in out) + self.BOUND

    def test_product_grid_long_chain_one_energy(self):
        # 10^6 sites make 3907 segments, all stepped side by side at M = 1:
        # an 8 MB chain that must not be copied to pad its last segment.
        values = sample_potential(PotentialSpec.almost_mathieu(GOLDEN_MEAN, 2.5, 0.3),
                                  1, 10**6)
        out, peak = traced_peak(lambda: product_grid(values, [0.7]))
        assert peak <= sum(r.nbytes for r in out) + self.BOUND

    def test_count_below(self):
        diag = sample_potential(PotentialSpec.sturmian(GOLDEN_MEAN, 2.0, 0.4), -1000, 1000)
        E = np.linspace(-3.0, 4.5, 400)
        out, peak = traced_peak(lambda: count_below(diag, E))
        assert peak <= out.nbytes + self.BOUND

    def test_count_below_periodic(self):
        diag, E, corners = edge_problem(1)
        out, peak = traced_peak(lambda: count_below_periodic(diag, E, corners))
        assert peak <= out.nbytes + self.BOUND

    # The block product holds two levels of level matrices and one per block
    # for one slice of energies at a time: 4 MB of long doubles with their
    # lifts. The whole level table at every energy would take 63 MB for the
    # first count below and 153 MB for the second.
    LIFTED_BOUND = 12 << 20

    def test_floquet_count(self):
        period = approximant_by_denominator(PotentialSpec.sturmian(GOLDEN_MEAN, 2.0), 10946)
        E = np.linspace(-4.0, 6.0, 2 * 10946)
        out, peak = traced_peak(lambda: ids.floquet_count(period.level_word, E))
        assert peak <= 2 * out.nbytes + self.LIFTED_BOUND

    def test_fixed_point_count(self):
        E = np.linspace(-4.0, 4.0, 100_000)
        window = fixed_point_window(
            PotentialSpec.substitution(THUE_MORSE_RULE, {"a": 1.0, "b": -0.5}), -1000, 1000)
        out, peak = traced_peak(lambda: ids.dirichlet_count(window, E))
        assert peak <= 2 * out.nbytes + self.LIFTED_BOUND

    def test_lyapunov_fixed_point(self):
        # The whole grid in one block product took 48 MB here (1545 bytes
        # per energy); in slices it takes about 7 MB.
        spec = PotentialSpec.substitution(THUE_MORSE_RULE, {"a": 1.0, "b": -0.5})
        E = np.linspace(-4.0, 4.0, 1 << 15)
        _, peak = traced_peak(lambda: lyapunov_grid(spec, E, 1_000_003))
        assert peak <= self.LIFTED_BOUND
