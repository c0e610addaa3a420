"""Time the Floquet band edges at several multisection lane budgets.

Reproduces the table in the comment above ``ids._BISECTION_LANES``: the best
of a few calls of ``band_spectrum`` on almost-Mathieu periods q = 89 and 144,
a random period of 300 sites, the golden Sturmian q = 377 at lambda = 2 and
16 and the Thue-Morse order-10 period (a = 1, b = 0; lifted edges), and of
``butterfly`` at qmax 10, for each budget, in milliseconds. The budgets take
turns within each repeat. The budget changes no bit of the Sturm edges, nor
of the lifted ones where their count is monotone; the script checks the band
sets against those at the default budget where it does not change them.

A second table gives, at the default budget, the count calls of each case
and the energies they counted.
"""

import argparse
import time

import numpy as np

from quasispec import GOLDEN_MEAN, PeriodicPotential, PotentialSpec, bands, ids
from quasispec.bands import band_spectrum, butterfly
from quasispec.potentials import NAMED_RULES, approximant_by_denominator, periodic_approximant


def counted_calls(compute):
    """The count calls of ``compute`` and the energies they counted."""
    calls = [0, 0]
    bisect = bands.bisect_eigenvalues

    def counting(count_fn, *args, **kwargs):
        def count(E):
            calls[0] += 1
            calls[1] += np.size(E)
            return count_fn(E)
        return bisect(count, *args, **kwargs)

    bands.bisect_eigenvalues = counting
    try:
        compute()
    finally:
        bands.bisect_eigenvalues = bisect
    return calls


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--budgets", default="1,256,512,1024,2048,4096",
                    help="budget 1 takes one halving per count call")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply every period and qmax (at least 2)")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    def size(n):
        return max(2, int(n * args.scale))

    am = PotentialSpec.almost_mathieu(GOLDEN_MEAN, 2.0, 0.0)
    thue_morse = PotentialSpec.substitution(NAMED_RULES["thue-morse"], {"a": 1.0, "b": 0.0})
    periods = [
        ("am-q89", approximant_by_denominator(am, size(89))),
        ("am-q144", approximant_by_denominator(am, size(144))),
        ("random-300", PeriodicPotential(tuple(
            np.random.default_rng(300).uniform(-2.0, 2.0, size(300)).tolist()))),
        ("golden-q377", approximant_by_denominator(
            PotentialSpec.sturmian(GOLDEN_MEAN, 2.0), size(377))),
        ("golden16-q377", approximant_by_denominator(
            PotentialSpec.sturmian(GOLDEN_MEAN, 16.0), size(377))),
        ("thue-morse-10", periodic_approximant(thue_morse, size(1024).bit_length() - 1)),
    ]
    # The lifted count is not monotone on these; a budget may move their edges.
    moving = {"golden16-q377", "thue-morse-10"}
    cases = [(name, lambda p=p: band_spectrum(p)) for name, p in periods]
    cases.append(("butterfly-10", lambda: butterfly(2.0, size(10))))
    wants = [repr(compute()) for _, compute in cases]

    budgets = [int(x) for x in args.budgets.split(",")]
    best = np.full((len(budgets), len(cases)), np.inf)
    default = ids._BISECTION_LANES
    try:
        # Budgets take turns within each repeat, so that a slow phase of
        # the host does not land on one budget's row only.
        for _ in range(args.repeats):
            for row, budget in enumerate(budgets):
                ids._BISECTION_LANES = budget
                for col, ((_, compute), want) in enumerate(zip(cases, wants)):
                    t = time.perf_counter()
                    got = repr(compute())
                    best[row, col] = min(best[row, col], time.perf_counter() - t)
                    if got != want and cases[col][0] not in moving:
                        raise SystemExit(f"budget {budget} changed the band edges")
    finally:
        ids._BISECTION_LANES = default
    print(f"{'budget':>6}" + "".join(f"  {name + ' ms':>15}" for name, _ in cases))
    for budget, cells in zip(budgets, 1e3 * best):
        print(f"{budget:>6}" + "".join(f"  {ms:>15.2f}" for ms in cells))
    print(f"{'case':>15}  {'calls':>6}  {'energies':>9}")
    for name, compute in cases:
        calls, energies = counted_calls(compute)
        print(f"{name:>15}  {calls:>6}  {energies:>9}")


if __name__ == "__main__":
    main()
