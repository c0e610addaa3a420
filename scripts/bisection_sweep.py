"""Time the Floquet band edges at several multisection lane budgets.

Reproduces the table in the comment above ``ids._BISECTION_LANES``: the best
of a few calls of ``band_spectrum`` on almost-Mathieu periods q = 89 and 144,
a random period of 300 sites and the golden Sturmian q = 377 (lifted edges),
and of ``butterfly`` at qmax 10, for each budget, in milliseconds. The
budgets take turns within each repeat. The budget changes no bit of the
edges; the script checks the band sets against those at the default budget.
"""

import argparse
import time

import numpy as np

from quasispec import GOLDEN_MEAN, PeriodicPotential, PotentialSpec, ids
from quasispec.bands import band_spectrum, butterfly
from quasispec.potentials import approximant_by_denominator


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
    periods = [
        ("am-q89", approximant_by_denominator(am, size(89))),
        ("am-q144", approximant_by_denominator(am, size(144))),
        ("random-300", PeriodicPotential(tuple(
            np.random.default_rng(300).uniform(-2.0, 2.0, size(300)).tolist()))),
        ("golden-q377", approximant_by_denominator(
            PotentialSpec.sturmian(GOLDEN_MEAN, 2.0), size(377))),
    ]
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
                    if got != want:
                        raise SystemExit(f"budget {budget} changed the band edges")
    finally:
        ids._BISECTION_LANES = default
    print(f"{'budget':>6}" + "".join(f"  {name + ' ms':>15}" for name, _ in cases))
    for budget, cells in zip(budgets, 1e3 * best):
        print(f"{budget:>6}" + "".join(f"  {ms:>15.2f}" for ms in cells))


if __name__ == "__main__":
    main()
