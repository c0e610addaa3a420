"""Time the transfer-product kernel at several lane budgets.

Reproduces the lane table in the comment above ``transfer._LANES``: the
best of a few ``product_grid`` calls on an almost-Mathieu chain (25,000 sites
x 200 energies) and a sampled golden Sturmian chain (10^4 sites x 240
energies) for each lane budget, in milliseconds. The budget changes no bit of
the products; the script checks that against the default budget.
"""

import argparse
import time

import numpy as np

from quasispec import GOLDEN_MEAN, PotentialSpec, sample_potential, transfer


def best_ms(values, E, repeats):
    best = float("inf")
    for _ in range(repeats):
        t = time.perf_counter()
        transfer.product_grid(values, E)
        best = min(best, time.perf_counter() - t)
    return 1e3 * best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lanes", default="512,1024,2048,4096,8192")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply both chains' site counts")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    chains = [
        ("almost-mathieu", PotentialSpec.almost_mathieu(GOLDEN_MEAN, 2.5, 0.3), 25_000, 200),
        ("golden", PotentialSpec.sturmian(GOLDEN_MEAN, 1.5), 10_000, 240),
    ]
    cases = []
    for name, spec, n, M in chains:
        values = sample_potential(spec, 1, max(1, int(n * args.scale)))
        lo, hi = float(values.min()) - 2.5, float(values.max()) + 2.5
        E = np.linspace(lo, hi, M)
        cases.append((name, values, E, transfer.product_grid(values, E)))

    print(f"{'lanes':>6}" + "".join(f"  {name + ' ms':>18}" for name, *_ in cases))
    default = transfer._LANES
    try:
        for lanes in (int(x) for x in args.lanes.split(",")):
            transfer._LANES = lanes
            cells = []
            for _, values, E, want in cases:
                got = transfer.product_grid(values, E)
                if not all(np.array_equal(g, w) for g, w in zip(got, want)):
                    raise SystemExit(f"{lanes} lanes changed the products")
                cells.append(best_ms(values, E, args.repeats))
            print(f"{lanes:>6}" + "".join(f"  {ms:>18.2f}" for ms in cells))
    finally:
        transfer._LANES = default


if __name__ == "__main__":
    main()
