"""Time the transfer-product kernel at several lane budgets and grid widths.

Reproduces the two tables in the comments above ``transfer._LANES`` and
``transfer._NARROW``. The lanes table: the best of a few ``product_grid``
calls on an almost-Mathieu chain (25,000 sites x 200 energies) and a sampled
golden Sturmian chain (10^4 sites x 240 energies) for each lane budget, in
milliseconds. The budget changes no bit of the products; the script checks
that against the default budget.

The widths table: the same two chains over 10^4 sites at M energies, in
microseconds per energy, stepped as side-by-side segments (the narrow path,
``_NARROW`` >= M) and as one segment (the wide path, ``_NARROW`` < M), the
two taking turns within each repeat. The paths join different products, so
their bits differ by rounding; the table prints the largest relative
difference of the log scales. A width above ``_LANES`` has no narrow path.
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


def lanes_table(chains, args):
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


def widths_table(chains, args):
    n = max(1, int(args.width_sites * args.scale))
    chains = [(name, sample_potential(spec, 1, n)) for name, spec, _, _ in chains]
    print(f"{'M':>6}" + "".join(f"  {name + ' narrow us':>22}  {'wide us':>8}  {'rel':>7}"
                                for name, _ in chains) + "  pick")
    default, crossover = transfer._NARROW, 0
    try:
        for M in (int(x) for x in args.widths.split(",")):
            cells, narrow_wins = [], M <= transfer._LANES
            for _, values in chains:
                E = np.linspace(float(values.min()) - 2.5, float(values.max()) + 2.5, M)
                paths = (M, M - 1) if M <= transfer._LANES else (M - 1,)
                best, out = {}, {}
                for _ in range(args.repeats):
                    for narrow in paths:
                        transfer._NARROW = narrow
                        t = time.perf_counter()
                        out[narrow] = transfer.product_grid(values, E)
                        best[narrow] = min(best.get(narrow, np.inf), time.perf_counter() - t)
                us = {k: 1e6 * v / M for k, v in best.items()}
                if M in out:
                    rel = np.max(np.abs(out[M][4] - out[M - 1][4])
                                 / np.maximum(1.0, np.abs(out[M - 1][4])))
                    cells.append(f"  {us[M]:>22.2f}  {us[M - 1]:>8.2f}  {rel:>7.0e}")
                    narrow_wins &= us[M] <= us[M - 1]
                else:
                    cells.append(f"  {'-':>22}  {us[M - 1]:>8.2f}  {'-':>7}")
            if narrow_wins:
                crossover = max(crossover, M)
            print(f"{M:>6}" + "".join(cells) + ("  narrow" if narrow_wins else "  wide"))
    finally:
        transfer._NARROW = default
    print(f"crossover: the narrow path was at least as fast on every chain up to "
          f"M = {crossover} (_NARROW = {default})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lanes", default="512,1024,2048,4096,8192")
    ap.add_argument("--widths", default="200,256,257,512,1024,1536,2048,2049,3072,4096,4097")
    ap.add_argument("--width-sites", type=int, default=10_000)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply every chain's site count")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    chains = [
        ("almost-mathieu", PotentialSpec.almost_mathieu(GOLDEN_MEAN, 2.5, 0.3), 25_000, 200),
        ("golden", PotentialSpec.sturmian(GOLDEN_MEAN, 1.5), 10_000, 240),
    ]
    lanes_table(chains, args)
    widths_table(chains, args)


if __name__ == "__main__":
    main()
