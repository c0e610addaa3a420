"""Time the transfer-product kernel's two stepping paths on small calls.

Reproduces the crossover table in the comment above ``transfer._FEW_LANES``:
the best of a few ``product_grid`` calls on a golden Sturmian chain, in
milliseconds, with each call forced onto the numpy lanes and onto the Python
float loop, at every chain length and grid width asked for, without marks and
with a mark at every site (a resistance profile's lengths 1..n). Both paths
must give the same bits; the script checks that on every case. The last
column is the path that the selection constants pick.
"""

import argparse
import time

import numpy as np

from quasispec import GOLDEN_MEAN, PotentialSpec, sample_potential, transfer

FORCE = {"lanes": -1, "floats": 1 << 62}  # the _FEW_LANES values that force each path


def best_ms(values, E, marks, repeats):
    best = float("inf")
    for _ in range(repeats):
        t = time.perf_counter()
        transfer.product_grid(values, E, marks)
        best = min(best, time.perf_counter() - t)
    return 1e3 * best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sites", default="21,55,144,288,610,1000,2000,3000,5000,10000")
    ap.add_argument("--energies", default="1,2,4,8,16,32")
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args()

    spec = PotentialSpec.sturmian(GOLDEN_MEAN, 1.5, 0.3)
    print(f"{'marks':>5} {'M':>3} {'sites':>6} {'lanes ms':>9} {'floats ms':>9} {'pick':>6}")
    crossover = []
    default = transfer._FEW_LANES
    try:
        for every_site in (False, True):
            for M in (int(x) for x in args.energies.split(",")):
                faster = picked = 0  # the longest chains on which floats win, and are picked
                for n in (int(x) for x in args.sites.split(",")):
                    values = sample_potential(spec, 1, n)
                    E = np.linspace(float(values.min()) - 2.5, float(values.max()) + 2.5, M)
                    marks = np.arange(1, n + 1) if every_site else None
                    transfer._FEW_LANES = default
                    floats = transfer._few_lanes(M, n, n if every_site else 1)
                    cells, want = [], None
                    for few in FORCE.values():
                        transfer._FEW_LANES = few
                        got = transfer.product_grid(values, E, marks)
                        if want is not None and not all(
                                np.array_equal(g, w) for g, w in zip(got, want)):
                            raise SystemExit(f"the paths differ at {n} sites, M = {M}")
                        want = got
                        cells.append(best_ms(values, E, marks, args.repeats))
                    faster = n if cells[1] < cells[0] else faster
                    picked = n if floats else picked
                    print(f"{'all' if every_site else 'none':>5} {M:>3} {n:>6} {cells[0]:>9.3f} "
                          f"{cells[1]:>9.3f} {'floats' if floats else 'lanes':>6}")
                crossover.append((every_site, M, faster, picked))
    finally:
        transfer._FEW_LANES = default
    print("crossover: the longest chain on which floats were faster / are picked")
    for every_site, M, faster, picked in crossover:
        print(f"{'all' if every_site else 'none':>5} {M:>3} {faster:>6} {picked:>6}")


if __name__ == "__main__":
    main()
