"""Time the transfer-product kernel's paths and print the tables behind its
selection constants, the ones that ``transfer._plan`` reads.

Three sections, each checking on every case that both paths give the same
bits; the ``pick`` column is the path that the constants choose:

- steps (``_FEW_LANES``, ``_MARK_SITES``): the best of a few ``product_grid``
  calls on a golden Sturmian chain, in milliseconds, forced onto the numpy
  lanes and onto the Python float loop, at every chain length and grid width
  asked for, without marks and with a mark at every site (a resistance
  profile's lengths 1..n);
- blocks (``_PRODUCT_LANES``): ``product_grid`` on the lanes over an
  almost-Mathieu chain, its E - V blocks formed by a broadcast subtraction
  and by one BLAS product, at every grid width asked for, with the block
  shape (rows x lanes x energies) the kernel uses there, and
  ``ids.count_below`` over the same chain, its V - E blocks formed both
  ways. The products are timed again in a child process run with
  OPENBLAS_NUM_THREADS=1: equal times say that BLAS ran them on one thread
  anyway;
- joins (``_FEW_JOINS``): the prefix pass alone, joining a number of segment
  products at M energies on numpy rows and in Python floats.
"""

import argparse
import contextlib
import os
import subprocess
import sys
import time

import numpy as np

from quasispec import GOLDEN_MEAN, PotentialSpec, ids, sample_potential, transfer

# The values of the selection constants that force each path.
LANES = ("_FEW_LANES", -1)
STEPS = {"lanes": (LANES,), "floats": (("_FEW_LANES", 1 << 62),)}
BLOCKS = {"broadcast": (LANES, ("_PRODUCT_LANES", 1 << 62)),
          "product": (LANES, ("_PRODUCT_LANES", 1))}
COUNT_BLOCKS = {"broadcast": (("_PRODUCT_LANES", 1 << 62),), "product": (("_PRODUCT_LANES", 1),)}


@contextlib.contextmanager
def forced(settings):
    saved = [(name, getattr(transfer, name)) for name, _ in settings]
    try:
        for name, value in settings:
            setattr(transfer, name, value)
        yield
    finally:
        for name, value in saved:
            setattr(transfer, name, value)


def best_ms(f, repeats):
    best = float("inf")
    for _ in range(repeats):
        t = time.perf_counter()
        f()
        best = min(best, time.perf_counter() - t)
    return 1e3 * best


def same(got, want):
    return all(np.array_equal(g, w) for g, w in zip(got, want))


def timed_paths(paths, f, repeats, what):
    """The best times of f() forced onto each of ``paths`` (name: settings),
    after checking that all give the same bits."""
    cells, want = [], None
    for settings in paths.values():
        with forced(settings):
            got = f()
            if want is not None and not same(got, want):
                raise SystemExit(f"the paths differ at {what}")
            want = got
            cells.append(best_ms(f, repeats))
    return cells


def ints(text):
    return [int(x) for x in text.split(",")]


def steps(args):
    spec = PotentialSpec.sturmian(GOLDEN_MEAN, 1.5, 0.3)
    print(f"{'marks':>5} {'M':>3} {'sites':>6} {'lanes ms':>9} {'floats ms':>9} {'pick':>6}")
    crossover = []
    for every_site in (False, True):
        for M in ints(args.energies):
            faster = picked = 0  # the longest chains on which floats win, and are picked
            for n in ints(args.sites):
                values = sample_potential(spec, 1, n)
                E = np.linspace(float(values.min()) - 2.5, float(values.max()) + 2.5, M)
                marks = np.arange(1, n + 1) if every_site else None
                floats = transfer._plan(E, n, n if every_site else 1)[0] is transfer._float_group
                cells = timed_paths(STEPS, lambda: transfer.product_grid(values, E, marks),
                                    args.repeats, f"{n} sites, M = {M}")
                faster = n if cells[1] < cells[0] else faster
                picked = n if floats else picked
                print(f"{'all' if every_site else 'none':>5} {M:>3} {n:>6} {cells[0]:>9.3f} "
                      f"{cells[1]:>9.3f} {'floats' if floats else 'lanes':>6}")
            crossover.append((every_site, M, faster, picked))
    print("crossover: the longest chain on which floats were faster / are picked")
    for every_site, M, faster, picked in crossover:
        print(f"{'all' if every_site else 'none':>5} {M:>3} {faster:>6} {picked:>6}")


def block_shape(values, E):
    """The E - V block (rows, lanes, energies) that product_grid steps at the
    energies ``E`` over the chain ``values``, from its own sizing rules."""
    M, n = len(E), len(values)
    grow = float(np.abs(E).max()) + float(np.abs(values).max()) + 2.0
    k = max(1, int(transfer._LOG_GROWTH / np.log(grow)))
    s = transfer._SEGMENT if M <= transfer._NARROW else n
    J = min(transfer._LANES // M, -(-n // s)) if M <= transfer._NARROW else 1
    return min(k, max(1, transfer._CHUNK // (J * M)), s), J, M


def blocks(args):
    values = sample_potential(PotentialSpec.almost_mathieu(GOLDEN_MEAN, 2.0, 0.3), 1,
                              args.block_sites)
    n, rows = len(values), []
    for M in ints(args.block_energies):
        E = np.linspace(-4.0, 4.0, M)
        cells = timed_paths(BLOCKS, lambda: transfer.product_grid(values, E), args.repeats,
                            f"M = {M}")
        cells += timed_paths(COUNT_BLOCKS, lambda: (ids.count_below(values, E),), args.repeats,
                             f"M = {M}, count_below")
        with forced((LANES,)):  # the builder the lanes take at this width
            product = transfer._plan(E, n, 1)[0] is not transfer._lane_group
        rows.append((M, block_shape(values, E), cells, product))
    return rows


def one_thread_blocks(args):
    """The product column of the blocks table from a child process with
    OPENBLAS_NUM_THREADS=1, by grid width."""
    argv = [sys.executable, os.path.abspath(__file__), "--section", "blocks",
            "--block-sites", str(args.block_sites), "--block-energies", args.block_energies,
            "--repeats", str(args.repeats)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True).stdout
    return {int(r[0]): (float(r[3]), float(r[6])) for r in map(str.split, out.splitlines()[1:])
            if r[0].isdigit()}


def print_blocks(args):
    rows = blocks(args)
    one = one_thread_blocks(args) if os.environ.get("OPENBLAS_NUM_THREADS") != "1" else {}
    print(f"{'M':>5} {'block':>14} {'bcast ms':>9} {'prod ms':>9} {'1-thr ms':>9} "
          f"{'count bcast':>12} {'count prod':>11} {'1-thr':>9} {'pick':>9}")
    nan = (float("nan"),) * 2
    for M, (r, J, _), (bcast, prod, c_bcast, c_prod), product in rows:
        print(f"{M:>5} {f'{r}x{J}x{M}':>14} {bcast:>9.3f} {prod:>9.3f} {one.get(M, nan)[0]:>9.3f} "
              f"{c_bcast:>12.3f} {c_prod:>11.3f} {one.get(M, nan)[1]:>9.3f} "
              f"{'product' if product else 'broadcast':>9}")
    if one:
        for name, i in (("product_grid", 0), ("count_below", 2)):
            faster = [M for M, _, cells, _ in rows if cells[i + 1] < cells[i]]
            print(f"blocks: {name} products faster at M = {faster or 'none'}")
        picked = [row[0] for row in rows if row[-1]]
        print(f"blocks: products picked at M = {picked or 'none'}")


def joins(args):
    print(f"{'M':>3} {'joins':>6} {'lane ms':>9} {'float ms':>9} {'pick':>6}")
    rng = np.random.default_rng(0)
    for M in ints(args.join_energies):
        for J in ints(args.join_segments):
            last = rng.uniform(-1.0, 1.0, (2, 2, J, M))
            x_exp = rng.integers(0, 60, (J, M)).astype(float)
            run, run_exp = np.zeros((2, 2, M)), np.zeros(M)
            run[0, 0] = run[1, 1] = 1.0
            cells, want = [], None
            for join in (transfer._lane_joins, transfer._float_joins):
                got = join(last, x_exp, run, run_exp, J)
                if want is not None and not same(got, want):
                    raise SystemExit(f"the joins differ at M = {M}, {J} joins")
                want = got
                cells.append(best_ms(lambda: join(last, x_exp, run, run_exp, J), args.repeats))
            floats = transfer._plan(np.zeros(M), 1, 1)[1] is transfer._float_joins
            print(f"{M:>3} {J:>6} {cells[0]:>9.3f} {cells[1]:>9.3f} "
                  f"{'floats' if floats else 'lanes':>6}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--section", choices=("all", "steps", "blocks", "joins"), default="all")
    ap.add_argument("--sites", default="21,55,144,288,610,1000,2000,3000,5000,10000")
    ap.add_argument("--energies", default="1,2,4,8,16,32")
    ap.add_argument("--block-sites", type=int, default=25_000)
    ap.add_argument("--block-energies", default="1,2,3,4,8,16,64,200,256,257,1000")
    ap.add_argument("--join-energies", default="1,2,3,4,6,8,16")
    ap.add_argument("--join-segments", default="1,4,40,400")
    ap.add_argument("--repeats", type=int, default=7)
    args = ap.parse_args()
    for name, section in (("steps", steps), ("blocks", print_blocks), ("joins", joins)):
        if args.section in ("all", name):
            section(args)


if __name__ == "__main__":
    main()
