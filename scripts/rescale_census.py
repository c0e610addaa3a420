"""Count and time the level-product rescales of the lifted Lyapunov windows.

For the README-scale lifted windows (the Fibonacci chain a = 2, b = -0.5 on
10^4 and 2,178,309 sites, Thue-Morse a = 1, b = -1 on 2^21 sites, and the
golden-mean Sturmian lam = 2 at omega = 0.3 on 10^4 sites), over an energy
grid in [-3, 4.5], prints per ``block_product`` call the calls of
``transfer._rescale``, their largest shift in bits and the milliseconds spent
in them, best of a few calls. It does so under the default rule (a rescale
once a measured entry leaves 2^+-_LEVEL_BITS) and under the eager one
(_LEVEL_BITS = -1, a rescale after every product). The two rules must give
the same log-norms and lifts bit for bit; the script exits 1 if any differs.
"""

import argparse
import time

import numpy as np

from quasispec import FIBONACCI_RULE, GOLDEN_MEAN, THUE_MORSE_RULE, PotentialSpec, transfer
from quasispec.potentials import fixed_point_window


def log_norms_and_lifts(p, n):
    """ln||P|| and the lift of a ``block_product`` slice, as one array."""
    return np.stack([transfer._log_norm(p, n), n])


def census(word, energies, repeats):
    """(rescales, largest shift, rescale ms, call ms, output) of the fastest
    of ``repeats`` ``block_product`` calls."""
    rescale, shifts, spent = transfer._rescale, [], [0.0]

    def timed(*args):
        t = time.perf_counter()
        m, e = rescale(*args)
        spent[0] += time.perf_counter() - t
        shifts.append(int(np.abs(e).max(initial=0)))
        return m, e

    best = None
    transfer._rescale = timed
    try:
        for _ in range(repeats):
            shifts.clear()
            spent[0] = 0.0
            t = time.perf_counter()
            out = transfer.block_product(word, energies, log_norms_and_lifts)
            total = time.perf_counter() - t
            if best is None or total < best[3]:
                best = (len(shifts), max(shifts, default=0), spent[0], total, out)
    finally:
        transfer._rescale = rescale
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--energies", type=int, default=240)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="multiply every window's sites (at least 2)")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    fibonacci = PotentialSpec.substitution(FIBONACCI_RULE, {"a": 2.0, "b": -0.5})
    windows = [
        ("fibonacci", fibonacci, 10_000),
        ("fibonacci", fibonacci, 2_178_309),
        ("thue-morse", PotentialSpec.substitution(THUE_MORSE_RULE, {"a": 1.0, "b": -1.0}), 2**21),
        ("golden-0.3", PotentialSpec.sturmian(GOLDEN_MEAN, 2.0, 0.3), 10_000),
    ]
    E = np.linspace(-3.0, 4.5, args.energies)
    print(f"{'window':>10}  {'sites':>8}  {'rule':>7}  {'rescales':>8}  {'max shift':>9}"
          f"  {'rescale ms':>10}  {'call ms':>8}")
    differ = []
    default = transfer._LEVEL_BITS
    for name, spec, sites in windows:
        n = max(2, int(sites * args.scale))
        word = fixed_point_window(spec, 1, n)
        outputs = []
        for rule, bits in (("default", default), ("eager", -1)):
            transfer._LEVEL_BITS = bits
            try:
                rescales, shift, spent, total, out = census(word, E, args.repeats)
            finally:
                transfer._LEVEL_BITS = default
            outputs.append(out.tobytes())
            print(f"{name:>10}  {n:>8}  {rule:>7}  {rescales:>8}  {shift:>9}"
                  f"  {1e3 * spent:>10.3f}  {1e3 * total:>8.3f}")
        if outputs[0] != outputs[1]:
            differ.append(f"{name} on {n} sites")
    if differ:
        raise SystemExit("the eager rule changed the log-norms or lifts of " + ", ".join(differ))


if __name__ == "__main__":
    main()
