"""Compare Landauer resistance growth against the Lyapunov exponent.

For a handful of energies, fits the slope of ln R_L versus 2L and prints it
next to the finite-size Lyapunov estimate; in hyperbolic regimes the two
should agree.
"""

import argparse
import math

import numpy as np

from quasispec import GOLDEN_MEAN, PotentialSpec, lyapunov_estimate, resistance_profile


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--model", choices=["fibonacci", "constant"], default="constant")
    ap.add_argument("--lambda", type=float, dest="lam", default=1.0)
    ap.add_argument("--lmax", type=int, default=800)
    ap.add_argument("--energies", default="3.0,4.0,5.0")
    args = ap.parse_args()

    if args.model == "constant":
        spec = PotentialSpec.constant(args.lam)
    else:
        spec = PotentialSpec.sturmian(GOLDEN_MEAN, args.lam)
    lengths = range(args.lmax // 4, args.lmax + 1, args.lmax // 8)

    print(f"{'E':>7}  {'slope':>10}  {'lyapunov':>10}")
    for text in args.energies.split(","):
        E = float(text)
        prof = resistance_profile(spec, E, lengths)
        slope = np.polyfit(2 * prof.lengths, prof.log10_resistance * math.log(10.0), 1)[0]
        gamma = lyapunov_estimate(spec, E, 10_000)
        print(f"{E:>7.3f}  {slope:>10.6f}  {gamma:>10.6f}")


if __name__ == "__main__":
    main()
