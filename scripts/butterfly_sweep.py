"""Sweep the cosine-chain band structure over all rational fluxes p/q.

Writes one CSV row per band, suitable for scatter-plotting band intervals
against p/q (the classic butterfly picture).

    python scripts/butterfly_sweep.py --qmax 30 --lambda 2 --out butterfly.csv
"""

import argparse

from quasispec import butterfly


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--qmax", type=int, default=25)
    ap.add_argument("--lambda", type=float, dest="lam", default=2.0)
    ap.add_argument("--omega", type=float, default=0.0)
    ap.add_argument("--out", default="butterfly.csv")
    args = ap.parse_args()

    rows = butterfly(args.lam, args.qmax, args.omega)
    n_bands = 0
    with open(args.out, "w") as fh:
        fh.write("flux,band_lo,band_hi\n")
        for p, q, bs in rows:
            for lo, hi in bs.bands:
                fh.write(f"{p / q:.12g},{lo:.12g},{hi:.12g}\n")
                n_bands += 1
    print(f"{len(rows)} flux values, {n_bands} bands -> {args.out}")


if __name__ == "__main__":
    main()
