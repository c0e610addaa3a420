"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BEFORE_DIR AFTER_DIR

Each directory holds the files that ``run.py --record DIR`` wrote. For every
workload and metric it prints each side's median and quartiles, how many
pairs of runs the second side won (runs are paired in seed order), and, for
end-to-end metrics, a verdict against the bounds in BENCHMARK.json:

- ``improved``: the second side wins at least 9 in 10 pairs, and its median
  is better by more than the first side's quartile distance;
- ``unresolved``: the quartile distance of either side, as a share of its
  median, is wider than the bound, and not every run of the second side is
  better than every run of the first;
- ``worse``: the median is worse by more than the bound;
- ``no worse``: otherwise.

It also prints each side's share of failed operations, which must match.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys

import stats

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(directory: str) -> dict:
    """{(workload, trace): [run, ...]} sorted by seed."""
    runs: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as fh:
            run = json.load(fh)
        runs.setdefault((run["workload"], run["trace"]), []).append(run)
    for group in runs.values():
        group.sort(key=lambda r: r["seed"])
    return runs


def verdict(before: list[float], after: list[float], wins: int, n_pairs: int,
            better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    q1a, ma, q3a = stats.quartiles(before)
    _, mb, _ = stats.quartiles(after)
    gain = sign * (ma - mb)               # > 0 when the second side is better
    worse_by = -gain / abs(ma) if ma else 0.0
    all_better = all(sign * (x - y) > 0 for x in before for y in after)
    if n_pairs and wins >= 0.9 * n_pairs and gain > (q3a - q1a):
        return "improved"
    spread = max(stats.iqr_share(before), stats.iqr_share(after))
    if spread > bound and not all_better:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    return "no worse"


def compare(dir_a: str, dir_b: str, spec: dict) -> list[str]:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    runs_a, runs_b = load_runs(dir_a), load_runs(dir_b)
    lines = []
    for key in sorted(set(runs_a) & set(runs_b)):
        a, b = runs_a[key], runs_b[key]
        workload, trace = key
        share = [sum(r["failed"] for r in side) / sum(r["attempted"] for r in side)
                 for side in (a, b)]
        lines.append(f"{workload} (trace {trace}): {len(a)} vs {len(b)} runs, failed share "
                     f"{share[0]:.6f} vs {share[1]:.6f}"
                     + ("" if share[0] == share[1] else "  FAILED SHARE DIFFERS"))
        lines.append(f"  {'metric':26s} {'q1':>10s} {'median':>10s} {'q3':>10s}   "
                     f"{'q1':>10s} {'median':>10s} {'q3':>10s}  wins  verdict")
        for name in a[0]["metrics"]:
            meta = bounds.get(name) or layer.get(name)
            if meta is None or name not in b[0]["metrics"]:
                continue
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            sign = 1.0 if meta["better"] == "lower" else -1.0
            matched = list(zip(a, b))
            wins = sum(sign * (x["metrics"][name]["value"] - y["metrics"][name]["value"]) > 0
                       for x, y in matched)
            text = (verdict(va, vb, wins, len(matched), meta["better"], meta["bound"])
                    if name in bounds else "-")
            qa, qb = stats.quartiles(va), stats.quartiles(vb)
            lines.append(f"  {name:26s} " + " ".join(f"{x:10.4g}" for x in qa) + "   "
                         + " ".join(f"{x:10.4g}" for x in qb)
                         + f"  {wins:2d}/{len(matched):<2d} {text}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("before")
    ap.add_argument("after")
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args(argv)
    with open(args.benchmark) as fh:
        spec = json.load(fh)
    lines = compare(args.before, args.after, spec)
    if not lines:
        print("error: the two directories share no workload", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
