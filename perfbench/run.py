"""Run one workload of the quasispec benchmark and print its metrics.

    python3 perfbench/run.py --workload floquet --seed 1 --seconds 30 --trace 0

Run it from the root of a source tree of quasispec (it imports ``src/``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable summary
goes to standard error, and ``--record DIR`` also keeps the whole result,
raw seconds included, as a file for ``compare.py``.

Set-up time is measured in fresh processes: the launcher starts the measuring
process (worker.py) and takes the time from its start to the first timed job.
It does so in ``SETUP_PROBES`` extra processes that stop there, and reports
the median of all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 6
DEADLINE_S = 170.0


def start_worker(args, extra, deadline: float) -> dict:
    """Run worker.py to its end and return its last output line as JSON."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.perf_counter()
    proc = subprocess.Popen([*cmd, "--t0", repr(t0)], cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError("the measuring process ran out of time")
    if proc.returncode != 0:
        raise RuntimeError(f"the measuring process failed:\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def summary(workload: str, result: dict) -> str:
    d = result["detail"]
    lines = [f"{workload}: correct={result['correct']} attempted={result['attempted']} "
             f"failed={result['failed']} rounds={d['rounds']}+{d['traced_rounds']} traced"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:26s} {m['value']:.6g} {m['unit']}")
    lines.append(f"  raw: batch {d['batch_s']:.4g} s, job p50 {d['job_p50_s']:.4g} s, "
                 f"ref kernel {d['ref_kernel_s'] * 1e3:.4g} ms, "
                 f"fixed-point share {d['fixed_point_share']:.3f}")
    for name, j in d["per_job"].items():
        lines.append(f"  job {name:34s} {j['ref']:10.4g} ref {j['seconds']:9.4g} s")
    lines += [f"  PROBLEM {p}" for p in d["problems"]]
    lines += [f"  ERROR {e}" for e in d["errors"]]
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("floquet", "transport", "cli"), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes and one round: a check that everything runs")
    ap.add_argument("--record", metavar="DIR", help="also write the full result here")
    args = ap.parse_args(argv)
    if args.smoke:
        args.seconds = 0
    if not os.path.isfile(os.path.join(ROOT, "src", "quasispec", "__init__.py")):
        print(f"error: no quasispec sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [start_worker(args, ["--setup-only"], deadline)["setup_s"]
                  for _ in range(0 if args.smoke else SETUP_PROBES)]
        result = start_worker(args, [], deadline)
    except (RuntimeError, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result.pop("setup_s"))
    result["detail"]["setup_samples_s"] = setups
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": stats.median(setups), "unit": "s"}
    print(summary(args.workload, result), file=sys.stderr)
    if args.record:
        os.makedirs(args.record, exist_ok=True)
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
        with open(os.path.join(args.record, name), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                       "seconds": args.seconds, **result}, fh, indent=1)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
