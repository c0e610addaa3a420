"""Time the CLI's largest output and its memory peak: a long resistance profile.

Runs ``quasispec resistance --model fibonacci --lambda 1 --energy 0 --lengths
1:N`` (N = ``--lengths``) as fresh processes, in CSV and in JSON, and prints
for each format the output bytes, the median wall time over ``--repeats``
runs and the largest peak resident set of the child in MB: VmHWM, read from
``/proc/self/status`` inside the child just before it exits, since a forked
child's ``ru_maxrss`` starts from its parent's. The ``library`` row is the
bare ``resistance_profile`` call of the same command in a fresh process,
with no output, so the two formats can be read against it. The kinds run in
turn once per repeat, so a drift of the host's speed reaches them alike.
Linux only (``/proc``); exits 1 if a child fails.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import quasispec

SRC = str(Path(quasispec.__file__).resolve().parents[1])
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
COMMAND = ["resistance", "--model", "fibonacci", "--lambda", "1", "--energy", "0"]
PEAK = """
def peak_kb():
    with open("/proc/self/status") as fh:
        return next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
"""
# Each child prints its VmHWM in kB as its last stderr line.
CLI = PEAK + """
import os, sys
from quasispec.cli import main
code = main()
print(peak_kb(), file=sys.stderr)
os._exit(code)
"""
LIBRARY = PEAK + """
import os, sys
import numpy as np
from quasispec.cli import build_spec, parse_config
from quasispec.scattering import resistance_profile
cfg = parse_config(sys.argv[1:-1])
resistance_profile(build_spec(cfg), cfg.energy, np.arange(1, int(sys.argv[-1]) + 1), "at-energy")
print(peak_kb(), file=sys.stderr)
os._exit(0)
"""


def timed(code, argv):
    """Wall seconds, stdout bytes and VmHWM (MB) of ``python -c code argv``."""
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=ENV, capture_output=True)
    seconds = time.perf_counter() - t
    if proc.returncode:
        raise SystemExit(f"child exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
    return seconds, len(proc.stdout), int(proc.stderr.split()[-1]) / 1024


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--lengths", type=int, default=1_000_000, help="the largest length N")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    kinds = {fmt: (CLI, [*COMMAND, "--lengths", f"1:{args.lengths}", "--format", fmt])
             for fmt in ("csv", "json")}
    kinds["library"] = (LIBRARY, [*COMMAND, str(args.lengths)])
    samples = {kind: [] for kind in kinds}
    for _ in range(args.repeats):
        for kind, (code, argv) in kinds.items():
            samples[kind].append(timed(code, argv))

    print(f"{'kind':>8}  {'bytes':>10}  {'wall_s':>7}  {'vmhwm_mb':>8}")
    for kind, runs in samples.items():
        seconds, size, peak = zip(*runs)
        print(f"{kind:>8}  {max(size):>10}  {statistics.median(seconds):>7.3f}"
              f"  {max(peak):>8.1f}")


if __name__ == "__main__":
    main()
