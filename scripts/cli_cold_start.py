"""Split the wall time of a fresh ``quasispec`` process into its parts.

For each README command (its ``--out`` dropped, so the data goes to stdout)
prints the median over ``--repeats`` fresh processes of: interpreter start
(an empty ``-c`` program), the numpy import, the import of the quasispec modules that
command loads, the run, and the interpreter teardown that the process entry
skips. Each part is the difference of two kinds of process, each ended with
``os._exit`` unless it is the last: start, then ``import numpy``, then numpy
and the command's modules, then the command under ``cli.process_main``, then
the command under a ``sys.exit(main())`` wrapper, which tears the interpreter
down. Every kind runs once per repeat, in turn, so a drift of the host's
speed reaches all parts alike. The script exits 1 if a command prints other
bytes or exits with another code under the two wrappers.
"""

import argparse
import os
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

import quasispec

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = str(Path(quasispec.__file__).resolve().parents[1])
ENV = {**os.environ,
       "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
FAST = "from quasispec.cli import process_main; process_main()"
SLOW = "import sys; from quasispec.cli import main; sys.exit(main())"
PROBE = """
import contextlib, io, sys
from quasispec.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main()
print(" ".join(sorted(m for m in sys.modules if m.startswith("quasispec."))))
"""


def readme_commands():
    """The README's CLI examples as argv lists, their ``--out`` dropped."""
    block = README.read_text().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line)
        if "--out" in argv:
            i = argv.index("--out")
            del argv[i:i + 2]
        if argv[:1] == ["quasispec"]:
            commands.append(argv[1:])
    return commands


def timed(code, argv=()):
    """Wall seconds, exit code and stdout of ``python -c code argv``."""
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=ENV, capture_output=True)
    return time.perf_counter() - t, proc.returncode, proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--commands", help="comma-separated subcommands (default: every README one)")
    ap.add_argument("--repeats", type=int, default=11)
    args = ap.parse_args()

    commands = readme_commands()
    if args.commands:
        chosen = args.commands.split(",")
        commands = [argv for argv in commands if argv[0] in chosen]
    imports = {}
    for argv in commands:
        modules = timed(PROBE, argv)[2].decode().split()
        imports[argv[0]] = f"import numpy, os, {', '.join(modules)}; os._exit(0)"

    samples = {key: [] for key in ("pass", "numpy")}
    samples.update({(argv[0], kind): [] for argv in commands for kind in ("import", FAST, SLOW)})
    outputs = {}
    for i in range(args.repeats):
        samples["pass"].append(timed("import os; os._exit(0)")[0])
        samples["numpy"].append(timed("import numpy, os; os._exit(0)")[0])
        for argv in commands:
            samples[argv[0], "import"].append(timed(imports[argv[0]])[0])
            for wrapper in (FAST, SLOW) if i % 2 else (SLOW, FAST):
                seconds, code, out = timed(wrapper, argv)
                samples[argv[0], wrapper].append(seconds)
                outputs.setdefault(argv[0], {}).setdefault(wrapper, set()).add((code, out))

    ms = {key: 1e3 * statistics.median(values) for key, values in samples.items()}
    print(f"{'command':>10}  {'start':>6}  {'numpy':>6}  {'quasispec':>9}  {'run':>7}"
          f"  {'teardown':>8}  {'total ms':>8}")
    for argv in commands:
        name = argv[0]
        start, numpy, imported = ms["pass"], ms["numpy"], ms[name, "import"]
        fast, slow = ms[name, FAST], ms[name, SLOW]
        print(f"{name:>10}  {start:>6.1f}  {numpy - start:>6.1f}  {imported - numpy:>9.1f}"
              f"  {fast - imported:>7.1f}  {slow - fast:>8.1f}  {slow:>8.1f}")
    differ = [name for name, seen in outputs.items() if len(seen[FAST] | seen[SLOW]) != 1]
    if differ:
        raise SystemExit("the two wrappers printed other bytes or codes for " + ", ".join(differ))


if __name__ == "__main__":
    main()
