"""Contract fuzz of the command line.

Subcommands and flags are drawn from the one option table, ``RunConfig``,
with in-range, boundary and hostile values, and each run goes in-process
under a time limit. Whatever the values, a run exits 0, 2 or 3; on 2 or 3
it prints one line on stderr and on 0 nothing there, and it raises no
warning; and with ``--format json`` a successful run prints strict JSON.
"""

import json
import random
import signal
import warnings
from dataclasses import fields

import pytest

from quasispec.cli import COMMANDS, RunConfig, main

RUNS = 400
SECONDS_PER_RUN = 5

# Values by field type: in range, at a boundary, and hostile (malformed,
# non-finite, out of every budget).
INTS = ["1", "2", "3", "5", "8", "13", "0", "-1", "-7", "4194305", "10" * 12,
        "1.5", "abc", "", "0x10", " 4"]
FLOATS = ["0", "0.5", "-1.5", "2", "3.7", "1e-300", "-1e300", "1e308", "-1e308", "-1e-3",
          "-2.5e-1", "1e400", "nan", "inf", "abc", "", "2,3"]
FREE_FORM = {
    "alpha": ["golden", "0.3", "0.618", "0.25", "0", "1", "1.5", "nan", "abc", ""],
    "values": ["0,8,0", "1,2,3", "1", "-2.5,0.5", "", "1,,2", "nan", "1e308,-1e308", "x"],
    "letter_values": ["a=1,b=0", "a=2,b=-1", "a=1", "x=2", "a=nan,b=0", "==", ""],
    "lengths": ["1:10", "1,5,9", "5:50:5", "10:1", "1:10:0", "a:b", "1:4194305", "-5:5",
                "3", ""],
}
RULE_FILES = {
    "fibonacci.json": '{"alphabet": ["a", "b"], "images": {"a": "ab", "b": "a"}, '
                      '"letter_values": {"a": 1, "b": 0}}',
    "one-letter.json": '{"alphabet": ["a"], "images": {"a": "a"}, "letter_values": {"a": 1}}',
    "malformed.json": '{"alphabet": ',
}


def _values(field, tmp):
    """The values drawn for one option."""
    if "choices" in field.metadata:
        return [*field.metadata["choices"], "bogus", ""]
    if field.name in FREE_FORM:
        return FREE_FORM[field.name]
    if field.name == "rule_file":
        return [str(tmp / name) for name in RULE_FILES] + [str(tmp / "missing.json")]
    if field.name == "out":
        return [str(tmp / "out.txt"), str(tmp / "missing" / "out.txt"), str(tmp)]
    return INTS if field.type.startswith("int") else FLOATS


def _argv(rng, options, tmp):
    command = rng.choice([*COMMANDS] * 10 + ["bogus"])
    argv = [command]
    for field in rng.sample(options, rng.randint(0, 5)):
        flag = field.metadata.get("flag", "--" + field.name.replace("_", "-"))
        if field.type == "bool":
            argv.append(flag)
        elif rng.random() < 0.02:  # a flag without its value
            argv.append(flag)
        else:
            argv += [flag, rng.choice(_values(field, tmp))]
    if rng.random() < 0.05:  # a range whose span overflows a float
        lo, hi = rng.choice([("--emin", "--emax"), ("--xmin", "--xmax")])
        argv += [lo, "-1e308", hi, "1e308"]
    if rng.random() < 0.05:
        argv += ["--config", str(tmp / rng.choice(["config.txt", "missing.txt"]))]
    return argv


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def test_cli_contract(tmp_path, capsys):
    for name, text in RULE_FILES.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "config.txt").write_text("model = fibonacci\nlam = 2\nsize = 30\n")
    options = [f for f in fields(RunConfig) if f.name != "command"]
    rng = random.Random(20240611)
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        for _ in range(RUNS):
            argv = _argv(rng, options, tmp_path)
            signal.alarm(SECONDS_PER_RUN)
            try:
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    code = main(argv)
            except _Timeout:
                pytest.fail(f"over {SECONDS_PER_RUN} s: {argv}")
            except (Exception, SystemExit) as exc:  # any escape breaks the contract
                pytest.fail(f"{type(exc).__name__} {exc}: {argv}")
            finally:
                signal.alarm(0)
            out, err = capsys.readouterr()
            assert code in (0, 2, 3), argv
            # A warning would print on stderr outside this test's capture.
            assert not caught, (argv, [str(w.message) for w in caught])
            if code:
                assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
                continue
            assert err == "", (argv, err)
            if "--format" in argv and argv[argv.index("--format") + 1] == "json" \
                    and "--dump-config" not in argv and "--out" not in argv:
                json.loads(out, parse_constant=lambda c: pytest.fail(f"{c} in {argv}"))
    finally:
        signal.signal(signal.SIGALRM, previous)
