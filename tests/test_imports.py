"""What a command-line process imports, and the lazy package namespace.

Each case runs ``cli.main`` in a fresh interpreter and reads ``sys.modules``
afterwards: bad input and ``--dump-config`` end before numpy loads, and a
subcommand imports only the library modules it calls.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import quasispec

SRC = str(Path(quasispec.__file__).resolve().parents[1])
NUMERIC = {"potentials", "transfer", "ids", "bands", "scattering", "tracemap", "cantor",
           "numutil"}

PROBE = """
import contextlib, io, json, sys
from quasispec.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(sys.modules)]))
"""


def _run(argv):
    """Exit code of ``main(argv)`` in a fresh interpreter, and the modules loaded."""
    proc = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)], cwd=SRC,
                          capture_output=True, text=True, timeout=120, check=True)
    code, modules = json.loads(proc.stdout)
    return code, set(modules)


@pytest.mark.parametrize("argv, code, absent", [
    (["resistance", "--lengths", "10:1"], 2, {"numpy", *NUMERIC}),
    (["spectrum", "--model", "explicit", "--values", "1,nan", "--format", "json"], 2,
     {"numpy", *NUMERIC}),
    (["resistance", "--model", "thue-morse", "--lengths", "1:20", "--dump-config"], 0,
     {"numpy", *NUMERIC}),
    (["lyapunov", "--model", "fibonacci", "--n", "50", "--grid", "5"], 0,
     {"bands", "ids", "cantor", "scattering", "tracemap"}),
    (["cantor", "--what", "function", "--grid", "5"], 0, {"bands", "ids", "scattering"}),
    # bounded_spectrum alone needs BandSet, so an orbit loads neither bands nor ids.
    (["tracemap", "--model", "fibonacci", "--lambda", "2", "--energy", "0.3", "--steps", "5"],
     0, {"bands", "ids", "cantor", "scattering"}),
    # Only the rational re-evaluation of an approximant needs fractions (and decimal).
    (["lyapunov", "--model", "almost-mathieu", "--lambda", "2", "--n", "50", "--grid", "5"], 0,
     {"fractions", "decimal"}),
])
def test_subcommand_imports_only_its_modules(argv, code, absent):
    got, modules = _run(argv)
    assert got == code
    loaded = {m.removeprefix("quasispec.") for m in modules if m.startswith("quasispec.")}
    assert not absent & (loaded | ({"numpy", "fractions", "decimal"} & modules))


def test_shifted_phase_imports_nothing_more():
    # The golden-mean Sturmian at omega != 0 takes the lifted path with the
    # modules that omega = 0 loads.
    argv = ["lyapunov", "--model", "fibonacci", "--n", "50", "--grid", "5"]
    code, shifted = _run(argv + ["--omega", "0.3"])
    assert code == 0
    assert shifted <= _run(argv)[1]


def test_lazy_namespace_matches_the_modules():
    assert len(quasispec.__all__) == 60
    for name in quasispec.__all__:
        module = importlib.import_module(f"quasispec.{quasispec._MODULE_OF[name]}")
        assert getattr(quasispec, name) is getattr(module, name), name
        assert name in dir(quasispec), name
    with pytest.raises(AttributeError):
        quasispec.no_such_name


def test_package_attribute_imports_a_module():
    code = "import quasispec; print(quasispec.transfer.__name__, quasispec.lyapunov_grid.__module__)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=SRC, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.split() == ["quasispec.transfer", "quasispec.transfer"]
