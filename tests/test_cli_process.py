"""The CLI as a process: ``python -m quasispec.cli`` against ``main`` in this one.

The process entry ends with ``os._exit`` once it has flushed its streams, so
these cases run real child interpreters, with ``PYTHONUNBUFFERED`` dropped so
that stdout is block-buffered as in a shell pipe. A child must print the
bytes, exit code and number of stderr lines that ``main`` gives here,
whole past a pipe buffer, and turn a full stdout into exit 3 with one line,
``--help`` included.
"""

import ast
import io
import os
import shlex
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import quasispec
from quasispec import cli

SRC = Path(quasispec.__file__).resolve().parents[1]
PYPROJECT = SRC.parent / "pyproject.toml"
ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
ENV["COLUMNS"] = "80"  # the width argparse wraps the help text to
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")


def child(argv, cwd, **streams):
    """Exit code, stdout and stderr bytes of ``python -m quasispec.cli argv``."""
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
    proc = subprocess.run([sys.executable, "-m", "quasispec.cli", *argv], cwd=cwd, env=ENV,
                          timeout=120, **streams)
    return proc.returncode, proc.stdout, proc.stderr


def in_process(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out.encode(), out.err.encode()


@pytest.mark.parametrize("command, want", [
    ("cantor --what function --grid 40", 0),
    ("butterfly --lambda 1.3 --qmax 12 --omega 0.21 --format json", 0),
    ("spectrum --model fibonacci --lambda 2 --approx-q 89 --format json --out s.json", 0),
    ("resistance --model thue-morse --lambda 1 --lengths 1:20 --dump-config", 0),
    ("resistance --lengths 10:1", 2),
    ("resistance --model fibonacci --lengths 1:10 --out no/such/dir/r.csv", 3),
])
def test_a_process_prints_what_main_returns(command, want, tmp_path, monkeypatch, capsys):
    argv = shlex.split(command)
    (tmp_path / "child").mkdir()
    (tmp_path / "here").mkdir()
    monkeypatch.chdir(tmp_path / "here")
    code, out, err = in_process(argv, capsys)
    got_code, got_out, got_err = child(argv, tmp_path / "child")
    assert (got_code, got_out) == (code, out)
    assert len(got_err.splitlines()) == len(err.splitlines()) == (code != 0)
    assert code == want
    if "--out" in argv and code == 0:
        name = argv[argv.index("--out") + 1]
        assert (tmp_path / "child" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()


def test_output_past_a_pipe_buffer_arrives_whole(tmp_path, capsys):
    argv = ["resistance", "--model", "fibonacci", "--lengths", "1:100000"]
    code, out, _ = in_process(argv, capsys)
    assert code == 0 and len(out) > 1_000_000
    assert child(argv, tmp_path) == (0, out, b"")


@pytest.mark.parametrize("command", ["--help", "spectrum --help"])
def test_help_exits_0_with_the_text_main_prints(command, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", ENV["COLUMNS"])
    with pytest.raises(SystemExit) as exc:
        cli.main(shlex.split(command))
    out = capsys.readouterr().out.encode()
    assert exc.value.code == 0 and out.startswith(b"usage: quasispec")
    assert child(shlex.split(command), tmp_path) == (0, out, b"")


@needs_dev_full
@pytest.mark.parametrize("command", [
    "cantor --what function --grid 40",
    "cantor --what function --grid 40 --dump-config",
    "--help",
    "spectrum --help",
])
def test_a_full_stdout_exits_3_with_one_line(command, tmp_path):
    with open("/dev/full", "wb") as full:
        code, _, err = child(shlex.split(command), tmp_path, stdout=full)
    assert code == 3
    assert len(err.splitlines()) == 1 and err.startswith(b"i/o error: ")


@needs_dev_full
@pytest.mark.parametrize("command, want", [
    ("resistance --lengths 10:1", 2),
    ("resistance --model fibonacci --lengths 1:10 --out no/such/dir/r.csv", 3),
])
def test_a_full_stderr_keeps_the_exit_code(command, want, tmp_path):
    with open("/dev/full", "wb") as full:
        code, out, _ = child(shlex.split(command), tmp_path, stderr=full)
    assert (code, out) == (want, b"")


class Stream(io.StringIO):
    flushes = 0

    def flush(self):
        self.flushes += 1


class FullStream(Stream):
    def write(self, *_):
        raise OSError(28, "No space left on device")

    flush = write


@pytest.mark.parametrize("argv, stderr, want", [
    (["cantor", "--what", "function", "--grid", "5"], Stream, 0),
    (["resistance", "--lengths", "10:1"], Stream, 2),
    (["cantor", "--what", "function", "--grid", "5"], None, 0),
    (["cantor", "--what", "function", "--grid", "5"], FullStream, 0),
    (["resistance", "--lengths", "10:1"], FullStream, 2),
])
def test_the_entry_flushes_and_ends_with_main_s_code(argv, stderr, want, monkeypatch):
    # A stream that is None is skipped, and one whose flush fails is passed over.
    class Exited(Exception):
        pass

    def exit_(code):
        raise Exited(code)

    streams = [Stream(), stderr and stderr()]
    monkeypatch.setattr(sys, "argv", ["quasispec", *argv])
    monkeypatch.setattr(os, "_exit", exit_)
    monkeypatch.setattr(sys, "stdout", streams[0])
    monkeypatch.setattr(sys, "stderr", streams[1])
    with pytest.raises(Exited) as exc:
        cli.process_main()
    assert exc.value.args == (want,)
    for stream in streams:
        if type(stream) is Stream:
            assert stream.flushes >= 1


def test_the_script_and_the_module_share_one_entry():
    target = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]["quasispec"]
    module, _, name = target.partition(":")
    assert module == "quasispec.cli" and getattr(cli, name) is cli.process_main
    tree = ast.parse(Path(cli.__file__).read_text())
    block = [node for node in tree.body if isinstance(node, ast.If)
             and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert [ast.unparse(node) for node in block[0].body] == [f"{name}()"]
