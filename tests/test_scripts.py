"""Smoke runs of the scripts in scripts/ at tiny sizes, in this process."""

import pathlib
import runpy
import sys

import pytest

from quasispec.cli import main

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", [name, *args])
    runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return capsys.readouterr().out.splitlines()


def test_resistance_growth(monkeypatch, capsys):
    lines = run_script("resistance_growth.py", ["--lmax", "80"], monkeypatch, capsys)
    assert lines[0].split() == ["E", "slope", "lyapunov"]
    rows = [[float(x) for x in line.split()] for line in lines[1:]]
    assert [row[0] for row in rows] == [3.0, 4.0, 5.0]
    # Away from the band edge at E = 3 the growth rate is the Lyapunov exponent.
    for _, slope, gamma in rows[1:]:
        assert slope == pytest.approx(gamma, rel=1e-3)


def test_bandwidth_shrinkage(monkeypatch, capsys):
    lines = run_script("bandwidth_shrinkage.py", ["--qmax", "13"], monkeypatch, capsys)
    rows = [line.split() for line in lines[1:]]
    assert [int(row[0]) for row in rows] == [2, 3, 5, 8, 13]
    fixed = [float(row[1]) for row in rows]
    assert all(a > b for a, b in zip(fixed, fixed[1:]))


def test_lane_sweep(monkeypatch, capsys):
    args = ["--lanes", "512,1024", "--widths", "3,4097", "--scale", "0.02", "--repeats", "1"]
    lines = run_script("lane_sweep.py", args, monkeypatch, capsys)
    assert lines[0].split() == ["lanes", "almost-mathieu", "ms", "golden", "ms"]
    rows = [line.split() for line in lines[1:3]]
    assert [int(row[0]) for row in rows] == [512, 1024]
    assert all(float(x) > 0.0 for row in rows for x in row[1:])
    assert lines[3].split() == ["M", "almost-mathieu", "narrow", "us", "wide", "us", "rel",
                                "golden", "narrow", "us", "wide", "us", "rel", "pick"]
    rows = [line.split() for line in lines[4:6]]
    assert [int(row[0]) for row in rows] == [3, 4097]
    # Above _LANES energies there is no narrow path.
    assert rows[1][1] == "-" and rows[1][-1] == "wide"
    assert lines[6].startswith("crossover")


def test_few_lane_sweep(monkeypatch, capsys):
    args = ["--sites", "21,300", "--energies", "1,2", "--block-sites", "600",
            "--block-energies", "1,3", "--join-energies", "1,8", "--join-segments", "1,5",
            "--repeats", "1"]
    lines = run_script("few_lane_sweep.py", args, monkeypatch, capsys)
    assert lines[0].split() == ["marks", "M", "sites", "lanes", "ms", "floats", "ms", "pick"]
    rows = [line.split() for line in lines[1:9]]
    assert [(row[0], int(row[1]), int(row[2])) for row in rows] == [
        (marks, M, n) for marks in ("none", "all") for M in (1, 2) for n in (21, 300)]
    assert all(float(x) > 0.0 for row in rows for x in row[3:5])
    assert all(row[5] in ("floats", "lanes") for row in rows)
    assert lines[9].startswith("crossover")
    assert [line.split()[:2] for line in lines[10:14]] == [
        [marks, M] for marks in ("none", "all") for M in ("1", "2")]
    # The blocks table, its product columns timed again in a child process.
    assert lines[14].split() == ["M", "block", "bcast", "ms", "prod", "ms", "1-thr", "ms",
                                 "count", "bcast", "count", "prod", "1-thr", "pick"]
    rows = [line.split() for line in lines[15:17]]
    assert [(row[0], row[1]) for row in rows] == [("1", "256x3x1"), ("3", "256x3x3")]
    assert all(float(x) > 0.0 for row in rows for x in row[2:8])
    assert [row[8] for row in rows] == ["broadcast", "product"]
    assert [line.split()[1] for line in lines[17:20]] == ["product_grid", "count_below",
                                                          "products"]
    assert lines[19].endswith("[3]")
    assert lines[20].split() == ["M", "joins", "lane", "ms", "float", "ms", "pick"]
    rows = [line.split() for line in lines[21:]]
    assert [(int(row[0]), int(row[1])) for row in rows] == [(1, 1), (1, 5), (8, 1), (8, 5)]
    assert all(float(x) > 0.0 for row in rows for x in row[2:4])
    assert [row[4] for row in rows] == ["floats", "floats", "lanes", "lanes"]


def test_bisection_sweep(monkeypatch, capsys):
    args = ["--budgets", "1,1024", "--scale", "0.05", "--repeats", "1"]
    lines = run_script("bisection_sweep.py", args, monkeypatch, capsys)
    names = ["am-q89", "am-q144", "random-300", "golden-q377", "golden16-q377",
             "thue-morse-10", "butterfly-10"]
    assert lines[0].split() == ["budget"] + [x for name in names for x in (name, "ms")]
    rows = [line.split() for line in lines[1:3]]
    assert [int(row[0]) for row in rows] == [1, 1024]
    assert all(float(x) > 0.0 for row in rows for x in row[1:])
    assert lines[3].split() == ["case", "calls", "energies"]
    rows = [line.split() for line in lines[4:]]
    assert [row[0] for row in rows] == names
    assert all(int(row[1]) > 0 and int(row[2]) >= int(row[1]) for row in rows)


def test_rescale_census(monkeypatch, capsys):
    args = ["--energies", "24", "--scale", "0.01", "--repeats", "1"]
    lines = run_script("rescale_census.py", args, monkeypatch, capsys)
    assert lines[0].split() == ["window", "sites", "rule", "rescales", "max", "shift",
                                "rescale", "ms", "call", "ms"]
    rows = [line.split() for line in lines[1:]]
    assert [row[0] for row in rows] == ["fibonacci"] * 4 + ["thue-morse", "thue-morse",
                                                           "golden-0.3", "golden-0.3"]
    assert [row[2] for row in rows] == ["default", "eager"] * 4
    # The eager rule rescales after every product, so at least as often.
    for default, eager in zip(rows[::2], rows[1::2]):
        assert int(default[1]) == int(eager[1]) >= 2
        assert 1 <= int(default[3]) <= int(eager[3])


def test_cli_cold_start(monkeypatch, capsys):
    args = ["--commands", "tracemap,cantor", "--repeats", "2"]
    lines = run_script("cli_cold_start.py", args, monkeypatch, capsys)
    assert lines[0].split() == ["command", "start", "numpy", "quasispec", "run", "teardown",
                                "total", "ms"]
    rows = [line.split() for line in lines[1:]]
    assert [row[0] for row in rows] == ["tracemap", "cantor"]
    for row in rows:
        parts = [float(x) for x in row[1:]]
        assert parts[0] > 0.0 and parts[-1] == pytest.approx(sum(parts[:-1]), abs=0.2)


@pytest.mark.skipif(not pathlib.Path("/proc/self/status").exists(), reason="no /proc")
def test_cli_big_output(monkeypatch, capsys):
    lines = run_script("cli_big_output.py", ["--lengths", "1000", "--repeats", "1"],
                       monkeypatch, capsys)
    assert lines[0].split() == ["kind", "bytes", "wall_s", "vmhwm_mb"]
    rows = [line.split() for line in lines[1:]]
    assert [row[0] for row in rows] == ["csv", "json", "library"]
    # Each child prints what ``main`` prints here; the bare library call nothing.
    for row in rows[:2]:
        argv = ["resistance", "--model", "fibonacci", "--lambda", "1", "--energy", "0",
                "--lengths", "1:1000", "--format", row[0]]
        assert main(argv) == 0
        assert int(row[1]) == len(capsys.readouterr().out.encode())
    assert rows[2][1] == "0"
    assert all(float(x) > 0.0 for row in rows for x in row[2:])
