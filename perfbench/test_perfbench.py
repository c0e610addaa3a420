"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import os
import statistics
import subprocess
import sys
import types

import numpy as np
import pytest

import compare
import oracles
import stats
import worker
import workloads
from spans import Tracer, _covered

HERE = os.path.dirname(os.path.abspath(__file__))


def test_median_and_quartiles_match_statistics():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
    q1, q2, q3 = stats.quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert stats.median(values) == statistics.median(values) == q2
    assert stats.iqr_share(values) == pytest.approx((q3 - q1) / q2)
    assert stats.quartiles([2.0]) == (2.0, 2.0, 2.0)


def test_normalize_divides_by_the_mean_reference_time():
    assert stats.normalize(3.0, 0.5, 1.5) == pytest.approx(3.0)
    # The same job on a host running at half speed reads the same in ref units.
    assert stats.normalize(6.0, 1.0, 3.0) == stats.normalize(3.0, 0.5, 1.5)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _fake_layers(clock):
    """Two layer modules where ``outer.work`` calls ``inner.step``, imported by
    name as the library modules do."""
    inner = types.ModuleType("fake.inner")

    def step(x):
        clock.now += 2.0
        return x + 1

    step.__module__ = inner.__name__
    inner.step = step
    outer = types.ModuleType("fake.outer")

    def work(n):
        clock.now += 1.0
        total = sum(outer.step(i) for i in range(n))
        clock.now += 0.5
        return total

    work.__module__ = outer.__name__
    outer.work = work
    outer.step = step  # "from .inner import step"
    package = types.ModuleType("fake")
    package.work = work
    return package, {"outer": outer, "inner": inner}


def test_self_time_under_nested_spans():
    clock = FakeClock()
    package, mods = _fake_layers(clock)
    tracer = Tracer(clock=clock)
    tracer.install(package, mods)
    try:
        assert mods["outer"].work(3) == 6
    finally:
        tracer.uninstall()
    seconds = tracer.self_seconds()
    assert seconds["outer"] == pytest.approx(1.5)   # 7.5 total minus 3 x 2.0 in inner
    assert seconds["inner"] == pytest.approx(6.0)
    assert tracer.counts["outer.calls.step"] == 3
    # uninstall restores every binding
    assert mods["outer"].step is mods["inner"].step
    assert not hasattr(mods["outer"].work, "__wrapped__")


def test_covered_merges_overlapping_children():
    assert _covered([(1, 3), (2, 4), (6, 7)], 0, 10) == 4
    assert _covered([(1, 3), (2, 12)], 0, 10) == 9
    assert _covered([], 0, 10) == 0


def _job(name, run, failed=lambda out: False):
    return workloads.Job(name, run, lambda out: None, failed)


def test_failures_are_counted_per_whole_round():
    def boom():
        raise ValueError("bad input")

    jobs = [_job("ok", lambda: 1), _job("raises", boom),
            _job("bad-exit", lambda: 2, failed=lambda out: out == 2)]
    plain, traced = worker.measure(jobs, 0.0, None, None)
    assert traced == [] and len(plain) == 1
    assert [r["failed"] for r in plain[0]] == [False, True, True]
    assert "ValueError: bad input" in plain[0][1]["error"]
    assert all(r["ref"] > 0 for r in plain[0])


def test_check_outputs_reports_wrong_and_unstable_outputs():
    def wrong(out):
        raise oracles.CheckError("off by one")

    jobs = [workloads.Job("a", lambda: 1, wrong), workloads.Job("b", lambda: 1, lambda o: None)]
    rounds = [[{"job": "a", "out": 1, "failed": False}, {"job": "b", "out": 1, "failed": False}],
              [{"job": "a", "out": 1, "failed": False}, {"job": "b", "out": 2, "failed": False}]]
    problems = worker.check_outputs(jobs, rounds)
    assert problems == ["a: off by one", "b: output differs between rounds"]


def test_strict_json_rejects_nan_and_infinity():
    assert oracles.strict_json('{"bands": [[1.5, 2.0]]}') == {"bands": [[1.5, 2.0]]}
    for text in ('{"bands": [[NaN, NaN]]}', "[Infinity]", "[-Infinity]"):
        with pytest.raises(oracles.CheckError):
            oracles.strict_json(text)


def test_band_check_catches_a_moved_edge():
    values = np.array([1.0, -0.5, 0.25])
    eigs = np.concatenate([np.linalg.eigvalsh(oracles.wraparound_matrix(values, c))
                           for c in (1.0, -1.0)])
    edges = np.sort(eigs)
    bands = [(edges[2 * i], edges[2 * i + 1]) for i in range(3)]
    oracles.check_floquet_bands(bands, values, 1e-9, "exact")
    moved = [bands[0], (bands[1][0] + 1e-6, bands[1][1]), bands[2]]
    with pytest.raises(oracles.CheckError):
        oracles.check_floquet_bands(moved, values, 1e-9, "moved")


def test_cantor_oracle():
    assert oracles.cantor_function(0.25) == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert oracles.cantor_function(0.5) == 0.5
    assert oracles.cantor_function(2.0 / 3.0) == 0.5
    lib = workloads.load_library(os.path.join(os.path.dirname(HERE), "src"))
    for x in np.random.default_rng(5).uniform(0.0, 1.0, 50):
        assert oracles.cantor_function(float(x)) == pytest.approx(
            lib.cantor.cantor_alpha(float(x)), abs=1e-14)


def test_verdicts():
    base = [10.0, 10.1, 9.9, 10.05, 9.95, 10.0, 10.02, 9.98, 10.01, 9.99]
    faster = [x * 0.8 for x in base]
    assert compare.verdict(base, faster, 10, 10, "lower", 0.1) == "improved"
    assert compare.verdict(base, base, 0, 10, "lower", 0.1) == "no worse"
    assert compare.verdict(base, [x * 1.3 for x in base], 0, 10, "lower", 0.1) == "worse"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, noisy, 3, 10, "lower", 0.1) == "unresolved"


@pytest.mark.parametrize("workload,failed", [("floquet", 0), ("transport", 0), ("cli", 2)])
def test_smoke_run(workload, failed, tmp_path):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--smoke", "--record", str(tmp_path)]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], r.stderr
    assert result["failed"] == failed
    assert set(result["metrics"]) == {"batch_ref", "job_p50_ref", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 and math.isfinite(m["value"]) for m in result["metrics"].values())
    assert len(os.listdir(tmp_path)) == 1
