"""The measuring process of one run; started by run.py, not by hand.

It sets up (imports, inputs, warm-up), reports its set-up time, then runs
whole rounds of the workload's jobs in a closed loop (one job at a time)
until the next round would not fit in ``--seconds``. Each job is timed in
ref units: its wall time divided by the mean of the reference-kernel times
measured right before and right after it. The kernel runs the way the jobs
do: in this process for library calls, in a fresh interpreter for
``quasispec`` processes. After the timed loop it checks
every output of the first round against independent computations, checks
that later rounds returned identical outputs, and prints one JSON line.

With ``--trace 1`` rounds alternate between untraced and traced; the traced
rounds give the per-layer numbers, and the two medians give the tracing
overhead. The cli workload then calls ``cli.main`` in this process.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time

import numpy as np

import oracles
import stats
import workloads
from refkernel import reference_kernel
from spans import LAYERS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

REF_METRICS = ("ids", "bands", "transfer", "scattering", "potentials", "tracemap",
               "cantor", "cli")  # reported as <layer>.ref, or .self_ref for bands and cli
COUNT_METRICS = ("ids.pivot_steps", "ids.bisect_sweeps", "bands.gap_checks",
                 "transfer.site_products", "scattering.site_products", "potentials.sites",
                 "cli.out_bytes")


def timed_ref() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def timed_fresh_ref() -> float:
    """The reference kernel run the way cli jobs run: in a fresh interpreter,
    so that it also pays for start-up and the numpy import. A process start
    follows the host's speed differently from computation; against the
    in-process kernel the cli job times scattered more than in raw seconds."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import refkernel; refkernel.reference_kernel()"],
                   cwd=HERE, check=True, capture_output=True, timeout=60)
    return time.perf_counter() - t0


def run_job(job):
    """(output, failed, error) of one call; an exception is a failed operation."""
    try:
        out = job.run()
    except Exception as exc:
        return None, True, f"{job.name}: {type(exc).__name__}: {exc}"
    return out, job.failed(out), None


def run_round(jobs, tracer=None, ref=timed_ref):
    """Run every job once, timed between reference-kernel runs."""
    records = []
    ref_before = ref()
    for job in jobs:
        if tracer is not None:
            tracer.reset()
        t0 = time.perf_counter()
        out, failed, error = run_job(job)
        seconds = time.perf_counter() - t0
        ref_after = ref()
        rec = {"job": job.name, "seconds": seconds,
               "ref": stats.normalize(seconds, ref_before, ref_after),
               "ref_seconds": 0.5 * (ref_before + ref_after),
               "refs": (ref_before, ref_after),
               "out": out, "failed": failed, "error": error}
        if tracer is not None:
            rec["layers"] = tracer.self_seconds()
            rec["counts"] = dict(tracer.counts)
        records.append(rec)
        ref_before = ref_after
    return records


def measure(jobs, seconds: float, tracer: Tracer | None, install,
            ref=timed_ref) -> tuple[list, list]:
    """Whole rounds until the next one would overrun ``seconds``. Returns the
    untraced rounds and, with a tracer, the traced ones (alternating, at
    least one of each)."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        use_trace = tracer is not None and len(traced) < len(plain)
        if use_trace:
            install(tracer)
            try:
                traced.append(run_round(jobs, tracer, ref))
            finally:
                tracer.uninstall()
        else:
            plain.append(run_round(jobs, ref=ref))
        elapsed = time.perf_counter() - start
        done = len(plain) + len(traced)
        need_traced = tracer is not None and not traced
        if not need_traced and elapsed + elapsed / done > seconds:
            return plain, traced


def check_outputs(jobs, rounds) -> list[str]:
    """Problems found: a failed check on round one, or a later round that
    returned something else than round one."""
    problems = []
    first = rounds[0]
    for job, rec in zip(jobs, first):
        if rec["failed"]:
            continue
        try:
            job.check(rec["out"])
        except oracles.CheckError as exc:
            problems.append(f"{job.name}: {exc}")
        except Exception as exc:  # a malformed output breaks its parser
            problems.append(f"{job.name}: unreadable output ({type(exc).__name__}: {exc})")
    for later in rounds[1:]:
        for a, b in zip(first, later):
            if not a["failed"] and not _same(a["out"], b["out"]):
                problems.append(f"{a['job']}: output differs between rounds")
    return problems


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return isinstance(a, np.ndarray) and isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if hasattr(a, "__dict__") and hasattr(b, "__dict__"):
        return type(a) is type(b) and _same(list(vars(a).values()), list(vars(b).values()))
    return a == b


def batch_ref(rounds) -> float:
    """The normalized time of one round: the sum over its jobs of each job's
    median over the rounds, which a slow moment in one round cannot move."""
    return sum(stats.median(rnd[i]["ref"] for rnd in rounds) for i in range(len(rounds[0])))


def layer_metrics(traced_rounds) -> dict:
    """Per-layer self time in ref units (median over traced rounds) and the
    per-round counts, which must repeat exactly."""
    per_round = []
    for rnd in traced_rounds:
        times = dict.fromkeys(REF_METRICS, 0.0)
        counts = dict.fromkeys(COUNT_METRICS, 0)
        for rec in rnd:
            for layer, sec in rec["layers"].items():
                times[layer] += sec / rec["ref_seconds"]
            for name, n in rec["counts"].items():
                if name == "bands.calls.propagate":
                    name = "bands.gap_checks"
                if name in counts:
                    counts[name] += n
        per_round.append((times, counts))
    counts = per_round[0][1]
    if any(c != counts for _, c in per_round):
        raise RuntimeError("per-layer counts differ between traced rounds")
    out = {}
    for layer in REF_METRICS:
        key = f"{layer}.self_ref" if layer in ("bands", "cli") else f"{layer}.ref"
        out[key] = (stats.median(t[layer] for t, _ in per_round), "ref")
    for name in COUNT_METRICS:
        out[name] = (counts[name], "count")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="perf_counter() of the launcher when it started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    lib = workloads.load_library(SRC)
    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run(args, lib, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))


def _run(args, lib, workdir) -> int:
    traced = bool(args.trace)
    runner = None
    if args.workload == "cli":
        runner = workloads.CliRunner(lib, SRC, workdir, in_process=traced)
    # Warm-up: one small round of the same job kinds (for cli processes, one
    # small process), with the reference kernel around it. Built first,
    # because cli jobs write their config files while they are built.
    warm = workloads.build(args.workload, lib, args.seed, True, runner)
    jobs = workloads.build(args.workload, lib, args.seed, args.smoke, runner)
    fresh = args.workload == "cli" and not traced
    ref = timed_fresh_ref if fresh else timed_ref
    run_round(warm[:1] if fresh else warm, ref=ref)
    setup_s = time.perf_counter() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = Tracer() if traced else None
    if tracer is not None and runner is not None:
        runner.tracer = tracer

    def install(t):
        t.install(lib.package, {layer: getattr(lib, layer) for layer in LAYERS})

    plain, traced_rounds = measure(jobs, args.seconds, tracer, install, ref)
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" and not traced \
        else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0

    all_rounds = plain + traced_rounds
    problems = check_outputs(jobs, all_rounds)
    attempted = sum(len(r) for r in all_rounds)
    failed = sum(rec["failed"] for r in all_rounds for rec in r)
    errors = sorted({rec["error"] for r in all_rounds for rec in r if rec["error"]})

    job_refs = [rec["ref"] for r in plain for rec in r]
    if traced:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in
                   layer_metrics(traced_rounds).items()}
        overhead = batch_ref(traced_rounds) - batch_ref(plain)
        metrics["tracing.overhead_ref"] = {"value": overhead, "unit": "ref"}
    else:
        metrics = {"batch_ref": {"value": batch_ref(plain), "unit": "ref"},
                   "job_p50_ref": {"value": stats.median(job_refs), "unit": "ref"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}

    per_job = {}
    for job in jobs:
        recs = [rec for r in plain for rec in r if rec["job"] == job.name]
        per_job[job.name] = {"ref": stats.median(x["ref"] for x in recs),
                             "seconds": stats.median(x["seconds"] for x in recs),
                             "fixed_point": job.fixed_point}
    fixed = sum(v["ref"] for v in per_job.values() if v["fixed_point"])
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "setup_s": setup_s,
        "detail": {
            "rounds": len(plain), "traced_rounds": len(traced_rounds),
            # [seconds, reference before, reference after] of every job, by round
            "timings": [[[x["seconds"], *x["refs"]] for x in r] for r in plain],
            "jobs_per_round": len(jobs),
            "ref_kernel_s": stats.median(x["ref_seconds"] for r in plain for x in r),
            "batch_s": stats.median(sum(x["seconds"] for x in r) for r in plain),
            "job_p50_s": stats.median(x["seconds"] for r in plain for x in r),
            "fixed_point_share": fixed / sum(v["ref"] for v in per_job.values()),
            "per_job": per_job, "problems": problems, "errors": errors,
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
