"""The three workloads: their inputs, drawn from the seed, and their jobs.

A job is one library call (or one ``quasispec`` process) with fixed inputs.
Every round of a workload runs the same jobs in the same order, so a run
attempts whole rounds and the share of failed operations never depends on
the seed or on the run length. Sizes are fixed; the seed draws phases,
couplings, letter values, random periods, energies and windows, so the work
per round barely moves with the seed.

Jobs look their library functions up at call time (``lib.bands.band_spectrum``)
so that the wrappers a traced run installs are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import subprocess
import sys
import traceback
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

import oracles as o
from oracles import require

WORKLOADS = ("floquet", "transport", "cli")

EDGE_TOL = 1e-9


@dataclass
class Job:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    failed: Callable[[Any], bool] = lambda out: False
    fixed_point: bool = False


SIZES = {
    # floquet: (full, smoke). The costs are spread so that the middle three
    # jobs of a round (the 89-site approximants, 6th to 8th of 13) sit well
    # apart from the cheaper and dearer ones, which keeps job_p50_ref on them.
    # The phase union uses an odd q: at even q a double eigenvalue at E = 0
    # comes out of the bisection up to 2e-9 off (see CHANGES.md), on some
    # couplings only.
    "sturm_qs": ((55, 89, 377), (8, 13, 21)), "am_qs": ((89, 144), (13, 21)),
    "tm_order": (6, 3), "pd_order": (5, 3), "fib_order": (9, 5),
    "random_small": (21, 5), "random_mid": (144, 8), "random_large": (300, 12),
    "butterfly_qmax": (10, 3), "union_q": (21, 5),
    # transport
    "lyap_n": (10000, 300), "lyap_long_n": (25000, 500), "lyap_tm_n": (16384, 256),
    "lyap_energies": (240, 12), "lyap_long_energies": (200, 10),
    "res_len": (10000, 200), "scatter_len": (5000, 100), "scatter_energies": (4, 2),
    # gordon_ratio overflows past e^709 (see CHANGES.md): 2q ln(|E|+lam+1) stays below it
    "ids_half": (1000, 30), "ids_grid": (400, 20), "gordon_q": (144, 13),
    "gordon_energies": (8, 2),
    # cli
    "cli_q": (89, 13), "cli_qmax": (8, 3), "cli_ids_size": (2000, 50),
    "cli_ids_grid": (600, 20), "cli_lyap_n": (10000, 200), "cli_lyap_grid": (400, 20),
    "cli_res_len": (1000, 50), "cli_steps": (10, 6), "cli_gaps_q": (13, 5),
    "cli_cantor_grid": (400, 20), "cli_config_q": (55, 8), "cli_rt_len": (2000, 100),
    "cli_depth": (8, 4),
}


def sizes(smoke: bool) -> dict:
    """Problem sizes; ``smoke`` shrinks every one of them."""
    return {key: pair[1 if smoke else 0] for key, pair in SIZES.items()}


# -- floquet -----------------------------------------------------------------------


def floquet_jobs(lib, rng: np.random.Generator, sz: dict) -> list[Job]:
    P, B = lib.potentials, lib.bands
    jobs: list[Job] = []

    def spectrum(name, make, expected_values, close=False):
        def run():
            p = make()
            return p.values, B.gap_labels(B.band_spectrum(p), p.period)

        def check(out):
            values, bs = out
            v = np.asarray(values, dtype=float)
            same = (np.allclose(v, expected_values, rtol=0, atol=1e-12) if close
                    else np.array_equal(v, expected_values))
            require(v.shape == expected_values.shape and same,
                    f"{name}: period differs from the defining formula")
            o.check_floquet_bands(bs.bands, expected_values, EDGE_TOL, name)
            require(bs.gap_labels == tuple(k / len(v) for k in range(1, len(bs.bands))),
                    f"{name}: gap labels are not k/L")

        jobs.append(Job(name, run, check))

    for q_max in sz["sturm_qs"]:
        lam, omega = float(rng.uniform(1.0, 3.0)), float(rng.uniform(0.0, 1.0))
        p, q = o.fibonacci_convergent(q_max)
        spec = P.PotentialSpec.sturmian(P.GOLDEN_MEAN, lam, omega)
        spectrum(f"sturmian-q{q}", lambda spec=spec, q=q: P.approximant_by_denominator(spec, q),
                 o.sturmian_period(lam, p, q, omega))

    for q_max in sz["am_qs"]:
        lam, omega = float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.0, 1.0))
        p, q = o.fibonacci_convergent(q_max)
        spec = P.PotentialSpec.almost_mathieu(P.GOLDEN_MEAN, lam, omega)
        spectrum(f"almost-mathieu-q{q}",
                 lambda spec=spec, q=q: P.approximant_by_denominator(spec, q),
                 o.cosine_period(lam, p, q, omega), close=True)

    for rule_name, key in (("thue-morse", "tm_order"), ("period-doubling", "pd_order"),
                           ("fibonacci", "fib_order")):
        rule = P.NAMED_RULES[rule_name]
        lv = {"a": float(rng.uniform(0.5, 2.0)), "b": float(rng.uniform(-2.0, 0.0))}
        spec = P.PotentialSpec.substitution(rule, lv)
        order = sz[key]
        word = o.substitution_word(rule.images, "a", order=order)
        spectrum(f"{rule_name}-order{order}",
                 lambda spec=spec, order=order: P.periodic_approximant(spec, order),
                 o.letters_to_values(word, lv))

    for key in ("random_small", "random_mid", "random_large"):
        vals = rng.uniform(-2.0, 2.0, sz[key])
        spectrum(f"random-L{len(vals)}",
                 lambda vals=vals: P.periodic_approximant(P.PotentialSpec.explicit(vals), 1),
                 vals)

    def butterfly(lam, omega, qmax):
        def check(rows):
            fractions = [(0, 1)] + [(a, b) for b in range(2, qmax + 1)
                                    for a in range(1, b) if math.gcd(a, b) == 1]
            require([(a, b) for a, b, _ in rows] == fractions, "butterfly: wrong (p, q) rows")
            for a, b, bs in rows:
                o.check_floquet_bands(bs.bands, o.cosine_period(lam, a, b, omega),
                                      EDGE_TOL, f"butterfly {a}/{b}")

        jobs.append(Job(f"butterfly-qmax{qmax}", lambda: B.butterfly(lam, qmax, omega), check))

    def phase_union(lam, p, q):
        def check(bs):
            dual = B.phase_union_spectrum(4.0 / lam, p, q)
            scaled = [(lam / 2.0 * lo, lam / 2.0 * hi) for lo, hi in dual.bands]
            d = o.hausdorff(bs.bands, scaled)
            require(d <= 1e-9 * max(1.0, lam), f"phase union: Aubry duality off by {d}")
            eigs = [np.linalg.eigvalsh(o.wraparound_matrix(o.cosine_period(lam, p, q, omega),
                                                           corner))
                    for omega in (0.0, 1.0 / (2.0 * q)) for corner in (1.0, -1.0)]
            o.check_bands_against_eigs(bs.bands, np.concatenate(eigs), EDGE_TOL, "phase union")

        jobs.append(Job(f"phase-union-q{q}", lambda: B.phase_union_spectrum(lam, p, q), check))

    butterfly(float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.0, 1.0)), sz["butterfly_qmax"])
    phase_union(float(rng.uniform(0.5, 3.0)), *o.fibonacci_convergent(sz["union_q"]))
    return jobs


# -- transport ---------------------------------------------------------------------


def transport_jobs(lib, rng: np.random.Generator, sz: dict) -> list[Job]:
    P, T, S, I = lib.potentials, lib.transfer, lib.scattering, lib.ids
    jobs: list[Job] = []

    def chain(kind, lam, omega, n, lv=None):
        """(spec, values of sites 1..n) from the benchmark's own sampler."""
        if kind == "sturmian":
            return (P.PotentialSpec.sturmian(P.GOLDEN_MEAN, lam, omega),
                    o.sturmian_chain(lam, o.GOLDEN, omega, n))
        if kind == "almost-mathieu":
            return (P.PotentialSpec.almost_mathieu(P.GOLDEN_MEAN, lam, omega),
                    o.cosine_chain(lam, o.GOLDEN, omega, n))
        rule = P.NAMED_RULES[kind]
        word = o.substitution_word(rule.images, "a", min_length=n)[:n]
        return P.PotentialSpec.substitution(rule, lv), o.letters_to_values(word, lv)

    def lyapunov(kind, n_key, e_key, fixed, omega=0.0):
        lam = float(rng.uniform(1.0, 3.0))
        lv = {"a": lam, "b": float(rng.uniform(-1.0, 0.0))}
        n = sz[n_key]
        spec, values = chain(kind, lam, omega, n, lv)
        lo, hi = float(values.min()) - 2.5, float(values.max()) + 2.5
        energies = np.sort(rng.uniform(lo, hi, sz[e_key]))
        picks = rng.choice(len(energies), size=3, replace=False)

        def check(gam):
            require(gam.shape == energies.shape and np.all(np.isfinite(gam)),
                    f"lyapunov {kind}: bad output shape or values")
            for i in picks:
                mat, log_s, _ = o.transfer_logs(values, float(energies[i]))
                want = max(0.0, o.log_norm(mat, log_s)) / n
                require(abs(gam[i] - want) <= 1e-9 * max(1.0, want),
                        f"lyapunov {kind}: gamma {gam[i]} vs product {want}")

        tag = "fixed-point" if fixed else "shifted"
        jobs.append(Job(f"lyapunov-{kind}-{tag}-n{n}",
                        lambda: T.lyapunov_grid(spec, energies, n), check, fixed_point=fixed))

    lyapunov("fibonacci", "lyap_n", "lyap_energies", True)
    lyapunov("sturmian", "lyap_long_n", "lyap_long_energies", True)
    lyapunov("thue-morse", "lyap_tm_n", "lyap_energies", True)
    lyapunov("almost-mathieu", "lyap_long_n", "lyap_long_energies", False,
             float(rng.uniform(0.0, 1.0)))
    lyapunov("sturmian", "lyap_n", "lyap_energies", False, float(rng.uniform(0.05, 0.95)))

    def resistance(kind, leads, fixed, omega=0.0):
        lam = float(rng.uniform(0.5, 1.5))
        lv = {"a": lam, "b": 0.0}
        n = sz["res_len"]
        spec, values = chain(kind, lam, omega, n, lv)
        energy = float(rng.uniform(-1.5, 1.5))
        lengths = list(range(10, n + 1, 10))
        w = (energy, energy) if leads == "at-energy" else (0.0, 0.0)

        def check(profile):
            require([p.length for p in profile] == lengths,
                    f"resistance {kind}: wrong lengths")
            _, _, marks = o.transfer_logs(values, energy, lengths)
            for p in profile:
                mat, log_s = marks[p.length]
                want = (o.log10_resistance_pi_half(mat, log_s) if leads == "at-energy"
                        else o.log10_resistance(mat, log_s, energy, *w))
                _require_log10_close(p.log10_resistance, want,
                                     f"resistance {kind} {leads} L={p.length}")

        jobs.append(Job(f"resistance-{kind}-{leads}",
                        lambda: S.resistance_profile(spec, energy, lengths, leads),
                        check, fixed_point=fixed))

    resistance("fibonacci", "at-energy", True)
    resistance("almost-mathieu", "zero", False, float(rng.uniform(0.0, 1.0)))

    lam, omega = float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.05, 0.95))
    _, sample = chain("sturmian", lam, omega, sz["scatter_len"])
    leads = [(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5)))
             for _ in range(sz["scatter_energies"])]
    s_energies = [float(rng.uniform(-1.2, 1.2)) for _ in leads]

    def check_scatter(results):
        for r, E, (w1, w2) in zip(results, s_energies, leads):
            flux = abs(r.r) ** 2 + math.sin(r.k2) / math.sin(r.k1) * abs(r.t) ** 2
            require(abs(flux - 1.0) <= 1e-9, f"scatter: flux not conserved ({flux})")
            mat, log_s, _ = o.transfer_logs(sample, E)
            _require_log10_close(r.log10_resistance, o.log10_resistance(mat, log_s, E, w1, w2),
                                 "scatter log10 R")

    jobs.append(Job(f"scatter-shifted-L{len(sample)}",
                    lambda: [S.scatter(sample, E, w1, w2)
                             for E, (w1, w2) in zip(s_energies, leads)], check_scatter))

    def ids(kind, fixed, omega):
        lam = float(rng.uniform(0.5, 2.0))
        lv = {"a": lam, "b": 0.0}
        half = sz["ids_half"]
        spec, _ = chain(kind, lam, omega, 1, lv)
        window = lib.potentials.sample_potential(spec, -half, half)
        if kind == "fibonacci":
            images = P.NAMED_RULES[kind].images
            word = o.substitution_word(images, "a", min_length=half)
            order = 2
            while len(o.substitution_word(images, "a", order=order)) <= half:
                order += 2
            left = o.substitution_word(images, "a", order=order)
            expect = np.concatenate([o.letters_to_values(left[-(half + 1):], lv),
                                     o.letters_to_values(word[:half], lv)])
            require(np.array_equal(window, expect),
                    "ids: two-sided fixed point differs from the substitution")
        else:
            k = np.arange(-half, half + 1, dtype=float)
            require(np.allclose(window, lam * np.cos(2 * math.pi * (k * o.GOLDEN + omega)),
                                rtol=0, atol=1e-12), "ids: window differs from the formula")
        grid = np.sort(rng.uniform(float(window.min()) - 2.2, float(window.max()) + 2.2,
                                   sz["ids_grid"]))
        omega_arg = None if fixed else omega

        def check(curve):
            counts, sharp = o.dirichlet_counts(window, grid)
            got = np.rint(curve.values * (2 * half + 1)).astype(int)
            require(curve.size == 2 * half + 1 and np.array_equal(got[sharp], counts[sharp]),
                    f"ids {kind}: counts differ from the dense Dirichlet eigenvalues")

        tag = "fixed-point" if fixed else "shifted"
        jobs.append(Job(f"ids-{kind}-{tag}-L{2 * half + 1}",
                        lambda: I.ids_curve(spec, omega_arg, half, grid), check,
                        fixed_point=fixed))

    ids("fibonacci", True, 0.0)
    ids("almost-mathieu", False, float(rng.uniform(0.0, 1.0)))

    lam, omega = float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.0, 1.0))
    p, q = o.fibonacci_convergent(sz["gordon_q"])
    block = o.cosine_period(lam, p, q, omega)
    triple = np.concatenate([block, block, block])
    g_energies = [float(rng.uniform(-2.0, 2.0)) for _ in range(sz["gordon_energies"])]

    def check_gordon(results):
        for r, E in zip(results, g_energies):
            mat, log_s, _ = o.transfer_logs(block, E)
            scale = math.exp(log_s)
            tr = float(np.trace(mat)) * scale
            require(abs(r.trace - tr) <= 1e-9 * max(1.0, float(np.abs(mat).max()) * scale),
                    f"gordon: trace {r.trace} vs product {tr}")
            # Gordon's lemma: a solution cannot be small on all repeated blocks.
            require(min(r.three_block, r.two_block) >= 0.5 - 1e-9,
                    f"gordon: repetition ratio below 1/2 ({r.three_block}, {r.two_block})")

    jobs.append(Job(f"gordon-q{q}",
                    lambda q=q: [T.gordon_ratio(triple, E, q) for E in g_energies],
                    check_gordon))
    return jobs


def _require_log10_close(got: float, want: float, what: str) -> None:
    if want < 10.0:
        ok = abs(10.0 ** got - 10.0 ** want) <= 1e-8 * max(1.0, 10.0 ** want)
    else:
        ok = abs(got - want) <= 1e-9 * abs(want)
    require(ok, f"{what}: log10 R {got} vs {want}")


# -- cli -----------------------------------------------------------------------------


@dataclass
class CliOutcome:
    code: int
    stdout: bytes
    stderr: bytes
    files: dict


class CliRunner:
    """Runs ``quasispec`` argument lists in fresh processes, or in this process
    through ``cli.main`` (used by the traced run)."""

    def __init__(self, lib, src: str, workdir: str, in_process: bool, tracer=None):
        self.lib, self.workdir, self.in_process, self.tracer = lib, workdir, in_process, tracer
        self.env = dict(os.environ, PYTHONPATH=src)

    def __call__(self, argv: list[str], out_file: str | None = None) -> CliOutcome:
        if out_file:
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(self.workdir, out_file))
        if self.in_process:
            outcome = self._in_process(argv)
        else:
            r = subprocess.run([sys.executable, "-m", "quasispec.cli", *argv],
                               cwd=self.workdir, env=self.env, capture_output=True,
                               timeout=120)
            outcome = CliOutcome(r.returncode, r.stdout, r.stderr, {})
        if out_file:
            with contextlib.suppress(FileNotFoundError):
                with open(os.path.join(self.workdir, out_file), "rb") as fh:
                    outcome.files[out_file] = fh.read()
        if self.tracer is not None:
            self.tracer.count("cli.out_bytes", len(outcome.stdout)
                              + sum(len(b) for b in outcome.files.values()))
        return outcome

    def _in_process(self, argv):
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.workdir)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self.lib.cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 1
                except Exception:  # a traceback ends the process with exit 1
                    traceback.print_exc()
                    code = 1
        finally:
            os.chdir(cwd)
        return CliOutcome(int(code or 0), out.getvalue().encode(), err.getvalue().encode(), {})


def _nonzero_exit(out: CliOutcome) -> bool:
    return out.code != 0


def _bad_input_failed(out: CliOutcome) -> bool:
    """Bad input must end in exit 2 with a one-line ``error:`` message."""
    lines = out.stderr.decode(errors="replace").strip().splitlines()
    return not (out.code == 2 and len(lines) == 1 and lines[0].startswith("error:")
                and not out.stdout)


def _csv(data: bytes) -> list[list[str]]:
    rows = [line.split(",") for line in data.decode().strip().splitlines()]
    return rows[1:]


def cli_jobs(run_cli: CliRunner, rng: np.random.Generator, sz: dict) -> list[Job]:
    jobs: list[Job] = []

    def add(name, argv, check, out_file=None, failed=_nonzero_exit):
        jobs.append(Job(name, lambda: run_cli(argv, out_file), check, failed))

    def f(x: float) -> str:
        return repr(float(x))

    # spectrum, JSON to a file
    lam = float(rng.uniform(1.0, 3.0))
    p, q = o.fibonacci_convergent(sz["cli_q"])

    def check_spectrum(out):
        obj = o.strict_json(out.files["spectrum.json"].decode())
        require(obj["period"] == q, "cli spectrum: wrong period")
        o.check_floquet_bands(obj["bands"], o.sturmian_period(lam, p, q, 0.0), EDGE_TOL,
                              "cli spectrum")

    add("spectrum-json-out", ["spectrum", "--model", "fibonacci", "--lambda", f(lam),
                              "--approx-q", str(sz["cli_q"]), "--format", "json",
                              "--out", "spectrum.json"], check_spectrum, "spectrum.json")

    # butterfly, CSV to a file, default threads
    b_lam, b_omega, qmax = float(rng.uniform(0.5, 3.0)), float(rng.uniform(0, 1)), sz["cli_qmax"]

    def check_butterfly(out):
        rows: dict = {}
        for pp, qq, lo, hi in _csv(out.files["butterfly.csv"]):
            rows.setdefault((int(pp), int(qq)), []).append((float(lo), float(hi)))
        fractions = [(0, 1)] + [(a, b) for b in range(2, qmax + 1)
                                for a in range(1, b) if math.gcd(a, b) == 1]
        require(list(rows) == fractions, "cli butterfly: wrong (p, q) rows")
        for (a, b), bands in rows.items():
            o.check_floquet_bands(bands, o.cosine_period(b_lam, a, b, b_omega), EDGE_TOL,
                                  f"cli butterfly {a}/{b}")

    add("butterfly-csv-out", ["butterfly", "--lambda", f(b_lam), "--qmax", str(qmax),
                              "--omega", f(b_omega), "--out", "butterfly.csv"],
        check_butterfly, "butterfly.csv")

    # ids of the free chain, CSV to stdout
    size, grid = sz["cli_ids_size"], sz["cli_ids_grid"]
    emin, emax = -3.0 - float(rng.uniform(0, 0.5)), 3.0 + float(rng.uniform(0, 0.5))

    def check_ids(out):
        rows = np.array(_csv(out.stdout), dtype=float)
        e = np.linspace(emin, emax, grid)
        require(rows.shape == (grid, 2) and np.allclose(rows[:, 0], e, rtol=1e-11, atol=1e-11),
                "cli ids: wrong energy grid")
        err = np.max(np.abs(rows[:, 1] - o.free_ids(e)))
        require(err <= 2.0 / (2 * size + 1), f"cli ids: free IDS off by {err}")

    add("ids-free-csv", ["ids", "--model", "free", "--size", str(size), "--emin", f(emin),
                         "--emax", f(emax), "--grid", str(grid)], check_ids)

    # lyapunov at the default thread count
    l_lam, l_omega = float(rng.uniform(1.0, 4.0)), float(rng.uniform(0, 1))
    n, l_grid = sz["cli_lyap_n"], sz["cli_lyap_grid"]
    picks = rng.choice(l_grid, size=3, replace=False)

    def check_lyapunov(out):
        rows = np.array(_csv(out.stdout), dtype=float)
        e = np.linspace(-5.0, 5.0, l_grid)
        values = o.cosine_chain(l_lam, 0.6180339887, l_omega, n)
        require(rows.shape == (l_grid, 2), "cli lyapunov: wrong row count")
        for i in picks:
            mat, log_s, _ = o.transfer_logs(values, float(e[i]))
            want = max(0.0, o.log_norm(mat, log_s)) / n
            require(abs(rows[i, 1] - want) <= 1e-9 * max(1.0, want),
                    f"cli lyapunov: gamma {rows[i, 1]} vs product {want}")

    add("lyapunov-default-threads",
        ["lyapunov", "--model", "almost-mathieu", "--alpha", "0.6180339887", "--lambda",
         f(l_lam), "--omega", f(l_omega), "--n", str(n), "--emin", "-5", "--emax", "5",
         "--grid", str(l_grid)], check_lyapunov)

    # resistance with pi-half leads, JSON to stdout
    r_lam, r_energy, r_len = float(rng.uniform(0.5, 1.5)), float(rng.uniform(-1, 1)), sz["cli_res_len"]

    def check_resistance(out):
        profile = o.strict_json(out.stdout.decode())["profile"]
        lengths = list(range(1, r_len + 1))
        require([row[0] for row in profile] == lengths, "cli resistance: wrong lengths")
        values = o.sturmian_chain(r_lam, o.GOLDEN, 0.0, r_len)
        _, _, marks = o.transfer_logs(values, r_energy, lengths)
        for length, got in profile:
            _require_log10_close(got, o.log10_resistance_pi_half(*marks[length]),
                                 f"cli resistance L={length}")

    add("resistance-json", ["resistance", "--model", "fibonacci", "--lambda", f(r_lam),
                            "--energy", f(r_energy), "--lengths", f"1:{r_len}",
                            "--leads", "pi-half", "--format", "json"], check_resistance)

    # tracemap at an energy of the q-periodic spectrum, where the orbit stays bounded
    t_lam = float(rng.uniform(0.5, 2.5))
    steps = sz["cli_steps"]
    eigs = np.linalg.eigvalsh(o.wraparound_matrix(o.sturmian_period(t_lam, p, q, 0.0), 1.0))
    t_energy = float(eigs[rng.integers(len(eigs))])

    def check_tracemap(out):
        rows = o.strict_json(out.stdout.decode())["rows"]
        taus = o.fibonacci_traces(t_energy, t_lam, steps)
        require([r["n"] for r in rows] == list(range(-1, steps + 1)), "cli tracemap: rows")
        for r in rows:
            want = taus[r["n"] + 1]
            require(abs(r["tau"] - want) <= 1e-9 * max(1.0, abs(want)),
                    f"cli tracemap: tau_{r['n']} {r['tau']} vs {want}")
            top = max(r["n"], 1)
            mag = max(1.0, *(abs(t) for t in taus[top - 1: top + 2]))
            require(abs(r["invariant"] - t_lam ** 2) <= 1e-6 * mag * mag,
                    f"cli tracemap: Fricke invariant {r['invariant']} != lambda^2")

    add("tracemap-json", ["tracemap", "--model", "fibonacci", "--lambda", f(t_lam),
                          "--energy", f(t_energy), "--steps", str(steps), "--format", "json"],
        check_tracemap)

    # gap labels of a golden-mean approximant against the Sturmian label set
    g_lam = float(rng.uniform(2.0, 4.0))
    gp, gq = o.fibonacci_convergent(sz["cli_gaps_q"])
    kmax, g_size = 13, 1000

    def check_gaps(out):
        rows = _csv(out.stdout)
        period = o.sturmian_period(g_lam, gp, gq, 0.0)
        window = period[np.mod(np.arange(-g_size, g_size + 1) - 1, gq)]
        energies = np.array([float(r[1]) for r in rows])
        counts, sharp = o.dirichlet_counts(window, energies)
        labels = sorted({(k * o.GOLDEN) % 1.0 for k in range(-kmax, kmax + 1)})
        require(len(rows) == gq - 1, f"cli gaps: {len(rows)} gaps, want {gq - 1}")
        for row, c, s in zip(rows, counts, sharp):
            ids_value, label = float(row[2]), float(row[3])
            require(not s or abs(ids_value - c / (2 * g_size + 1)) <= 1e-11,
                    f"cli gaps: IDS {ids_value} vs count {c}")
            require(min(abs(label - x) for x in labels) <= 1e-11, "cli gaps: unknown label")
            require(row[5] == "1" and abs(ids_value - label) <= 0.02,
                    f"cli gaps: IDS {ids_value} misses label {label}")

    add("gaps-csv", ["gaps", "--model", "fibonacci", "--lambda", f(g_lam), "--approx-q",
                     str(sz["cli_gaps_q"]), "--labels", "sturmian", "--alpha", "golden"],
        check_gaps)

    # the Cantor function
    xmin, xmax, c_grid = float(rng.uniform(0, 0.2)), float(rng.uniform(0.8, 1.0)), sz["cli_cantor_grid"]

    def check_cantor(out):
        rows = np.array(_csv(out.stdout), dtype=float)
        xs = np.linspace(xmin, xmax, c_grid)
        want = np.array([o.cantor_function(float(x)) for x in xs])
        require(rows.shape == (c_grid, 2) and np.max(np.abs(rows[:, 1] - want)) <= 1e-11,
                "cli cantor: values differ from the self-similar Cantor function")

    add("cantor-csv", ["cantor", "--what", "function", "--grid", str(c_grid),
                       "--xmin", f(xmin), "--xmax", f(xmax)], check_cantor)

    # spectrum through a config file (written during set-up)
    c_lam, c_omega = float(rng.uniform(0.5, 3.0)), float(rng.uniform(0, 1))
    cp, cq = o.fibonacci_convergent(sz["cli_config_q"])
    _write(run_cli.workdir, "almost-mathieu.cfg",
           f"model = almost-mathieu\nalpha = golden\nlam = {f(c_lam)}\nomega = {f(c_omega)}\n"
           f"approx_q = {sz['cli_config_q']}\nformat = json\n")

    def check_config(out):
        obj = o.strict_json(out.stdout.decode())
        require(obj["period"] == cq, "cli config spectrum: wrong period")
        o.check_floquet_bands(obj["bands"], o.cosine_period(c_lam, cp, cq, c_omega), EDGE_TOL,
                              "cli config spectrum")

    add("spectrum-config-file", ["spectrum", "--config", "almost-mathieu.cfg"], check_config)

    # --dump-config round trip: dump the flags, then run from the dumped file
    rt_lam, rt_energy, rt_len = float(rng.uniform(0.5, 1.5)), float(rng.uniform(-1.5, 1.5)), sz["cli_rt_len"]
    rt_flags = {"model": "thue-morse", "lam": f(rt_lam), "energy": f(rt_energy),
                "lengths": f"100:{rt_len}:100", "leads": "zero"}
    dump_argv = ["resistance", "--model", "thue-morse", "--lambda", f(rt_lam), "--energy",
                 f(rt_energy), "--lengths", rt_flags["lengths"], "--leads", "zero",
                 "--dump-config"]

    def dump_and_save():
        out = run_cli(dump_argv)
        _write(run_cli.workdir, "roundtrip.cfg", out.stdout.decode())
        return out

    def check_dump(out):
        dumped = dict(line.split(" = ", 1) for line in out.stdout.decode().splitlines())
        for key, value in rt_flags.items():
            require(dumped.get(key) == value, f"cli dump-config: {key} = {dumped.get(key)}")

    jobs.append(Job("resistance-dump-config", dump_and_save, check_dump, _nonzero_exit))

    def check_roundtrip(out):
        rows = _csv(out.stdout)
        lengths = list(range(100, rt_len + 1, 100))
        require([int(r[0]) for r in rows] == lengths, "cli round trip: wrong lengths")
        word = o.substitution_word(o.THUE_MORSE, "a", min_length=rt_len)[:rt_len]
        values = o.letters_to_values(word, {"a": rt_lam, "b": 0.0})
        _, _, marks = o.transfer_logs(values, rt_energy, lengths)
        for length, got in rows:
            want = o.log10_resistance(*marks[int(length)], rt_energy, 0.0, 0.0)
            _require_log10_close(float(got), want, f"cli round trip L={length}")

    add("resistance-from-dumped-config", ["resistance", "--config", "roundtrip.cfg"],
        check_roundtrip)

    # bounded-trace spectrum
    bt_lam, depth = float(rng.uniform(1.0, 3.0)), sz["cli_depth"]
    window = (-3.0, 3.0 + bt_lam)

    def check_bounded(out):
        bands = [(float(a), float(b)) for a, b in _csv(out.stdout)]
        require(bands and window[0] <= bands[0][0] and bands[-1][1] <= window[1],
                "cli bounded: bands outside the window")
        edges = [window[0]] + [x for band in bands for x in band] + [window[1]]
        for lo, hi in zip(edges[::2], edges[1::2]):
            if hi > lo:
                mid = 0.5 * (lo + hi)
                require(o.escapes(mid, bt_lam, 20),
                        f"cli bounded: E={mid} was discarded but its orbit stays bounded")

    add("spectrum-bounded", ["spectrum", "--model", "fibonacci", "--lambda", f(bt_lam),
                             "--method", "bounded", "--depth", str(depth), "--nmax", "20",
                             "--emin", f(window[0]), "--emax", f(window[1])], check_bounded)

    # Two bad inputs whose contract is exit 2 with a one-line error message.
    add("resistance-empty-lengths", ["resistance", "--lengths", "10:1"], lambda out: None,
        failed=_bad_input_failed)
    add("spectrum-nan-json", ["spectrum", "--model", "explicit", "--values", "1,nan",
                              "--format", "json"], lambda out: None, failed=_bad_input_failed)
    return jobs


def _write(workdir: str, name: str, text: str) -> None:
    with open(os.path.join(workdir, name), "w") as fh:
        fh.write(text)


def build(workload: str, lib, seed: int, smoke: bool, cli_runner=None) -> list[Job]:
    rng = np.random.default_rng(seed)
    sz = sizes(smoke)
    if workload == "floquet":
        return floquet_jobs(lib, rng, sz)
    if workload == "transport":
        return transport_jobs(lib, rng, sz)
    return cli_jobs(cli_runner, rng, sz)


def load_library(src: str) -> SimpleNamespace:
    """Import quasispec from ``src`` and refuse any other copy."""
    sys.path.insert(0, src)
    import quasispec
    from quasispec import (bands, cantor, cli, ids, potentials, scattering, tracemap,
                           transfer)

    where = os.path.realpath(quasispec.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise ImportError(f"quasispec imported from {where}, not from {src}")
    return SimpleNamespace(package=quasispec, potentials=potentials, transfer=transfer,
                           ids=ids, bands=bands, scattering=scattering, tracemap=tracemap,
                           cantor=cantor, cli=cli)
