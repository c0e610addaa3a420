"""Command-line front end emitting deterministic CSV/JSON plot data.

Every subcommand is a thin adapter over one library operation family: it
returns its CSV header, its rows of raw numbers and the layout of those rows
as a JSON object, and ``run`` encodes them once in the requested format.
CSV cells are floats at 12 significant digits, so repeated runs (and
golden-file tests) are byte-identical; JSON numbers are those cells parsed
back (null for inf and nan), with integer cells as ints and flags as bools.
``--threads`` is accepted and ignored. An optional config file holds
``key = value`` lines, keyed and checked like the flags, enumerated and
free-form values included; flags override file entries. Exit codes: 0
success, 2 bad flags, config values or domain errors, 3 an unreadable input
file or unwritable output.

Parsing and validation need only the standard library and the numpy-free
``constants``: bad input exits 2, and ``--dump-config`` prints, before numpy
or any numeric module is imported. Each subcommand then imports the library
modules it calls, and no others.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
from dataclasses import dataclass, field, fields
from itertools import groupby
from typing import TYPE_CHECKING

from .constants import GOLDEN_MEAN, MAX_SITES
from .errors import DomainError

if TYPE_CHECKING:
    import numpy as np

    from .potentials import PotentialSpec

COMMANDS = ("spectrum", "butterfly", "ids", "lyapunov", "resistance",
            "tracemap", "gaps", "cantor")


def _scalar(text: str, kind, what: str, choices=(), parse=None):
    """``text`` as an int, float or str; DomainError if it is malformed, a
    non-finite float, not one of ``choices``, or refused by ``parse``."""
    try:
        value = kind(text)
    except ValueError:
        raise DomainError(f"{what}: {text!r} is not a valid {kind.__name__}") from None
    if kind is float and not math.isfinite(value):
        raise DomainError(f"{what}: {text!r} is not finite")
    if choices and value not in choices:
        raise DomainError(f"{what}: {text!r} is not one of {', '.join(choices)}")
    if parse:
        parse(value)
    return value


def _parse_lengths(text: str) -> list[int]:
    if ":" not in text:
        return [_scalar(p, int, "--lengths") for p in text.split(",")]
    parts = [_scalar(p, int, "--lengths") for p in text.split(":")]
    if len(parts) not in (2, 3) or parts[2:] == [0]:
        raise DomainError(f"--lengths {text}: want a:b, a:b:step (step != 0) or a,b,...")
    if max(abs(parts[0]), abs(parts[1])) > MAX_SITES:
        raise DomainError(f"--lengths {text}: lengths above {MAX_SITES} sites")
    lengths = list(range(parts[0], parts[1] + 1, *parts[2:]))
    if not lengths:
        raise DomainError(f"--lengths {text} gives no lengths")
    return lengths


def _parse_letter_values(text: str) -> dict[str, float]:
    pairs = [item.partition("=") for item in text.split(",")]
    return {k.strip(): _scalar(v, float, f"--letter-values {k}={v}") for k, _, v in pairs}


def _parse_values(text: str) -> list[float]:
    return [_scalar(v, float, "--values") for v in text.split(",")]


def _resolve_alpha(text: str) -> float:
    return GOLDEN_MEAN if text == "golden" else _scalar(text, float, "--alpha")


@dataclass
class RunConfig:
    """One run of a subcommand, and the one declaration of every option.

    Each field after ``command`` is the flag ``--name`` (``_`` as ``-``, or
    ``metadata["flag"]``) and, but for the store-true ``dump_config``, the
    config-file key ``name``; values must be among ``metadata["choices"]``.
    A free-form text is kept as given but must pass ``metadata["parse"]``,
    which the runners call again for its value.
    """

    command: str
    model: str = field(default="free", metadata={"choices": (
        "free", "constant", "fibonacci", "sturmian", "almost-mathieu", "circle",
        "thue-morse", "period-doubling", "explicit", "substitution")})
    alpha: str = field(default="golden", metadata={"parse": _resolve_alpha})
    omega: float = 0.0
    lam: float = field(default=1.0, metadata={"flag": "--lambda"})
    value: float = 0.0
    values: str | None = field(default=None, metadata={"parse": _parse_values})
    letter_values: str | None = field(default=None, metadata={"parse": _parse_letter_values})
    rule_file: str | None = None
    rounding: str = field(default="floor", metadata={"choices": ("floor", "ceil")})
    approx_q: int | None = None
    order: int | None = None
    method: str = field(default="floquet", metadata={"choices": ("floquet", "bounded")})
    size: int = 1000
    grid: int = 200
    emin: float = -3.0
    emax: float = 3.0
    qmax: int = 5
    depth: int = 10
    nmax: int = 20
    steps: int = 10
    n: int = 10000
    energy: float = 0.0
    lengths: str = field(default="1:100", metadata={"parse": _parse_lengths})
    leads: str = field(default="pi-half", metadata={"choices": ("pi-half", "zero")})
    kmax: int = 13
    labels: str = field(default="k-over-q", metadata={"choices": ("k-over-q", "sturmian")})
    tol: float = 0.02
    what: str = field(default="function", metadata={"choices": (
        "function", "fourier", "labels", "hierarchical")})
    xmin: float = 0.0
    xmax: float = 1.0
    tmax: float = 50.0
    factors: int = 60
    out: str | None = None
    format: str = field(default="csv", metadata={"choices": ("csv", "json")})
    threads: int = 1
    dump_config: bool = False


class FileAccessError(Exception):
    """An input file cannot be read or the output cannot be written (exit 3)."""


def _flag(f) -> str:
    return f.metadata.get("flag", "--" + f.name.replace("_", "-"))


_OPTIONS = fields(RunConfig)[1:]
# Config-file key -> the ``_scalar`` arguments of every option that takes a value.
_KEYS = {f.name: ({"int": int, "float": float, "str": str}[f.type.split(" |")[0]],
                  _flag(f), f.metadata.get("choices", ()), f.metadata.get("parse"))
         for f in _OPTIONS if f.type != "bool"}


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FileAccessError(exc) from None


def _fmt(x) -> str:
    """Fixed 12-significant-digit float formatting (platform-stable)."""
    if not isinstance(x, float) and isinstance(x, numbers.Integral):  # the ABC check is slow
        return str(int(x))
    x = float(x)
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if math.isnan(x):
        return "nan"
    if x == 0.0:
        x = 0.0  # normalize -0
    return f"{x:.12g}"


def _jround(x) -> float | None:
    """The CSV cell of ``x`` as a JSON number; null for inf and nan, which
    strict JSON cannot spell."""
    v = float(_fmt(x))
    return v if math.isfinite(v) else None


def build_spec(cfg: RunConfig) -> PotentialSpec:
    """Translate CLI model flags into a potential description."""
    from .potentials import NAMED_RULES, PotentialSpec, SubstitutionRule

    model = cfg.model
    if model == "free":
        return PotentialSpec.constant(0.0)
    if model == "constant":
        return PotentialSpec.constant(cfg.value)
    if model == "fibonacci":
        return PotentialSpec.sturmian(GOLDEN_MEAN, cfg.lam, cfg.omega, cfg.rounding)
    if model == "sturmian":
        return PotentialSpec.sturmian(_resolve_alpha(cfg.alpha), cfg.lam, cfg.omega,
                                      cfg.rounding)
    if model == "almost-mathieu":
        return PotentialSpec.almost_mathieu(_resolve_alpha(cfg.alpha), cfg.lam, cfg.omega)
    if model == "circle":
        return PotentialSpec.circle(_resolve_alpha(cfg.alpha), cfg.lam, cfg.omega)
    if model in NAMED_RULES:
        rule = NAMED_RULES[model]
        lv = (_parse_letter_values(cfg.letter_values) if cfg.letter_values
              else {rule.alphabet[0]: cfg.lam,
                    **{a: 0.0 for a in rule.alphabet[1:]}})
        return PotentialSpec.substitution(rule, lv)
    if model == "explicit":
        if not cfg.values:
            raise DomainError("explicit model needs --values v1,v2,...")
        return PotentialSpec.explicit(_parse_values(cfg.values))
    # The last of the model choices: substitution.
    if not cfg.rule_file:
        raise DomainError("substitution model needs --rule-file")
    try:
        data = json.loads(_read(cfg.rule_file))
        rule = SubstitutionRule(tuple(data["alphabet"]), dict(data["images"]))
        lv = {k: _scalar(v, float, f"{cfg.rule_file}: letter value {k}")
              for k, v in data["letter_values"].items()}
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError):
        raise DomainError(f"{cfg.rule_file} is not a JSON object with alphabet, "
                          "images and letter_values") from None
    return PotentialSpec.substitution(rule, lv)


def _golden_mean_lambda(cfg: RunConfig) -> float:
    """The coupling of the Fibonacci chain the flags describe, the one chain
    the golden-mean trace map covers: a -> ab, b -> a with b -> 0, that is
    the golden-mean Sturmian at omega 0 mod 1 (either rounding; the samplers
    reduce the phase exactly with ``fmod``) or a rule file of that rule.
    DomainError for every other chain."""
    from .potentials import FIBONACCI_RULE

    spec = build_spec(cfg)
    golden = (spec.kind == "sturmian" and spec.alpha == GOLDEN_MEAN
              and math.fmod(spec.omega, 1.0) == 0.0)
    if not (golden or spec.kind == "substitution" and spec.rule == FIBONACCI_RULE
            and spec.letter_values["b"] == 0.0):
        raise DomainError("the golden-mean trace map needs the Fibonacci chain: "
                          "--model fibonacci or --alpha golden, at --omega 0")
    return spec.lam if golden else spec.letter_values["a"]


def _periodic_values(cfg: RunConfig, spec: PotentialSpec):
    from .potentials import approximant_by_denominator, periodic_approximant

    if spec.kind in ("constant", "explicit-periodic"):
        return periodic_approximant(spec, 1)
    if spec.kind == "substitution":
        if cfg.order is None:
            raise DomainError("substitution models need --order for a periodic block")
        return periodic_approximant(spec, cfg.order)
    if cfg.approx_q is None:
        raise DomainError("this model needs --approx-q to pick an approximant")
    return approximant_by_denominator(spec, cfg.approx_q)


def _check_grid(cfg: RunConfig) -> None:
    if not 2 <= cfg.grid <= MAX_SITES:
        raise DomainError(f"need 2 to {MAX_SITES} grid points")


def _check_span(lo: float, hi: float, flags: str) -> None:
    if not math.isfinite(hi - lo):
        raise DomainError(f"{flags}: the span overflows a float")


def _grid(cfg: RunConfig) -> np.ndarray:
    import numpy as np

    _check_grid(cfg)
    if cfg.emax <= cfg.emin:
        raise DomainError("need emax > emin")
    _check_span(cfg.emin, cfg.emax, "--emin/--emax")
    return np.linspace(cfg.emin, cfg.emax, cfg.grid)


# -- subcommand bodies ---------------------------------------------------------
# Each returns (CSV header, rows of raw numbers, JSON layout). The layout maps
# the rows, with every float cell rounded as in the CSV, to the JSON object.


def _columns(*keys, **head):
    """Layout: the ``head`` entries, then one list per column under ``keys``."""
    return lambda rows: {**head, **{k: [row[i] for row in rows] for i, k in enumerate(keys)}}


def _records(key, header, **tail):
    """Layout: a list of objects keyed by the CSV header under ``key``."""
    return lambda rows: {key: [dict(zip(header, row)) for row in rows], **tail}


def _run_spectrum(cfg: RunConfig):
    header = ("band_lo", "band_hi")
    if cfg.method == "bounded":
        from .tracemap import bounded_spectrum

        lam = _golden_mean_lambda(cfg)
        window = (cfg.emin, cfg.emax) if cfg.emin < cfg.emax else \
            (-2.0 - abs(lam) - 1.0, 2.0 + abs(lam) + 1.0)
        bs = bounded_spectrum(lam, window, cfg.depth, cfg.nmax)
        return header, bs.bands, lambda rows: {"bands": rows, "gap_labels": []}
    from .bands import band_spectrum, gap_labels

    spec = build_spec(cfg)
    periodic = _periodic_values(cfg, spec)
    bs = gap_labels(band_spectrum(periodic), periodic.period)
    return header, bs.bands, lambda rows: {
        "period": periodic.period, "bands": rows,
        "gap_labels": [_jround(x) for x in (bs.gap_labels or ())]}


def _run_butterfly(cfg: RunConfig):
    from .bands import butterfly

    spectra = butterfly(cfg.lam, cfg.qmax, cfg.omega)

    def layout(cells):
        groups = groupby(cells, key=lambda row: (row[0], row[1]))
        return {"rows": [{"p": p, "q": q, "bands": [row[2:] for row in g]}
                         for (p, q), g in groups]}

    return (("p", "q", "band_lo", "band_hi"),
            [(p, q, lo, hi) for p, q, bs in spectra for lo, hi in bs.bands], layout)


def _run_ids(cfg: RunConfig):
    from .ids import ids_curve

    spec = build_spec(cfg)
    grid = _grid(cfg)
    # The library counts strictly below E; the emitted convention is
    # "at or below", obtained by a +1e-12 shift of the count points.
    curve = ids_curve(spec, None, cfg.size, grid + 1e-12)
    return (("E", "N"), zip(grid, curve.values),
            _columns("energies", "values", size=curve.size))


def _run_lyapunov(cfg: RunConfig):
    from .transfer import lyapunov_grid

    spec = build_spec(cfg)
    grid = _grid(cfg)
    gam = lyapunov_grid(spec, grid, cfg.n)
    return ("E", "gamma"), zip(grid, gam), _columns("energies", "gamma")


def _run_resistance(cfg: RunConfig):
    from .scattering import resistance_profile

    spec = build_spec(cfg)
    leads = {"pi-half": "at-energy", "zero": "zero"}[cfg.leads]
    profile = resistance_profile(spec, cfg.energy, _parse_lengths(cfg.lengths), leads)
    return (("L", "log10R"), zip(profile.lengths.tolist(), profile.log10_resistance.tolist()),
            lambda rows: {"profile": rows})


def _run_tracemap(cfg: RunConfig):
    from .numutil import as_float
    from .tracemap import fibonacci_trace_orbit, fricke_invariant

    orbit = fibonacci_trace_orbit(cfg.energy, _golden_mean_lambda(cfg), cfg.steps)
    header = ("n", "tau", "invariant")

    def invariant(n: int) -> float:  # rows -1 and 0 repeat the first defined triple
        top = max(n, 1)
        return fricke_invariant(orbit.tau(top), orbit.tau(top - 1), orbit.tau(top - 2))

    rows = [(n, as_float(orbit.tau(n)), invariant(n)) for n in range(-1, cfg.steps + 1)]
    return header, rows, _records("rows", header, escape_index=orbit.escape_index)


def _run_gaps(cfg: RunConfig):
    import numpy as np

    from .bands import band_spectrum, match_gap_labels
    from .cantor import sturmian_label_set
    from .ids import ids_curve
    from .potentials import PotentialSpec

    header = ("gap_index", "energy", "ids_value", "label", "deviation", "within_tol")
    spec = build_spec(cfg)
    periodic = _periodic_values(cfg, spec)
    bs = band_spectrum(periodic)
    if len(bs.bands) < 2:
        return header, [], _records("gaps", header)
    span = bs.bands[-1][1] - bs.bands[0][0]
    # Sample the IDS exactly at the gap midpoints; a uniform grid would smear
    # the counts across the band edges.
    mids = [0.5 * (lo + hi) for lo, hi in bs.gaps()]
    grid = np.array([bs.bands[0][0] - 0.1 * span] + mids + [bs.bands[-1][1] + 0.1 * span])
    curve = ids_curve(PotentialSpec.explicit(periodic.values), None, cfg.size, grid)
    if cfg.labels == "sturmian":
        labels = sturmian_label_set(_resolve_alpha(cfg.alpha), cfg.kmax).values
    else:
        labels = [k / periodic.period for k in range(1, periodic.period)]
    report = match_gap_labels(bs, curve, labels, cfg.tol)
    rows = [(m.gap_index, m.energy, m.ids_value, m.label, m.deviation, m.within_tol)
            for m in report]
    return header, rows, _records("gaps", header)


def _run_cantor(cfg: RunConfig):
    import numpy as np

    from .cantor import cantor_alpha, cantor_fourier, hierarchical_labels, sturmian_label_set

    if cfg.what in ("function", "fourier"):
        _check_grid(cfg)
    if cfg.what == "function":
        _check_span(cfg.xmin, cfg.xmax, "--xmin/--xmax")
        xs = np.linspace(cfg.xmin, cfg.xmax, cfg.grid)
        return (("x", "alpha"), [(x, cantor_alpha(float(x))) for x in xs],
                _columns("x", "alpha"))
    if cfg.what == "fourier":
        ts = np.linspace(0.0, cfg.tmax, cfg.grid)
        zs = [cantor_fourier(float(t), cfg.factors) for t in ts]
        return (("t", "re", "im", "abs"),
                [(t, z.real, z.imag, abs(z)) for t, z in zip(ts, zs)],
                lambda rows: {"rows": rows})
    ls = (sturmian_label_set(_resolve_alpha(cfg.alpha), cfg.kmax)
          if cfg.what == "labels" else hierarchical_labels(cfg.kmax))
    return ("label",), [(v,) for v in ls.values], _columns("labels")


_RUNNERS = {
    "spectrum": _run_spectrum,
    "butterfly": _run_butterfly,
    "ids": _run_ids,
    "lyapunov": _run_lyapunov,
    "resistance": _run_resistance,
    "tracemap": _run_tracemap,
    "gaps": _run_gaps,
    "cantor": _run_cantor,
}


# -- argument handling ---------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a DomainError (one ``error:`` line, exit 2)
    instead of printing the usage text, and reads every token that starts
    with ``-`` and a digit or ``.`` as a value (``-1e-3``, ``-2.5,0.5``,
    ``-1e308``): no option looks like that. So a first token such as
    ``-1e3`` is an invalid command, as ``-1`` is."""

    def error(self, message):
        raise DomainError(message)

    def _parse_optional(self, arg_string):
        if len(arg_string) > 1 and arg_string[0] == "-" and arg_string[1] in "0123456789.":
            return None
        return super()._parse_optional(arg_string)


def _build_parser(command: str | None) -> argparse.ArgumentParser:
    """The parser of ``command``: every subcommand is registered, so a bad one
    is named among the choices, but only ``command`` gets the options."""
    parser = _Parser(prog="quasispec", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name in COMMANDS:
        # SUPPRESS keeps flags that were not given out of the namespace, so
        # the file and RunConfig defaults show through.
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        if name != command:
            continue
        p.add_argument("--config")
        for f in _OPTIONS:
            p.add_argument(_flag(f), dest=f.name,
                           action="store_true" if f.type == "bool" else "store")
    return parser


def _load_config_file(path: str) -> dict[str, str]:
    out = {}
    for raw in _read(path).splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise DomainError(f"bad config line: {raw.rstrip()}")
        key = key.strip().replace("-", "_")
        if key == "command":
            continue
        if key not in _KEYS:
            raise DomainError(f"unknown config key {key!r}")
        out[key] = value.strip()
    return out


def parse_config(argv) -> RunConfig:
    given = vars(_build_parser(argv[0] if argv else None).parse_args(argv))
    command, path = given.pop("command"), given.pop("config", None)
    dump = given.pop("dump_config", False)
    raw = {**(_load_config_file(path) if path else {}), **given}
    return RunConfig(command, dump_config=dump,
                     **{name: _scalar(text, *_KEYS[name]) for name, text in raw.items()})


def dump_config(cfg: RunConfig) -> str:
    lines = [f"command = {cfg.command}"]
    for name in _KEYS:
        val = getattr(cfg, name)
        if val is not None:
            lines.append(f"{name} = {val}")
    return "\n".join(lines) + "\n"


def run(cfg: RunConfig) -> None:
    """Execute a parsed configuration and write its output. Raises DomainError
    on bad input and FileAccessError when a file cannot be read or written."""
    header, rows, layout = _RUNNERS[cfg.command](cfg)
    if cfg.format == "csv":
        text = ",".join(header) + "\n" + "".join(",".join(map(_fmt, row)) + "\n"
                                                for row in rows)
    else:
        # Ints (row indices, lengths, p and q) and bools (flags) stay as they are.
        cells = [[x if isinstance(x, int) else _jround(x) for x in row] for row in rows]
        text = json.dumps(layout(cells), separators=(",", ":"), allow_nan=False) + "\n"
    try:
        if cfg.out:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        raise FileAccessError(exc) from None


def main(argv=None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
        if cfg.dump_config:
            sys.stdout.write(dump_config(cfg))
        else:
            run(cfg)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileAccessError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
