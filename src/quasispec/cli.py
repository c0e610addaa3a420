"""Command-line front end emitting deterministic CSV/JSON plot data.

Every subcommand is a thin adapter over one library operation family: it
returns its CSV header, one column of ints, floats or bools per field and
their layout as a JSON object, and ``encode`` applies one row format string
to the zipped columns: ``%.12g`` for floats (plus 0.0, so -0 prints as 0),
``%d`` for the rest, so repeated runs (and golden-file tests) are byte-identical.
JSON numbers are the float cells parsed back (null for inf and nan), or as is.
``--threads`` is accepted and ignored. An optional config file holds
``key = value`` lines, keyed and checked like the flags, enumerated and
free-form values included; flags override file entries. Exit codes: 0
success, 2 bad flags, config values or domain errors, 3 an unreadable input
file or unwritable output, a full stdout included: stdout is flushed as soon
as the output is written, so a failed write is an i/o error, not a message
from the interpreter's teardown.

``process_main`` is the process entry (``python -m quasispec.cli`` and the
``quasispec`` script). It runs ``main``, flushes stdout and stderr, and ends
with ``os._exit``: module teardown and the final garbage collection never
run, and neither do ``atexit`` hooks, coverage's subprocess collection among
them. ``main(argv)`` returns the exit code.

Parsing and validation need only the standard library and the numpy-free
``constants``: bad input exits 2, and ``--dump-config`` prints, before numpy
or any numeric module is imported. Each subcommand then imports the library
modules it calls, and no others.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from itertools import groupby
from typing import TYPE_CHECKING, NoReturn

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


def _parse_lengths(text: str) -> list[int] | range:
    if ":" not in text:
        return [_scalar(p, int, "--lengths") for p in text.split(",")]
    parts = [_scalar(p, int, "--lengths") for p in text.split(":")]
    if len(parts) not in (2, 3) or parts[2:3] and parts[2] < 1:
        raise DomainError(f"--lengths {text}: want a:b, a:b:step (step > 0) or a,b,...")
    if max(abs(parts[0]), abs(parts[1])) > MAX_SITES:
        raise DomainError(f"--lengths {text}: lengths above {MAX_SITES} sites")
    lengths = range(parts[0], parts[1] + 1, *parts[2:])
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
# Each returns (CSV header, one column per header field, JSON layout). The layout
# maps the columns, every float one rounded as in the CSV, to the JSON object.


def _columns(*keys, **head):
    """Layout: the ``head`` entries, then one list per column under ``keys``."""
    return lambda cols: {**head, **dict(zip(keys, cols))}


def _records(key, header, **tail):
    """Layout: a list of objects keyed by the CSV header under ``key``."""
    return lambda cols: {key: [dict(zip(header, row)) for row in zip(*cols)], **tail}


def _run_spectrum(cfg: RunConfig):
    if cfg.method == "bounded":
        from .tracemap import bounded_spectrum

        lam = _golden_mean_lambda(cfg)
        window = (cfg.emin, cfg.emax) if cfg.emin < cfg.emax else \
            (-2.0 - abs(lam) - 1.0, 2.0 + abs(lam) + 1.0)
        bs, head, labels = bounded_spectrum(lam, window, cfg.depth, cfg.nmax), {}, []
    else:
        from .bands import band_spectrum, gap_labels

        periodic = _periodic_values(cfg, build_spec(cfg))
        bs = gap_labels(band_spectrum(periodic), periodic.period)
        head, labels = {"period": periodic.period}, _json_floats(bs.gap_labels or ())
    return (("band_lo", "band_hi"), list(zip(*bs.bands)) or [(), ()],
            lambda cols: {**head, "bands": list(zip(*cols)), "gap_labels": labels})


def _run_butterfly(cfg: RunConfig):
    from .bands import butterfly

    spectra = butterfly(cfg.lam, cfg.qmax, cfg.omega)

    def layout(cols):
        groups = groupby(zip(*cols), key=lambda row: (row[0], row[1]))
        return {"rows": [{"p": p, "q": q, "bands": [row[2:] for row in g]}
                         for (p, q), g in groups]}

    return (("p", "q", "band_lo", "band_hi"),
            list(zip(*[(p, q, lo, hi) for p, q, bs in spectra for lo, hi in bs.bands])), layout)


def _run_ids(cfg: RunConfig):
    from .ids import ids_curve

    spec, grid = build_spec(cfg), _grid(cfg)
    # The library counts strictly below E; the emitted convention is
    # "at or below", obtained by a +1e-12 shift of the count points.
    curve = ids_curve(spec, None, cfg.size, grid + 1e-12)
    return ("E", "N"), [grid, curve.values], _columns("energies", "values", size=curve.size)


def _run_lyapunov(cfg: RunConfig):
    from .transfer import lyapunov_grid

    spec, grid = build_spec(cfg), _grid(cfg)
    return ("E", "gamma"), [grid, lyapunov_grid(spec, grid, cfg.n)], _columns("energies", "gamma")


def _run_resistance(cfg: RunConfig):
    import numpy as np

    from .scattering import resistance_profile

    spec = build_spec(cfg)
    leads = {"pi-half": "at-energy", "zero": "zero"}[cfg.leads]
    lengths = _parse_lengths(cfg.lengths)
    if isinstance(lengths, range):
        lengths = np.arange(lengths.start, lengths.stop, lengths.step, dtype=np.int64)
    profile = resistance_profile(spec, cfg.energy, lengths, leads)
    return (("L", "log10R"), [profile.lengths, profile.log10_resistance],
            lambda cols: {"profile": list(zip(*cols))})


def _run_tracemap(cfg: RunConfig):
    from .numutil import as_float
    from .tracemap import fibonacci_trace_orbit, fricke_invariant

    orbit = fibonacci_trace_orbit(cfg.energy, _golden_mean_lambda(cfg), cfg.steps)
    header = ("n", "tau", "invariant")

    def invariant(n: int) -> float:  # rows -1 and 0 repeat the first defined triple
        top = max(n, 1)
        return fricke_invariant(orbit.tau(top), orbit.tau(top - 1), orbit.tau(top - 2))

    ns = range(-1, cfg.steps + 1)
    columns = [ns, [as_float(orbit.tau(n)) for n in ns], [invariant(n) for n in ns]]
    return header, columns, _records("rows", header, escape_index=orbit.escape_index)


def _run_gaps(cfg: RunConfig):
    import numpy as np

    from .bands import band_spectrum, match_gap_labels
    from .cantor import sturmian_label_set
    from .ids import ids_curve
    from .potentials import PotentialSpec

    header = ("gap_index", "energy", "ids_value", "label", "deviation", "within_tol")
    periodic = _periodic_values(cfg, build_spec(cfg))
    bs = band_spectrum(periodic)
    if len(bs.bands) < 2:
        return header, [()] * len(header), _records("gaps", header)
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
    return header, [[getattr(m, k) for m in report] for k in header], _records("gaps", header)


def _run_cantor(cfg: RunConfig):
    import numpy as np

    from .cantor import cantor_alpha, cantor_fourier, hierarchical_labels, sturmian_label_set

    if cfg.what in ("function", "fourier"):
        _check_grid(cfg)
    if cfg.what == "function":
        _check_span(cfg.xmin, cfg.xmax, "--xmin/--xmax")
        xs = np.linspace(cfg.xmin, cfg.xmax, cfg.grid)
        return ("x", "alpha"), [xs, [cantor_alpha(float(x)) for x in xs]], _columns("x", "alpha")
    if cfg.what == "fourier":
        ts = np.linspace(0.0, cfg.tmax, cfg.grid)
        zs = [cantor_fourier(float(t), cfg.factors) for t in ts]
        return (("t", "re", "im", "abs"),
                [ts, [z.real for z in zs], [z.imag for z in zs], [abs(z) for z in zs]],
                lambda cols: {"rows": list(zip(*cols))})
    ls = (sturmian_label_set(_resolve_alpha(cfg.alpha), cfg.kmax)
          if cfg.what == "labels" else hierarchical_labels(cfg.kmax))
    return ("label",), [ls.values], _columns("labels")


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

    def _print_message(self, message, file=None):
        """Help goes through ``_write``: flushed before argparse exits 0, or exit 3."""
        if message:
            _write([message], None)

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


def _json_floats(column) -> list:
    """A float column's CSV cells parsed back, None (null) for inf, -inf and
    nan; no finite float rounds to 12 digits past float range."""
    import numpy as np

    a = np.asarray(column, dtype=float) + 0.0
    out = list(map(float, map("%.12g".__mod__, a.tolist())))
    for i in np.flatnonzero(~np.isfinite(a)).tolist():
        out[i] = None
    return out


# CSV is formatted and written _CSV_ROWS rows at a time, so that the cells
# and the text held at once do not grow with the output.
_CSV_ROWS = 1 << 16


def encode(header, columns, layout, fmt: str) -> str:
    """``columns``, one per ``header`` field, as CSV or as the JSON object that
    ``layout`` builds from them: a column of a float dtype is printed ``%.12g``
    and rounded by ``_json_floats``, any other (ints, bools) ``%d`` or as is."""
    return "".join(_pieces(header, columns, layout, fmt))


def _pieces(header, columns, layout, fmt: str):
    """The text of ``encode`` in pieces: JSON whole, CSV its header line and
    then _CSV_ROWS rows at a time."""
    import numpy as np

    arrays = [np.asarray(c) for c in columns]
    floats = [a.dtype.kind == "f" for a in arrays]
    if fmt == "json":
        cols = [_json_floats(a) if f else a.tolist() for a, f in zip(arrays, floats)]
        yield json.dumps(layout(cols), separators=(",", ":"), allow_nan=False) + "\n"
        return
    row = ",".join("%.12g" if f else "%d" for f in floats) + "\n"
    yield ",".join(header) + "\n"
    for i in range(0, min(map(len, arrays), default=0), _CSV_ROWS):
        cols = [(a[i:i + _CSV_ROWS] + 0.0 if f else a[i:i + _CSV_ROWS]).tolist()
                for a, f in zip(arrays, floats)]
        yield "".join(map(row.__mod__, zip(*cols)))


def run(cfg: RunConfig) -> None:
    """Execute a parsed configuration and write its output. Raises DomainError
    on bad input and FileAccessError when a file cannot be read or written."""
    _write(_pieces(*_RUNNERS[cfg.command](cfg), cfg.format), cfg.out)


def _write(pieces, path: str | None) -> None:
    """Write the strings ``pieces`` to the file ``path``, or to stdout and
    flush it, so that a full or closed stdout fails here (FileAccessError)
    and not at exit."""
    try:
        if path:
            with open(path, "w") as fh:
                fh.writelines(pieces)
        else:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
    except OSError as exc:
        raise FileAccessError(exc) from None


def main(argv=None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
        if cfg.dump_config:
            _write([dump_config(cfg)], None)
        else:
            run(cfg)
    except DomainError as exc:
        code, line = 2, f"error: {exc}"
    except FileAccessError as exc:
        code, line = 3, f"i/o error: {exc}"
    else:
        return 0
    try:
        print(line, file=sys.stderr)
    except OSError:  # a full or closed stderr: the exit code still tells
        pass
    return code


def process_main() -> NoReturn:
    """Run ``main``, flush stdout and stderr, and end the process with the exit
    code (``os._exit``). ``main`` has flushed its output and reported a failed
    write already, so a flush that fails here changes nothing."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            try:
                stream.flush()
            except OSError:
                pass
    os._exit(code)


if __name__ == "__main__":
    process_main()
