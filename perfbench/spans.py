"""Spans and counters recorded around the calls into each quasispec layer.

The layers are the library modules. ``Tracer.install`` replaces every public
function of a layer by a wrapper that records a span (layer, start, end,
parent) and, for the functions listed in ``COUNTERS``, the work the call did.
Modules import each other's functions by name, so the wrapper replaces the
name in every importing module too; the wrapper bound in an importing module
also counts its calls under ``<importer>.calls.<function>``.

Spans started in a worker thread whose own stack is empty take as parent the
innermost span open on the tracer's main thread, so that time spent in a
thread pool is not counted as the caller's self time.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter
from types import ModuleType

LAYERS = ("potentials", "transfer", "ids", "bands", "scattering", "tracemap",
          "cantor", "cli")

# Called once per site; a span there would cost more than the work it times.
NOT_WRAPPED = {"transfer.step_matrix"}


# Work counts, read from a successful call's arguments and result.
COUNTERS = {
    "ids.count_below": lambda a, kw, r: {"ids.pivot_steps": len(a[0]) * r.size},
    "ids.count_below_periodic": lambda a, kw, r: {"ids.pivot_steps": len(a[0]) * r.size},
    "ids.bisect_eigenvalues": lambda a, kw, r: {
        "ids.bisect_sweeps": kw.get("iters", a[4] if len(a) > 4 else 60)},
    "transfer.propagate": lambda a, kw, r: {"transfer.site_products": len(a[1])},
    "transfer.product_grid": lambda a, kw, r: {
        "transfer.site_products": len(a[0]) * r[0].size},
    # 2L forward and L backward single-site steps; its inner propagate counts itself.
    "transfer.gordon_ratio": lambda a, kw, r: {"transfer.site_products": 3 * int(a[2])},
    "scattering.scatter": lambda a, kw, r: {"scattering.site_products": len(a[0])},
    "scattering.landauer_trace_norm": lambda a, kw, r: {
        "scattering.site_products": len(a[0])},
    "scattering.min_resistance": lambda a, kw, r: {"scattering.site_products": len(a[0])},
    "scattering.resistance_profile": lambda a, kw, r: {
        "scattering.site_products": max(int(x) for x in a[2])},
    "potentials.sample_potential": lambda a, kw, r: {"potentials.sites": r.size},
    "potentials.periodic_approximant": lambda a, kw, r: {"potentials.sites": r.period},
    "potentials.approximant_by_denominator": lambda a, kw, r: {
        "potentials.sites": r.period},
}


class Tracer:
    """Collects spans and counts in memory while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [parent, layer, start, end]
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple[ModuleType, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, layer: str, counter, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._main_stack[-1] if self._main_stack else None)
        span = [parent, layer, 0.0, 0.0]
        with self._lock:
            sid = len(self.spans)
            self.spans.append(span)
        stack.append(sid)
        span[2] = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = self.clock()
            stack.pop()
        if counter is not None:
            with self._lock:
                self.counts.update(counter(args, kwargs, result))
        return result

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def _wrap(self, layer: str, key: str, fn, importer: str | None):
        counter = COUNTERS.get(key)
        calls = f"{importer}.calls.{key.split('.', 1)[1]}" if importer else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if calls is not None:
                self.count(calls)
            return self.call(layer, counter, fn, args, kwargs)

        return wrapper

    def install(self, package: ModuleType, modules: dict[str, ModuleType]) -> None:
        """Wrap the public functions of every layer module (``modules`` maps
        layer names to modules), in the module itself, in every other layer
        module and in ``package``."""
        originals = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (callable(obj) and not isinstance(obj, type)
                        and not name.startswith("_")
                        and getattr(obj, "__module__", None) == mod.__name__
                        and f"{layer}.{name}" not in NOT_WRAPPED):
                    originals[id(obj)] = (layer, f"{layer}.{name}", obj)
        for owner_name, owner in [("", package), *modules.items()]:
            for name, obj in list(vars(owner).items()):
                hit = originals.get(id(obj)) if callable(obj) else None
                if hit is None or obj is not hit[2]:
                    continue
                layer, key, fn = hit
                importer = owner_name if owner_name not in ("", layer) else None
                self._patches.append((owner, name, obj))
                setattr(owner, name, self._wrap(layer, key, fn, importer))

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._patches):
            setattr(owner, name, obj)
        self._patches = []

    def self_seconds(self) -> dict[str, float]:
        """Per-layer self time: each span minus the part of its interval
        covered by its child spans."""
        children: dict[int, list[tuple[float, float]]] = {}
        for parent, _, start, end in self.spans:
            if parent is not None:
                children.setdefault(parent, []).append((start, end))
        out: dict[str, float] = {}
        for sid, (_, layer, start, end) in enumerate(self.spans):
            covered = _covered(children.get(sid, ()), start, end)
            out[layer] = out.get(layer, 0.0) + (end - start) - covered
        return out


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
