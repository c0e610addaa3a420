"""Spectra and transport of 1D tight-binding chains with aperiodic potentials.

The public names load lazily: ``quasispec.band_spectrum`` imports ``bands``
on first use, so importing the package (or only its command line) does not
import every numeric module.
"""

import importlib

# Module -> the public names it exports.
_EXPORTS = {
    "bands": ("BandSet", "GapLabelMatch", "band_spectrum", "butterfly", "gap_labels",
              "hausdorff_distance", "match_gap_labels", "total_bandwidth"),
    "cantor": ("LabelSet", "cantor_alpha", "cantor_fourier", "hierarchical_labels",
               "sturmian_label_set"),
    "errors": ("DomainError",),
    "ids": ("IdsCurve", "char_poly_value", "count_below", "count_below_periodic",
            "eigen_count", "free_ids", "ids_curve", "thouless_gamma"),
    "potentials": ("FIBONACCI_RULE", "GOLDEN_MEAN", "PERIOD_DOUBLING_RULE",
                   "THUE_MORSE_RULE", "PeriodicPotential", "PotentialSpec",
                   "SubstitutionRule", "approximant_by_denominator", "convergents",
                   "generate_substitution_word", "generate_two_sided",
                   "letter_frequencies", "periodic_approximant", "sample_potential"),
    "scattering": ("ProfilePoint", "ResistanceProfile", "ScatterResult",
                   "landauer_trace_norm", "min_resistance", "resistance_profile", "scatter"),
    "tracemap": ("TraceOrbit", "bounded_spectrum", "fibonacci_trace_orbit",
                 "fricke_invariant", "gap_closing_residual", "letter_matrix_orbit",
                 "thue_morse_residual"),
    "transfer": ("GordonResult", "Mat2", "MatClass", "classify", "gordon_ratio",
                 "lyapunov_estimate", "lyapunov_grid", "propagate", "step_matrix",
                 "trace_poly"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    """Import the module behind a public name (or a module named in
    ``_EXPORTS``) on first access, and keep the result."""
    if name in _EXPORTS:
        value = importlib.import_module(f".{name}", __name__)
    elif name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
