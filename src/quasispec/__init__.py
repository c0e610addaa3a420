"""Spectra and transport of 1D tight-binding chains with aperiodic potentials."""

from .bands import (
    BandSet,
    GapLabelMatch,
    band_spectrum,
    butterfly,
    gap_labels,
    hausdorff_distance,
    match_gap_labels,
    total_bandwidth,
)
from .cantor import (
    LabelSet,
    cantor_alpha,
    cantor_fourier,
    hierarchical_labels,
    sturmian_label_set,
)
from .errors import DomainError
from .ids import (
    IdsCurve,
    char_poly_value,
    count_below,
    count_below_periodic,
    eigen_count,
    free_ids,
    ids_curve,
    thouless_gamma,
)
from .potentials import (
    FIBONACCI_RULE,
    GOLDEN_MEAN,
    PERIOD_DOUBLING_RULE,
    THUE_MORSE_RULE,
    PeriodicPotential,
    PotentialSpec,
    SubstitutionRule,
    approximant_by_denominator,
    convergents,
    generate_substitution_word,
    generate_two_sided,
    letter_frequencies,
    periodic_approximant,
    sample_potential,
)
from .scattering import (
    ProfilePoint,
    ResistanceProfile,
    ScatterResult,
    landauer_trace_norm,
    min_resistance,
    resistance_profile,
    scatter,
)
from .tracemap import (
    TraceOrbit,
    bounded_spectrum,
    fibonacci_trace_orbit,
    fricke_invariant,
    gap_closing_residual,
    letter_matrix_orbit,
    thue_morse_residual,
)
from .transfer import (
    GordonResult,
    Mat2,
    MatClass,
    classify,
    gordon_ratio,
    lyapunov_estimate,
    lyapunov_grid,
    propagate,
    step_matrix,
    trace_poly,
)

__version__ = "0.1.0"
