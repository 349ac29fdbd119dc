"""Spectral toolkit for Jacobi matrices with trace-class inverse.

Computes, for operators built from a positive weight sequence with summable
reciprocals: the orthonormal polynomial family, the entire characteristic
function and second-kind numerator series, the point spectrum with its
discrete orthogonality measure, and the q-Laguerre / Jackson q-Bessel
closed forms of the geometric specialization, together with a verification
suite that cross-checks every identity numerically.
"""

from .errors import (
    CancellationFailure,
    ConvergenceFailure,
    DivergentArgument,
    JspecError,
    MassNegative,
    ParameterOutOfRange,
    SequenceError,
    TailDominates,
    TruncationTooCoarse,
)
from .sequences import (
    Explicit,
    Geometric,
    JacobiParams,
    PowerLaw,
    entries,
    entry_arrays,
    gamma_lower_bound,
    tail_sum_reciprocal,
)
from .polycore import (
    PolyEval,
    orthopoly_eval,
    second_kind_at_zero,
    trace_inverse,
    trace_inverse_routes,
    value_at_zero,
)
from .entire import (
    PowerSeriesApprox,
    SeriesEval,
    choose_truncation,
    eigenvector_entry,
    eval_series,
    eval_series_deriv,
    recurrence_residual,
    second_kind_family,
    series_coeffs,
    wronskian_residual,
)
from .spectrum import (
    AssociatedReport,
    MassData,
    SpectralData,
    TruncatedJacobi,
    associated_checks,
    char_via_second_kind,
    masses_and_vectors,
    orthonormality_check,
    point_spectrum,
    second_kind,
    second_kind_routes,
    section_eigenvalues,
    sturm_count,
    truncate,
    weyl,
)
from .qlaguerre import (
    QParams,
    basic_hypergeometric,
    char_closed_forms,
    induced_params,
    jackson_qbessel2,
    laguerre_classical,
    modified_laguerre,
    orthopoly_relation_residuals,
    q_laguerre,
    qbessel2_roots,
    qpochhammer,
    weyl_num_closed_forms,
)
from .identities import IDENTITY_IDS, IdentityReport, check, draw_params

__version__ = "0.1.0"
