"""Complementary code families over Z_N for odd N.

Construction of phase-matrix families with ideal flock-summed correlation,
exhaustive verification of their correlation structure, and the lower
bounds that score the pooled families.
"""

from .bounds import (
    OptimalityReport,
    QcssParams,
    TableRow,
    format_rho,
    liu_bound,
    optimality_factor,
    table_rows,
    theoretical_params,
    welch_bound,
)
from .codebook import (
    PhaseMatrix,
    SequenceFamily,
    build_ccc,
    build_qcss,
    build_set,
    phase,
)
from .correlation import (
    CccReport,
    CorrelationProfile,
    CorrelationReport,
    IntersetReport,
    aperiodic_xcorr,
    delta_max_exact,
    delta_max_scan,
    roots_of_unity,
    rows_to_complex,
    set_xcorr,
    set_xcorr_profile,
    verify,
    verify_ccc,
    verify_ccc_exact,
    verify_interset,
    verify_intersets_exact,
    xcorr_all_shifts_fft,
)
from .errors import (
    BadFamilyIndexError,
    DegenerateParamsError,
    EvenModulusError,
    FamilyMismatchError,
    LengthMismatchError,
    ModulusTooSmallError,
    NotCoprimeError,
    NotPrimeError,
    OutOfRangeError,
    PreconditionViolatedError,
    QcssError,
    ShapeMismatchError,
    ShiftOutOfRangeError,
)
from .modarith import (
    Factorization,
    Permutation,
    UniqueSolutionReport,
    default_exponent,
    factorize,
    pi_perm,
    power_perm,
    verify_unique_solution,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # modarith
    "Factorization",
    "Permutation",
    "UniqueSolutionReport",
    "factorize",
    "power_perm",
    "default_exponent",
    "pi_perm",
    "verify_unique_solution",
    # codebook
    "PhaseMatrix",
    "SequenceFamily",
    "phase",
    "build_set",
    "build_ccc",
    "build_qcss",
    # correlation
    "CorrelationProfile",
    "CorrelationReport",
    "CccReport",
    "IntersetReport",
    "roots_of_unity",
    "rows_to_complex",
    "aperiodic_xcorr",
    "xcorr_all_shifts_fft",
    "set_xcorr",
    "set_xcorr_profile",
    "verify_ccc",
    "verify_interset",
    "delta_max_scan",
    "verify_ccc_exact",
    "verify_intersets_exact",
    "delta_max_exact",
    "verify",
    # bounds
    "QcssParams",
    "OptimalityReport",
    "TableRow",
    "welch_bound",
    "liu_bound",
    "optimality_factor",
    "theoretical_params",
    "table_rows",
    "format_rho",
    # errors
    "QcssError",
    "EvenModulusError",
    "ModulusTooSmallError",
    "OutOfRangeError",
    "ShapeMismatchError",
    "NotPrimeError",
    "NotCoprimeError",
    "BadFamilyIndexError",
    "ShiftOutOfRangeError",
    "LengthMismatchError",
    "FamilyMismatchError",
    "DegenerateParamsError",
    "PreconditionViolatedError",
]
