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

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

# Every name the imports above bind, less the submodules they bind as well.
__all__ = ["__version__"] + [
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
]

del _ModuleType
