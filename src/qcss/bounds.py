"""Lower bounds on the correlation tolerance of sequence-set pools.

Two classical bounds are implemented: the generic one, valid for any
(K, M, N) pool, and a tighter one that needs K >= 3M, M >= 2 and N >= 2.
The optimality factor rho divides the achieved delta_max by whichever
bound applies; rho = 1 is optimal and 1 < rho <= 2 near-optimal.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import Context, Decimal, ROUND_HALF_UP, localcontext
from typing import Literal

from .errors import DegenerateParamsError, PreconditionViolatedError
from .modarith import factorize

BoundName = Literal["liu", "welch"]
Classification = Literal["optimal", "near-optimal", "not-near-optimal"]


@dataclass(frozen=True)
class QcssParams:
    """(K, M, N, delta_max) summary of a sequence-set pool."""

    set_size: int    # K, number of member sets (users)
    flock_size: int  # M, sequences per set (sub-carriers)
    length: int      # N, sequence length
    delta_max: float

    def __post_init__(self) -> None:
        if self.set_size < 1 or self.flock_size < 1 or self.length < 1:
            raise DegenerateParamsError("K, M and N must all be positive")
        if not math.isfinite(self.delta_max):
            raise DegenerateParamsError(f"delta_max must be finite, got {self.delta_max}")
        if self.delta_max < 0:
            raise DegenerateParamsError("delta_max must be non-negative")


@dataclass(frozen=True)
class OptimalityReport:
    """Achieved delta_max measured against the applicable lower bound."""

    params: QcssParams
    welch_bound: float
    liu_bound: float | None
    bound_used: BoundName
    rho: float
    classification: Classification


@dataclass(frozen=True)
class TableRow:
    """One parameter row: alphabet label, pool parameters, optimality factor."""

    alphabet: str
    n: int
    set_size: int
    flock_size: int
    length: int
    rho: float

    @property
    def rho_4dp(self) -> str:
        return format_rho(self.rho)


def welch_bound(set_size: int, flock_size: int, length: int) -> float:
    """sqrt(M * N^2 * (K - M) / (K(2N - 1) - 1)) for a (K, M, N) pool; the square
    is evaluated in decimal, so K - M is exact and nothing overflows on the way."""
    if set_size < 1 or flock_size < 1 or length < 1:
        raise DegenerateParamsError("K, M and N must all be positive")
    if set_size < flock_size:
        raise DegenerateParamsError("K < M")
    denom = set_size * (2 * length - 1) - 1
    if denom <= 0:
        raise DegenerateParamsError("K(2N - 1) - 1 must be positive")
    with localcontext(_BOUND_CONTEXT):
        return _root("Welch", Decimal(flock_size) * length**2 * (set_size - flock_size) / denom)


def liu_bound(set_size: int, flock_size: int, length: int) -> float:
    """sqrt(M * N * (1 - 2 * sqrt(M / (3K)))); valid for K >= 3M, M >= 2, N >= 2."""
    failed = [
        label
        for label, ok in (
            ("K >= 3M", set_size >= 3 * flock_size),
            ("M >= 2", flock_size >= 2),
            ("N >= 2", length >= 2),
        )
        if not ok
    ]
    if failed:
        raise PreconditionViolatedError("violated: " + ", ".join(failed))
    with localcontext(_BOUND_CONTEXT):
        ratio = Decimal(flock_size) / (3 * set_size)
        return _root("Liu", Decimal(flock_size) * length * (1 - 2 * ratio.sqrt()))


# Digits for a bound's square, twice a float's 17: its root then rounds to the
# float of the exact bound unless that lies within about 1e-33 of a tie.
_BOUND_CONTEXT = Context(prec=34)


def _root(name: str, square: Decimal) -> float:
    """The square root of a bound's square as a float, in the current context;
    DegenerateParamsError where the bound is beyond floats."""
    value = float(square.sqrt())
    if math.isinf(value):
        raise DegenerateParamsError(f"the {name} bound overflows a float for these K, M and N")
    return value


def optimality_factor(params: QcssParams) -> OptimalityReport:
    """delta_max divided by the applicable lower bound.

    The tighter bound is used whenever its region of validity covers the
    parameters; otherwise the generic one. rho below 1 is impossible for a
    true achieved maximum, so it is rejected as degenerate input.
    """
    K, M, N = params.set_size, params.flock_size, params.length
    welch = welch_bound(K, M, N)
    try:
        liu = liu_bound(K, M, N)
    except PreconditionViolatedError:
        liu = None
    bound, used = (liu, "liu") if liu is not None else (welch, "welch")
    if bound <= 0:
        raise DegenerateParamsError("lower bound is zero; optimality factor undefined")
    rho = params.delta_max / bound
    if math.isinf(rho):
        raise DegenerateParamsError(f"delta_max {params.delta_max} over the bound {bound} overflows")
    if rho < 1 - 1e-12:
        raise DegenerateParamsError(
            f"delta_max {params.delta_max} lies below the lower bound {bound}"
        )
    if abs(rho - 1) <= 1e-9:
        classification: Classification = "optimal"
    elif rho <= 2:
        classification = "near-optimal"
    else:
        classification = "not-near-optimal"
    return OptimalityReport(params, welch, liu, used, rho, classification)


def theoretical_params(n: int) -> QcssParams:
    """Pool parameters the construction achieves on Z_n: K = N(p0-1), delta = N."""
    f = factorize(n)
    return QcssParams(n * (f.least_prime - 1), n, n, float(n))


# Digits for any finite float to 4 decimals: up to 309 before the point.
_RHO_CONTEXT = Context(prec=sys.float_info.max_10_exp + 1 + 4)


def format_rho(rho: float) -> str:
    """4-decimal rendering, rounding halves away from zero."""
    return str(Decimal(repr(float(rho))).quantize(Decimal("0.0001"), ROUND_HALF_UP, _RHO_CONTEXT))


# Built-in parameter sweeps. Factor lists multiply out to the modulus; the
# first two sweeps are semiprime / squarefree families, the third squares
# of primes.
OPTIMAL_SWEEP_FACTORS: tuple[tuple[int, ...], ...] = (
    (5, 7), (7, 11), (11, 13), (13, 17), (17, 19), (19, 23), (23, 31),
    (31, 37), (37, 41), (41, 43), (43, 47), (53, 59), (61, 67), (67, 71),
    (71, 73), (73, 79), (79, 83), (83, 89), (89, 97),
)

NEAR_OPTIMAL_SWEEP_FACTORS: tuple[tuple[int, ...], ...] = (
    (3, 5), (3, 7), (3, 11), (3, 5, 7), (3, 5, 11), (3, 5, 7, 11),
    (3, 5, 7, 11, 13), (3, 5, 7, 11, 13, 17),
)

PRIME_SQUARE_SWEEP_FACTORS: tuple[tuple[int, ...], ...] = (
    (11, 11), (13, 13), (17, 17), (19, 19), (23, 23), (29, 29), (31, 31),
    (37, 37), (41, 41), (43, 43), (47, 47),
)

_SWEEPS = {
    "optimal": OPTIMAL_SWEEP_FACTORS,
    "near-optimal": NEAR_OPTIMAL_SWEEP_FACTORS,
    "prime-square": PRIME_SQUARE_SWEEP_FACTORS,
    # Roman-numeral aliases used by the command line.
    "iii": OPTIMAL_SWEEP_FACTORS,
    "iv": NEAR_OPTIMAL_SWEEP_FACTORS,
    "v": PRIME_SQUARE_SWEEP_FACTORS,
}


def table_rows(which: str) -> list[TableRow]:
    """Parameter/optimality rows for one of the built-in sweeps.

    which: "optimal" (alias "iii"), "near-optimal" ("iv"),
    or "prime-square" ("v").
    """
    try:
        factor_lists = _SWEEPS[which.lower()]
    except KeyError:
        raise DegenerateParamsError(
            f"unknown table {which!r}; expected one of {sorted(set(_SWEEPS))}"
        ) from None
    rows = []
    for factors in factor_lists:
        n = math.prod(factors)
        label = "Z_" + "*".join(str(p) for p in factors)
        params = theoretical_params(n)
        report = optimality_factor(params)
        rows.append(
            TableRow(label, n, params.set_size, params.flock_size, params.length, report.rho)
        )
    return rows
