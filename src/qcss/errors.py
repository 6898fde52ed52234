"""Exception types shared across the package.

Everything derives from QcssError (a ValueError), so callers that do not
care about the distinctions can catch one type.
"""


class QcssError(ValueError):
    """Base class for all domain errors raised by this package."""


class EvenModulusError(QcssError):
    """The modulus must be odd."""


class ModulusTooSmallError(QcssError):
    """The modulus must be at least 3."""


class OutOfRangeError(QcssError):
    """An index fell outside Z_N."""


class ShapeMismatchError(QcssError):
    """A table or array does not match the expected layout."""


class NotPrimeError(QcssError):
    """An odd prime was required."""


class NotCoprimeError(QcssError):
    """gcd(p-1, e) = 1 was required."""


class BadFamilyIndexError(QcssError):
    """The family index k must lie in [1, p0)."""


class ShiftOutOfRangeError(QcssError):
    """|tau| must be at most N-1."""


class LengthMismatchError(QcssError):
    """Sequences or matrices of equal length were required."""


class FamilyMismatchError(QcssError):
    """Inter-set checks need two distinct-index families over the same Z_N."""


class DegenerateParamsError(QcssError):
    """Bound parameters for which the formula is undefined or vacuous."""


class PreconditionViolatedError(QcssError):
    """A bound was requested outside its region of validity."""
