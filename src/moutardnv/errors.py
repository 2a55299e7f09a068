"""Exception types shared across the symbolic and numeric layers."""


class AlgebraError(Exception):
    """Base class for all library errors."""


class ZeroPolynomial(AlgebraError):
    """An operation received an identically-zero polynomial where that is not allowed."""


class ExponentOverflow(AlgebraError):
    """A term exceeded the per-variable exponent cap (guards against runaway blowup)."""


class CoefficientOverflow(AlgebraError):
    """A coefficient, or a value on a check's grid or rays, that a numeric check
    reads as a float is beyond float range."""


class ResidualNonzero(AlgebraError):
    """A construction that must solve the Schroedinger equation exactly does not."""


class TemporalResidualNonzero(AlgebraError):
    """The time leg of the evolution system fails for a constructed wave."""


class AsymptoticMismatch(AlgebraError):
    """Exact scattering extraction and the numeric ray fit disagree."""
