"""Exception types shared across the symbolic and numeric layers."""


class AlgebraError(Exception):
    """Base class for all library errors."""


class ZeroPolynomial(AlgebraError):
    """An operation received an identically-zero polynomial where that is not allowed."""


class ExponentOverflow(AlgebraError):
    """A term exceeded the per-variable exponent cap (guards against runaway blowup)."""


class CoefficientOverflow(AlgebraError):
    """An exact coefficient that a numeric check needs as a float is beyond float range."""


class PoleError(AlgebraError):
    """Numeric evaluation hit (or came too close to) a zero of a denominator."""


class LambdaZeroError(AlgebraError):
    """Wave evaluation at lambda = 0 while negative powers of lambda are present."""


class NotHolomorphic(AlgebraError):
    """Seed data must depend on z (and optionally t) only."""


class NotHarmonic(AlgebraError):
    """First-step Moutard transform requires a harmonic omega."""


class NotEvolved(AlgebraError):
    """Time-dependent seed does not satisfy dp/dt = d^3 p/dz^3."""


class ResidualNonzero(AlgebraError):
    """A construction that must solve the Schroedinger equation exactly does not."""


class TemporalResidualNonzero(AlgebraError):
    """The time leg of the evolution system fails for a constructed wave."""


class AsymptoticMismatch(AlgebraError):
    """Exact scattering extraction and the numeric ray fit disagree."""
