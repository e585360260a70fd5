"""Exception types shared across the package."""


class SosXxzError(Exception):
    """Base class for all package-specific failures."""


class UnknownLeg(SosXxzError):
    """A tensor-leg label is absent from the operator it was used with."""


class DegenerateParameter(SosXxzError):
    """A sinh denominator is too close to zero for a stable evaluation,
    e.g. where coincident spectral parameters make the determinant's
    prefactor blow up."""


class FormMismatch(SosXxzError):
    """Two supposedly equivalent constructions disagree beyond tolerance."""


class NoConvergence(SosXxzError):
    """An iterative search found no verified solution."""


class NullState(SosXxzError):
    """A constructed state vector has numerically vanishing norm."""


class ConfigError(SosXxzError):
    """A run configuration failed to parse or validate."""


class BadSector(ConfigError):
    """A spin sector is outside the admissible range or has wrong parity."""
