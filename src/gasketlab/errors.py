"""Exception hierarchy shared by all gasketlab modules."""


class GasketLabError(Exception):
    """Base class for all errors raised by gasketlab."""


class NotTangent(GasketLabError):
    """Two disks (or a disk and a half-plane) fail the external tangency test."""


class TwoHalfPlanes(GasketLabError):
    """An operation received two half-planes where at most one is allowed."""


class NotPositivelyOriented(GasketLabError):
    """Tangency points of a triple are clockwise."""


class DegenerateTriple(GasketLabError):
    """Tangency points are (numerically) collinear."""


class NumericBreakdown(GasketLabError):
    """A geometric solve produced residuals beyond the trusted threshold."""


class HalfPlanePresent(GasketLabError):
    """Operation requires three bounded disks but a half-plane is present."""


class UnrepresentableImage(GasketLabError):
    """Image of a region under a Mobius map cannot be returned as disk/half-plane."""


class BudgetExceeded(GasketLabError):
    """An enumeration exceeded its configured size cap."""


class InsufficientRange(GasketLabError):
    """Not enough data points / decades for a power-law fit."""


class InsufficientSpectrum(GasketLabError):
    """Too few eigenvalues were computed for the requested analysis."""


class NotConverged(GasketLabError):
    """Iterative eigensolver failed to converge; partial results attached."""

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class DegenerateShift(GasketLabError):
    """An inertia count was asked at a shift within roundoff of an eigenvalue."""


class Disconnected(GasketLabError):
    """Free vertex set of an eigenproblem splits into several components."""

    def __init__(self, message, n_components):
        super().__init__(message)
        self.n_components = n_components


class InterlacingViolation(GasketLabError):
    """Dirichlet interlacing chain failed; index of first offender attached."""

    def __init__(self, message, index):
        super().__init__(message)
        self.index = index


class InvalidQ(GasketLabError):
    """Reflection-group parameter q must be an integer larger than 6."""


class SupportViolation(GasketLabError):
    """Test function support is not strictly inside the unit disk."""


class AboveTrustCeiling(UserWarning):
    """Eigenvalue counting was requested above the trusted part of a spectrum."""
