"""Exception hierarchy shared by all fisheye modules."""


class FisheyeError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(FisheyeError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation requested too close to a pole of a special function."""


class ResonanceError(FisheyeError):
    """The drive frequency sits (numerically) on a cavity resonance."""


class CoincidentPointsError(DomainError):
    """Two-point quantity requested at coincident points (log-singular)."""


class ZeroCouplingError(DomainError):
    """A fidelity was requested for vanishing dipole-dipole coupling."""


class RangeOverflowError(FisheyeError, OverflowError):
    """A result lies outside the floating-point range."""


class NonConvergenceError(FisheyeError):
    """A series, quadrature, or iteration failed to reach its tolerance."""


class RootNotFoundError(NonConvergenceError):
    """Damped Newton iteration on the dispersion relation did not converge."""


class BranchJumpError(NonConvergenceError):
    """Continuation tracking of a guided mode jumped to a different branch."""


class EigensolveError(NonConvergenceError):
    """Dense eigendecomposition failed its residual conditioning check."""


class ThinDiskWarning(UserWarning):
    """Operating frequency too close to the first transverse cutoff pi*c/b."""
