"""Exception types shared across the package."""


class CovsteerError(Exception):
    """Base class for all package errors."""


class DimensionError(CovsteerError):
    """Field shapes disagree with the declared problem dimensions."""


class ConfigError(CovsteerError):
    """Run configuration is missing, malformed, or inconsistent."""


class PreconditionError(CovsteerError):
    """An operation's stated precondition does not hold."""


class IntegrationFailureError(CovsteerError):
    """A numerical integration failed or could not meet its error estimate."""


class SingularTransitionError(CovsteerError):
    """A transition block required to be invertible is numerically singular."""


class RiccatiNonexistenceError(CovsteerError):
    """The Riccati solution does not exist on the requested span."""


class NotControllableError(PreconditionError):
    """A matrix pair fails the required controllability rank condition."""


class InfeasibleConstructionError(CovsteerError):
    """The scalar steering construction found no admissible bump amplitude."""


class ChannelMismatchError(PreconditionError):
    """Noise channel does not coincide with the control channel as required."""


class NoConvergenceError(CovsteerError):
    """Newton iteration stalled before reaching the residual target."""

    def __init__(self, message, best_residual=None, trace=None):
        super().__init__(message)
        self.best_residual = best_residual
        self.trace = trace if trace is not None else []


class InconsistentNoiseError(PreconditionError):
    """Noise model intensities disagree with the system's D(t), nu(t)."""


class MissingCheckpointError(CovsteerError):
    """No empirical moments were recorded at the requested time."""
