"""Exception types shared across the package."""


class KernelSpectraError(Exception):
    """Base class for all package-specific errors."""


class EnvelopeError(KernelSpectraError):
    """Envelope produced a non-finite value; carries the offending entry."""

    def __init__(self, message: str, i: int | None = None, j: int | None = None,
                 x: float | None = None):
        super().__init__(message)
        self.i = i
        self.j = j
        self.x = x


class CapabilityError(KernelSpectraError):
    """Requested computation is not available for the given inputs."""


class DerivativeError(CapabilityError):
    """Derivative value unavailable and numeric differentiation failed."""


class DegeneracyError(KernelSpectraError):
    """Moment problem degenerate: measure supported on too few points."""


class SolverError(KernelSpectraError):
    """The limit law could not be computed where it was asked for.

    Raised when a point has no unique root of the functional equation's
    cubic with Im m > 0, and when a grid misses part of the law's mass.
    """

    def __init__(self, message: str, z: complex | None = None,
                 residual: float | None = None):
        super().__init__(message)
        self.z = z
        self.residual = residual


class NumericalError(KernelSpectraError):
    """A dense linear-algebra routine failed or failed its own check.

    Raised by ``eigenvalues`` when the eigensolver does not converge or the
    eigenvalue sum misses the trace. The message names the failure only;
    ``run_universality`` records the trial and ensemble next to it.
    """
