"""Exception types shared across the package."""


class KdnlsError(Exception):
    """Base class for all package-specific errors."""


class NonFiniteError(KdnlsError):
    """An input array contains NaN or Inf where finite values are required."""


class GridTooSmallError(KdnlsError):
    """A grid has too few samples for the requested stencil or norm."""


class GridMismatchError(KdnlsError):
    """Two fields that must share a grid do not."""


class ZeroCouplingError(KdnlsError):
    """The coupling constant must be nonzero."""


class ZeroEigenvalueError(KdnlsError):
    """A spectral parameter of zero is outside the valid range."""


class ZeroAmplitudeError(KdnlsError):
    """A plane-wave background with zero amplitude has no bounded eigenfunction."""


class DegeneratePairError(KdnlsError):
    """A conjugate eigenvalue pair collapses (real or purely imaginary lambda,
    or an eigenfunction that vanishes identically)."""


class DegenerateEigenvalueError(KdnlsError):
    """Closed-form solution parameters that collapse two eigenvalues."""


class AllNodesExcludedError(KdnlsError):
    """Every interior node was excluded from a residual norm (poles everywhere)."""


class ResolutionTooCoarseError(KdnlsError):
    """The grid is too coarse to resolve the narrowest expected intensity hump."""


class InvalidConfigError(KdnlsError):
    """A job configuration is malformed (CLI exit code 2)."""


class IOFailureError(KdnlsError):
    """An artifact could not be written (CLI exit code 3)."""


class VerificationFailedError(KdnlsError):
    """An acceptance check failed (CLI exit code 4)."""
