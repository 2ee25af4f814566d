"""Exception types shared across the package.

A bad argument raises `ValueError`.  The classes here are what a caller must
tell apart from one: the CLI's exit codes, and the two `verify` outcomes that
`kdnls analyze` reports as invalid configuration rather than as a bug."""


class KdnlsError(Exception):
    """Base class for all package-specific errors."""


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
