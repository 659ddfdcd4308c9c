"""Exception types shared across the package."""


class FbsdeError(Exception):
    """Base class for all package errors."""


class DegenerateDiffusionError(FbsdeError):
    """The diffusion matrix lost uniform ellipticity at some sample point."""


class NonFiniteShiftError(FbsdeError):
    """The jump coefficient returned a NaN or infinite shift."""


class LinearSolveError(FbsdeError):
    """An implicit linear solve failed or did not converge."""


class BlowUpError(FbsdeError):
    """A marching solution produced non-finite values.

    Carries the offending time level in ``level``.
    """

    def __init__(self, message: str, level: int):
        super().__init__(message)
        self.level = level


class ConfigError(FbsdeError, ValueError):
    """Invalid run configuration or config-file syntax.

    Also a ``ValueError``, so callers that catch bad values catch it too.
    """


class ShapeError(FbsdeError, ValueError):
    """A callable returned an array of the wrong size; the message names it.

    A program fault rather than bad configuration, and also a
    ``ValueError``, like :class:`ConfigError`.
    """
