"""Exception types shared across the package."""

from __future__ import annotations


class FoldFinderError(Exception):
    """Base class for all library errors."""


class GridMismatchError(FoldFinderError, ValueError):
    """A field does not live on the grid it is being used with."""


class ConeError(FoldFinderError, ValueError):
    """A state left the (interior of the) positive cone."""


class SigmaError(FoldFinderError, ValueError):
    """Test direction outside Sigma(u): the pairing with u^(q-1) vanishes."""


class ConvergenceError(FoldFinderError, RuntimeError):
    """An iteration hit its cap or diverged."""

    def __init__(self, message: str, *, residual: float | None = None,
                 iterations: int | None = None):
        details = []
        if residual is not None:
            details.append(f"residual={residual:.3e}")
        if iterations is not None:
            details.append(f"iterations={iterations}")
        if details:
            message = f"{message} ({', '.join(details)})"
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class SingularBorderError(FoldFinderError, RuntimeError):
    """The bordered matrix itself is (numerically) singular."""

    def __init__(self, message: str, *, condition_estimate: float | None = None):
        if condition_estimate is not None:
            message = f"{message} (condition estimate ~ {condition_estimate:.3e})"
        super().__init__(message)
        self.condition_estimate = condition_estimate


class NoFoldError(FoldFinderError, RuntimeError):
    """A branch contains no stability sign change to bisect."""
