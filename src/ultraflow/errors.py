"""Exception and warning taxonomy shared across the package.

Validation failures raise ``DomainError`` or ``ShapeError`` (both
``ValueError`` subclasses, so generic callers can catch one type).
Runtime breakdowns of a numerical procedure raise ``NumericalError``.

A result outside its accuracy guarantee is still returned, with an
``AccuracyWarning`` from ``_warn``, the one place that issues it.  The
warning names the innermost line outside the package, the line that called
the entry point, however deep inside the package the check ran.  The checks
sit in the entry points, not in the bodies they share, so one call warns
once per cause.  A flow run warns once, not per record or per rule it
builds, and a ``resample`` key once, when the key changes.
"""
from __future__ import annotations

import sys
import warnings


class DomainError(ValueError):
    """A parameter lies outside the mathematical domain of an operation."""


class ShapeError(ValueError):
    """An array argument does not match the expected discretization."""


class AliasingError(ValueError):
    """A spectral truncation order is too high for the quadrature in use."""


class FunctionSpecError(ValueError):
    """A function-spec string failed to parse.

    Attributes
    ----------
    position : int
        Zero-based index into the source string where parsing failed.
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NumericalError(RuntimeError):
    """A numerical procedure failed to produce a trustworthy result."""


class PositivityError(NumericalError):
    """A flow state lost positivity.

    Attributes
    ----------
    t : float
        Flow time at which the failure was detected.
    partial : object or None
        Trace of the run up to the failure, attached by the flow drivers
        when at least one state was recorded before the breakdown.
    """

    def __init__(self, t: float, detail: str = ""):
        msg = f"positivity lost at t={t:.6g}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.t = t
        self.partial = None


class AccuracyWarning(UserWarning):
    """The requested operation is running outside its accuracy guarantees."""


def _warn(message: str) -> None:
    """Issue ``AccuracyWarning(message)`` at the innermost frame outside the package."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__", "").startswith(f"{__package__}."):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, AccuracyWarning, stacklevel=level)
