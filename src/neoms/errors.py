"""Exception taxonomy shared by all layers.

The CLI maps these onto exit codes: configuration problems (2),
no bistability where one was required (3), numerical failures (4).
"""

from __future__ import annotations


class NeomsError(Exception):
    """Base class for all package errors."""


class NoBistabilityError(NeomsError):
    """An operation needed a fold window and the operating point has none."""


class ParameterError(NeomsError, ValueError):
    """Invalid input value. Carries the offending field name."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class ConfigError(NeomsError):
    """Malformed run configuration. Carries the source line number when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NumericalError(NeomsError):
    """Numerical failure. Carries a diagnostics mapping."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


class SingularDenominatorError(NumericalError):
    """Mechanical susceptibility denominator vanished."""


class ResidualError(NumericalError):
    """A polished root failed the polynomial residual contract."""


class EigenvalueError(NumericalError):
    """Eigenvalue computation failed; diagnostics include matrix condition."""


class StiffnessError(NumericalError):
    """Explicit integrator step size collapsed."""


class ConvergenceError(NumericalError):
    """Relaxation did not settle within its time budget. Carries the last state."""

    def __init__(self, message: str, last_state=None, diagnostics: dict | None = None):
        super().__init__(message, diagnostics)
        self.last_state = last_state


class ConsistencyError(NumericalError):
    """Steady-state cross-check failed (photon number vs cavity field)."""
