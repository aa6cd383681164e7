"""Exception hierarchy. Exit codes follow the CLI contract:
2 = configuration error, 3 = solver error, 4 = analysis error."""


class PolaronError(Exception):
    exit_code = 3


class ConfigurationError(PolaronError):
    """Bad physical/numerical parameters or config files."""

    exit_code = 2

    def __init__(self, message, errors=None):
        super().__init__(message)
        self.errors = list(errors) if errors else [message]


class UsageError(PolaronError):
    """Inconsistent objects passed to an operation (e.g. grid mismatch)."""

    exit_code = 3


class ConvergenceError(PolaronError):
    """Iterative solver failed to converge; carries the trailing diagnostics."""

    exit_code = 3

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class StepSizeError(PolaronError):
    """Propagator aborted; carries a suggested step size."""

    exit_code = 3

    def __init__(self, message, suggested_dt=None):
        super().__init__(message)
        self.suggested_dt = suggested_dt


class SizeError(PolaronError):
    """Basis/dimension guard exceeded."""

    exit_code = 3

    def __init__(self, message, dimension=None):
        super().__init__(message)
        self.dimension = dimension


class AccuracyError(PolaronError):
    """Internal quadrature/assembly self-check failed."""

    exit_code = 3


class AnalysisError(PolaronError):
    exit_code = 4


class FitQualityError(AnalysisError):
    """Model fit residual beyond the acceptance gate (model invalid)."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ExtractionError(AnalysisError):
    """No usable signal for frequency/peak extraction."""


def exit_code(exc):
    """The CLI's exit status for an exception that ends a run: a package
    error's own code, 2 for a missing file, 1 for any other exception (the
    CLI lets those through to the interpreter)."""
    if isinstance(exc, PolaronError):
        return exc.exit_code
    return 2 if isinstance(exc, FileNotFoundError) else 1
