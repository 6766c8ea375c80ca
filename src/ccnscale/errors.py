"""Exception types shared across the package."""


class CcnScaleError(Exception):
    """Base class for package-specific errors."""


class InfeasibleError(CcnScaleError):
    """An allocation problem has no feasible point (budget below the floor)."""


class UnsupportedRegimeError(CcnScaleError):
    """Parameters fall outside the regimes a closed form covers."""


class NoHolderError(CcnScaleError):
    """A request has no eligible holder and no base station to route to."""


class SolverError(CcnScaleError, ArithmeticError):
    """A solution failed its KKT optimality certificate."""


class ConfigError(CcnScaleError):
    """A sweep configuration file is malformed; carries a line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")
