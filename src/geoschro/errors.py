"""Exception hierarchy.

Three families matter for the CLI exit-code mapping: configuration errors
(exit 1), numeric-domain errors (exit 2) and I/O errors (exit 3).  Fields are
args, so default pickling rebuilds every error, as a verify lane's error is.
"""

import reprlib


class GeoschroError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(GeoschroError):
    """Bad configuration input (file syntax, schema, unknown names)."""


class ParseError(ConfigError):
    """An input that cannot be read as given: a JSON file (config, operator,
    coefficients or summary) that is not valid JSON, a summary whose shape or
    file names `plot` cannot use, a bad command-line argument or `--tol`
    override, or a verify `--size`/`--seed` out of range (too small, negative,
    or too large to allocate).  Exit 1, like every ConfigError."""


class SchemaError(ConfigError):
    """Config violates the schema; carries a JSON pointer to the offender."""

    def __init__(self, pointer: str, message: str):
        super().__init__(pointer, message)
        self.pointer = pointer
        self.message = message

    def __str__(self) -> str:
        return f"{self.pointer}: {self.message}"


class UnknownOperator(SchemaError):
    """Hamiltonian term names neither a builtin operator nor a readable file."""


class UnknownSuite(ConfigError):
    """Verification suite name is not recognized."""


class NumericError(GeoschroError):
    """Numeric-domain failure (bad matrix, unsafe truncation, collapse...)."""


class NotHermitian(NumericError):
    """Operator not flagged Hermitian, or a matrix that is not square."""


class NotSkewHermitian(NumericError):
    """Operator not flagged skew-Hermitian."""


class ConvergenceFailure(NumericError):
    """Eigensolver did not converge."""


class BasisMismatch(NumericError):
    """Operands carry different bases (or different base points)."""


class LengthMismatch(NumericError):
    """Coefficient/coordinate lengths disagree."""


class UnsupportedBasis(NumericError):
    """Operation not defined for the given basis kind."""


class UnsafeSubspace(NumericError):
    """Vector support exceeds the truncation-safe index range."""


class DomainExhausted(NumericError):
    """Requested operator power walks out of the truncated space."""


class ZeroVector(NumericError):
    """A (near-)zero vector where a direction is required."""


class NonNegativeMu(NumericError):
    """Momentum level mu must be strictly negative."""


class NotTangent(NumericError):
    """Vector is not tangent to the momentum level set."""


class RankCollapse(NumericError):
    """Projector state lost rank-1 dominance."""


class IntegratorMismatch(NumericError):
    """Integrator cannot handle the given Hamiltonian (e.g. exact_eig with
    time-dependent coefficients)."""


class MissingInput(GeoschroError):
    """A referenced input file does not exist or cannot be read; ``reason``
    says why when it is not simply absent."""

    def __init__(self, path, reason: str | None = None):
        self.path = str(path)
        self.reason = reason
        super().__init__(self.path, reason)

    def __str__(self) -> str:
        return (f"missing input file: {quoted_path(self.path)}"
                + ("" if self.reason is None else f": {self.reason}"))


_PATHS = reprlib.Repr()
_PATHS.maxstring = 60


def quoted_path(path) -> str:
    """path as a quoted string, cut in the middle past 60 characters, so an
    error line that names it stays short whatever its length."""
    return _PATHS.repr(str(path))
