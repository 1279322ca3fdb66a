"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: validation errors exit 1, every other
package error (convergence, trivial limit, endpoint mismatch) exits 2, I/O
problems exit 3.
"""


class KelabError(Exception):
    """Base class for all package errors."""


class ValidationError(KelabError):
    """Invalid input data or configuration."""


class GridValidationError(ValidationError):
    """Grid does not satisfy the sampling contract."""


class PositivityError(ValidationError):
    """Kahler positivity (or conductance positivity) violated."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class ConvergenceError(KelabError):
    """Iterative solver failed to reach its tolerance."""


class TrivialLimitError(KelabError):
    """The extracted limit vanishes (no vector field to reconstruct)."""


class EndpointMismatchError(KelabError):
    """Reconstructed automorphism does not match the endpoint metrics."""
