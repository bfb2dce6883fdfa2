"""Exception types shared across the package."""


class SymmetryError(ValueError):
    """A polynomial expected to be symmetric is not."""


class DivisibilityError(ValueError):
    """A polynomial expected to be divisible by every variable is not."""


class VerificationFailure(Exception):
    """An identity or positivity check did not hold; carries the witness."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class InternalContradiction(Exception):
    """Two routes that must agree exactly disagreed, or a proven-positive
    quantity came out non-positive.  Always indicates a bug, never an input
    problem."""


class OutOfTheoremScope(ValueError):
    """The input is malformed or outside what the pipeline decides.  The one
    usage error: the CLI rejects it with exit code 2 before any computation,
    and reports every other exception as a failure (exit code 1)."""
