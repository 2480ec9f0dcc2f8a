"""Exception types shared across the library."""


class PossibilityError(ValueError):
    """Base class for domain-specific failures."""


class DivergenceError(PossibilityError):
    """An information integral or distance has no finite value."""


class OrderViolationError(PossibilityError):
    """A pointwise-order precondition does not hold."""


class InfeasibleProblemError(PossibilityError):
    """No admissible distribution satisfies the given constraints.

    ``witness`` carries ``total_violation``, the exact minimum over the box
    0 <= v <= 1 of the summed constraint violation (``inf`` past the float
    range), and ``best_point``, the lexicographically largest point where
    it is reached, so a caller can inspect why the problem has no solution.
    Constraints met only by points below 1 give ``{"normalized": False}``.
    """

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class SchemaError(PossibilityError):
    """A document does not match the expected schema."""
