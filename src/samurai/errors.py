"""Exception types shared across the package."""


class SamuraiError(Exception):
    """Base class for all package errors."""


class DomainError(SamuraiError, ValueError):
    """An argument fell outside its mathematical domain."""


class GridMismatchError(SamuraiError, ValueError):
    """Two tabulated objects do not share a common grid."""


class LambdaValidationError(SamuraiError, ValueError):
    """A candidate loss function violates the admissibility clauses.

    `violations` is a list of Violation records, one per failed clause,
    each carrying a witness point.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        detail = "; ".join(
            f"{v.clause} at x={v.x:.6g} ({v.detail})" for v in self.violations
        )
        super().__init__(f"loss function rejected: {detail}")


class PreconditionError(SamuraiError, RuntimeError):
    """An operation was called on inputs that fail its stated precondition."""

    def __init__(self, message, certificate=None):
        self.certificate = certificate
        super().__init__(message)


class GuaranteeError(SamuraiError, RuntimeError):
    """An operation's output failed one of the guarantees it promises."""


class InstanceSizeError(SamuraiError, ValueError):
    """A discrete instance would require too many candidates to enumerate."""

    def __init__(self, estimate, limit):
        self.estimate = estimate
        self.limit = limit
        super().__init__(
            f"instance would enumerate ~{estimate:.3g} candidates "
            f"(limit {limit:.3g}); shrink the lattice"
        )


class RoundingError(SamuraiError, ValueError):
    """A mechanism is too far off the instance lattice for a meaningful verdict."""
