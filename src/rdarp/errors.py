"""Exception types shared across the solver."""


class RdarpError(Exception):
    """Base class for all package errors."""


class ParseError(RdarpError):
    """Malformed instance file; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class OptionError(RdarpError, ValueError):
    """A solve option the solver cannot honour; ``option`` names its field."""

    def __init__(self, option: str, message: str):
        self.option = option
        super().__init__(message)


class ValidationError(RdarpError):
    """Instance data violates a structural invariant."""


class InfeasibleRequestError(ValidationError):
    """A single request cannot be served even in isolation."""

    def __init__(self, request: int, message: str):
        self.request = request
        super().__init__(f"request {request}: {message}")


class RouteInfeasible(RdarpError):
    """A route violates a feasibility constraint.

    ``violations`` holds (node, description, lhs, rhs) tuples: the two sides of
    each violated inequality, as required for diagnostics.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(f"node {n}: {d} ({lhs:.6g} vs {rhs:.6g})" for n, d, lhs, rhs in self.violations)
        super().__init__(lines or "infeasible route")


class LpNumericalFailure(RdarpError):
    """The LP backend could not certify a status within tolerances."""
