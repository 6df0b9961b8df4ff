"""Exception types shared across the package."""


class SolverError(RuntimeError):
    """Base class for numerical failures (nonconvergence, singular systems)."""


class DomainError(ValueError):
    """Invalid domain specification or a point outside its admissible set."""


class GridResolutionError(SolverError):
    """A stencil or sample point cannot be placed at the current resolution."""


class EllipticityError(SolverError):
    """Coefficient matrix field is not positive definite at some node."""


class SingularSystemError(SolverError):
    """Linear system is singular or too ill-conditioned to trust."""


class NewtonDivergenceError(SolverError):
    """Newton iteration failed to reach the residual tolerance."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class ConvexityLossError(SolverError):
    """Damping could not restore a convex iterate."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []


class ContinuationError(SolverError):
    """Outer continuation failed to converge after step halving."""

    def __init__(self, message, last_good_t=0.0, trace=None):
        super().__init__(message)
        self.last_good_t = last_good_t
        self.trace = list(trace) if trace is not None else []


class WFloorError(SolverError):
    """w fell below its positivity floor.

    Raised by `solve_second_bvp` on an interval only, where it is the
    closed-form nonexistence verdict (exit code 4 in the command line
    interface), and by `phi_map` for an iterate below the floor.
    """

    def __init__(self, message, last_good_t=0.0, w_min=None, trace=None):
        super().__init__(message)
        self.last_good_t = last_good_t
        self.w_min = w_min
        self.trace = list(trace) if trace is not None else []


class ExpressionError(ValueError):
    """Malformed expression; carries the offending position."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class ConfigError(ValueError):
    """Malformed run configuration; carries the offending line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
