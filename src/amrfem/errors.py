"""Exception types shared across the package."""

__all__ = ["MeshStateError", "SolverError", "NewtonError"]


class MeshStateError(RuntimeError):
    """Raised when a mesh operation requires state the mesh does not have
    (e.g. node enumeration on an unbalanced mesh)."""


class SolverError(RuntimeError):
    """Linear solver breakdown or failure to reach the requested residual."""


class NewtonError(SolverError):
    """Nonlinear solve diverged or hit the iteration cap.

    Carries the residual-norm history in ``trace`` so callers can log it.
    """

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = list(trace) if trace is not None else []
