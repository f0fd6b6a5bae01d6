"""Exception types shared across the library."""


class MatSharpError(Exception):
    """Base class for every error raised by matsharp."""


class ShapeError(MatSharpError, ValueError):
    """Operands are non-square or have incompatible dimensions."""


class HermitianDefectError(MatSharpError, ValueError):
    """Matrix is too far from Hermitian to symmetrize silently."""


class NotPositiveDefiniteError(MatSharpError, ValueError):
    """Matrix violates the requested positivity refinement."""


class ConvergenceError(MatSharpError, RuntimeError):
    """Eigensolver did not converge to the required residual."""


class SingularFunctionError(MatSharpError, ValueError):
    """Scalar function is undefined at an eigenvalue of the input."""


class CommutationError(MatSharpError, ValueError):
    """A matrix pair required to commute does not."""


class InvalidNormError(MatSharpError, ValueError):
    """Norm specification is malformed or out of range for the dimension."""


class UnregisteredFunctionError(MatSharpError, KeyError):
    """Function id is not in the registered convex/concave family."""


class InvalidRankError(MatSharpError, ValueError):
    """Requested rank is incompatible with the matrix dimension."""


class ConfigError(MatSharpError, ValueError):
    """Campaign configuration has a missing or invalid field."""
