"""Exception hierarchy shared by all dgspec modules.

The CLI maps these onto its exit-code contract: parse errors exit 2,
precondition violations exit 3, numerical failures exit 4.
"""


class DgspecError(Exception):
    """Base class for all errors raised by this package."""


class EdgeListParseError(DgspecError):
    """Malformed edge-list input (bad line, duplicate edge, empty graph)."""


class PreconditionError(DgspecError):
    """An operation was called on input that violates its contract.

    Examples: building a transition matrix when some vertex has
    out-degree 0, asking for a spectral profile of a periodic graph,
    exceeding an enumeration cap without the override flag.
    """


class NumericalError(DgspecError):
    """A numerical computation failed or produced untrustworthy output."""


class SingularMatrixError(NumericalError):
    """Matrix is singular to working precision."""


class ConvergenceError(NumericalError):
    """An iterative method did not converge within its budget."""


class DefectiveMatrixError(NumericalError):
    """Matrix lacks a full set of linearly independent eigenvectors.

    Diagnosed numerically: an eigenvalue cluster's eigenvectors are
    dependent, the assembled eigenvector basis is rank deficient (smallest
    singular value below threshold) or its condition number exceeds the
    defectiveness cutoff, or two eigenvalues lie within roundoff of
    coalescing.
    """
