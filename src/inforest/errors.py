"""Exception types shared across the library.

Every error carries a short machine-readable ``code`` (used by the CLI in
``error:<code>:`` stderr lines) and the CLI exit status it maps to.
"""


class InforestError(Exception):
    """Base class for all library errors."""

    code = "error"
    exit_code = 1


class TooFewVerticesError(InforestError):
    """Graphs need at least two vertices."""

    code = "too-few-vertices"


class LoopArcError(InforestError):
    """Arcs from a vertex to itself are forbidden."""

    code = "loop-arc"


class NonPositiveWeightError(InforestError):
    """Arc weights must be positive (and finite)."""

    code = "nonpositive-weight"


class VertexOutOfRangeError(InforestError):
    """A vertex index fell outside the graph's vertex set."""

    code = "vertex-out-of-range"


class GraphFormatError(InforestError):
    """Malformed graph text or JSON input."""

    code = "format"


class BadParametersError(InforestError, ValueError):
    """Invalid generator, series or command parameters."""

    code = "bad-parameters"


class EpsilonOutOfRangeError(InforestError):
    """The walk parameter must satisfy 0 < eps * max out-weight < 1."""

    code = "epsilon-out-of-range"


class SingularMatrixError(InforestError):
    """Inversion was requested for a singular matrix."""

    code = "singular-matrix"


class NotConvergedError(InforestError):
    """A truncated series ran out of terms before reaching tolerance."""

    code = "not-converged"
    exit_code = 2


class InstanceTooLargeError(InforestError):
    """The instance exceeds a size limit: the vertex limit of a graph, the
    enumeration cap, or the digits Python prints."""

    code = "instance-too-large"
    exit_code = 2


class InconsistentWithTheoremError(InforestError):
    """An exact-arithmetic identity that must hold was violated.

    This never signals bad input; it signals an implementation bug and is
    surfaced with its own exit code so harnesses can distinguish it.
    """

    code = "inconsistent-with-theorem"
    exit_code = 3
