"""Exception hierarchy shared by all modules, and the one warning category."""


class MopTreesError(Exception):
    """Base class for all library errors."""


class DomainError(MopTreesError):
    """Evaluation point lies on (or too close to) a forbidden set."""


class EndpointError(DomainError):
    """Evaluation point is inside the excluded neighborhood of an interval endpoint."""


class OverlapError(MopTreesError):
    """Convex hulls of measure supports intersect where disjointness is required."""


class NormalityError(MopTreesError):
    """A moment system is singular or an h-value vanishes: the multi-index is not normal."""


class PrecisionError(MopTreesError):
    """An identity that holds exactly fails beyond the bound of the working precision."""


class ConvergenceError(MopTreesError):
    """An iterative refinement failed to converge."""


class ZeroError(MopTreesError):
    """A zero set violates simplicity or localization requirements."""


class ZeroWeightError(MopTreesError):
    """A recurrence coefficient required as an edge weight vanishes."""


class AssumptionError(MopTreesError):
    """A standing assumption (real simple zeros, parent/child disjointness) fails numerically."""


class JointError(MopTreesError):
    """The requested vertex is not a joint of the given eigenvalue."""


class RankError(MopTreesError):
    """Computed eigenvectors fail to span the expected space."""


class NeutralVectorError(MopTreesError):
    """Indefinite orthogonalization produced a numerically neutral vector."""


class SeriesError(MopTreesError):
    """Power-series inversion lost all significant digits."""


class BranchError(MopTreesError):
    """Branch tracking requested too close to a branch point."""


class InvalidSurfaceError(MopTreesError):
    """Surface parameters do not produce two disjoint real cuts."""


class IntegrationWarning(UserWarning):
    """An adaptive integral stopped short of its tolerance (QUADPACK ier > 0); the value is still returned."""
