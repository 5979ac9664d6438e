"""Exception types shared across the package."""


class KnotOptError(Exception):
    """Base class for all errors raised by this package."""


class TooFewVertices(KnotOptError):
    """A closed polygon needs at least four vertices."""


class DegenerateEdge(KnotOptError):
    """An edge has (numerically) zero length."""


class SelfIntersection(KnotOptError):
    """Two non-adjacent edges of a polygon touch or cross."""


class CoincidentPoints(KnotOptError):
    """Two evaluation points on the curve coincide up to machine scale."""


class DimensionMismatch(KnotOptError):
    """Vector or matrix dimensions are inconsistent."""


class SingularSystem(KnotOptError):
    """A linear system is singular or could not be solved to tolerance."""


class NonConvergence(KnotOptError):
    """An iterative correction did not converge within its iteration budget."""


class AlreadyColliding(KnotOptError):
    """A collision query was started from an already self-intersecting state."""


class LineSearchFailure(KnotOptError):
    """Backtracking reduced the step below the admissible minimum."""


class NewtonInnerFailure(KnotOptError):
    """The inner Newton loop of an implicit step stagnated."""
