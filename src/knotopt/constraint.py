"""Edge-length and barycenter constraints, their Jacobian, and restoration.

The constraint map sends a polygon to the per-edge log ratios of current to
target edge lengths together with the length-weighted barycenter

    b = sum_I (l_I / 2) (P(head of I) + P(tail of I)),

which vanishes exactly when the curve is centered at the origin.  A trial
point produced by a line search is pulled back onto the constraint set by a
modified Newton iteration that reuses the saddle factorization of the step's
base point to apply the metric pseudoinverse of the Jacobian.
"""

from dataclasses import dataclass

import numpy as np

from .curve import Polygon
from .errors import NonConvergence
from .saddle import pseudoinverse_apply

FEASIBILITY_TOL = 1e-8
RESTORE_MAX_ITER = 5


@dataclass(frozen=True)
class ConstraintTargets:
    """Per-edge target lengths; all strictly positive."""

    lengths: np.ndarray

    def __post_init__(self):
        lengths = np.asarray(self.lengths, dtype=float)
        if lengths.ndim != 1 or np.any(lengths <= 0.0):
            raise ValueError("target lengths must be a 1-d positive array")
        lengths.setflags(write=False)
        object.__setattr__(self, "lengths", lengths)

    @property
    def total(self) -> float:
        return float(self.lengths.sum())

    @classmethod
    def from_polygon(cls, polygon: Polygon) -> "ConstraintTargets":
        return cls(polygon.edge_lengths.copy())


@dataclass(frozen=True)
class ConstraintState:
    """Log-length residuals (N,) plus the barycenter vector (m,)."""

    residual: np.ndarray
    barycenter: np.ndarray

    def stacked(self) -> np.ndarray:
        return np.concatenate((self.residual, self.barycenter))

    def max_violation(self, total_target: float) -> float:
        """Infinity norm mixing the two blocks; barycenter scaled by 1/L0."""
        res = float(np.abs(self.residual).max()) if len(self.residual) else 0.0
        bar = float(np.abs(self.barycenter).max()) / total_target
        return max(res, bar)

    def is_feasible(self, total_target: float, tol: float = FEASIBILITY_TOL) -> bool:
        return self.max_violation(total_target) <= tol


def _lengths_and_barycenter(vertices: np.ndarray):
    nxt = np.roll(vertices, -1, axis=0)
    lengths = np.linalg.norm(nxt - vertices, axis=1)
    barycenter = 0.5 * ((nxt + vertices) * lengths[:, None]).sum(axis=0)
    return lengths, barycenter


def phi(polygon_or_vertices, targets: ConstraintTargets) -> ConstraintState:
    """Constraint map: log-length residuals and barycenter."""
    v = np.asarray(getattr(polygon_or_vertices, "vertices", polygon_or_vertices), dtype=float)
    lengths, barycenter = _lengths_and_barycenter(v)
    if np.any(lengths <= 0.0) or not np.all(np.isfinite(lengths)):
        raise NonConvergence("degenerate edge lengths in constraint evaluation")
    return ConstraintState(
        residual=np.log(lengths / targets.lengths),
        barycenter=barycenter,
    )


def d_phi(polygon: Polygon) -> np.ndarray:
    """Jacobian of the constraint map, shape (N + m, N * m), vertex-major.

    Log-length row I carries +-tangent/length on the two endpoints of edge
    I; the m barycenter rows combine length variations with the direct
    vertex dependence.
    """
    n, m = polygon.num_vertices, polygon.dim
    v = polygon.vertices
    nxt_idx = np.roll(np.arange(n), -1)
    tau = polygon.tangents
    ell = polygon.edge_lengths

    jac = np.zeros((n + m, n, m))
    rows = np.arange(n)
    coef = tau / ell[:, None]
    np.add.at(jac, (rows, rows), -coef)
    np.add.at(jac, (rows, nxt_idx), coef)

    # Barycenter block: d b / d P(v) = sum over incident edges of
    # (midpoint-sum outer tangent derivative) plus the direct term.
    edge_sum = v + v[nxt_idx]
    bary = np.zeros((m, n, m))
    for k in range(m):
        contrib = 0.5 * edge_sum[:, k:k + 1] * tau
        np.add.at(bary[k], nxt_idx, contrib)
        np.add.at(bary[k], rows, -contrib)
    w = 0.5 * (ell + np.roll(ell, 1))
    for k in range(m):
        bary[k, :, k] += w
    jac[n:] = bary
    return jac.reshape(n + m, n * m)


def restore_feasibility(vertices0, targets: ConstraintTargets, saddle,
                        tol: float = FEASIBILITY_TOL,
                        max_iter: int = RESTORE_MAX_ITER):
    """Pull a trial point back onto the constraint set.

    Runs the modified Newton iteration ``Q <- Q - J_base^+ Phi(Q)`` where
    the pseudoinverse is evaluated through the saddle factorization built
    at the step's base point.  Returns ``(vertices, iterations)`` or raises
    :class:`NonConvergence` (the caller's signal to shrink the step).  The
    violation is monitored and must not increase between iterates.
    """
    v = np.asarray(vertices0, dtype=float).copy()
    shape = v.shape
    total = targets.total

    state = phi(v, targets)
    violation = state.max_violation(total)
    if violation <= tol:
        return v, 0

    for it in range(1, max_iter + 1):
        correction = pseudoinverse_apply(saddle, state.stacked())
        v = v - correction.reshape(shape)
        if not np.all(np.isfinite(v)):
            raise NonConvergence("restoration produced non-finite vertices")
        state = phi(v, targets)
        new_violation = state.max_violation(total)
        if new_violation <= tol:
            return v, it
        if new_violation >= violation:
            raise NonConvergence(
                f"restoration stalled at violation {new_violation:.3e}"
            )
        violation = new_violation
    raise NonConvergence(
        f"violation {violation:.3e} > {tol:.1e} after {max_iter} iterations"
    )
