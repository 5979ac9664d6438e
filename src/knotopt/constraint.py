"""Edge-length and barycenter constraints, their Jacobian, and restoration.

The constraint map sends a polygon to the per-edge log ratios of current to
target edge lengths together with the length-weighted barycenter

    b = sum_I (l_I / 2) (P(head of I) + P(tail of I)),

which vanishes exactly when the curve is centered at the origin.  The
Jacobian is kept as :class:`ConstraintRows`, never as a dense (N + m) x (N m)
array: each length row touches the two vertices of its edge, and the
barycenter rows combine the length rows with the lumped mass.  A trial point
produced by a line search is pulled back onto the constraint set by a
modified Newton iteration that reuses the saddle factorization of the step's
base point to apply the metric pseudoinverse of the Jacobian.
"""

from dataclasses import dataclass

import numpy as np

from .curve import Polygon
from .errors import NonConvergence
from .metric import _lumped_mass_weights
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


@dataclass(frozen=True)
class ConstraintRows:
    """Constraint Jacobian rows kept as their structure; columns vertex-major.

    Length row I is ``coef_I . (e_{I+1} - e_I)``.  Given ``moments`` (N, m)
    and ``mass`` (N,), m barycenter rows follow: ``moments^T L + W^T``, with
    ``L`` the length rows and ``W = mass (x) I_m``.
    """

    coef: np.ndarray
    moments: np.ndarray | None = None
    mass: np.ndarray | None = None

    @property
    def shape(self):
        n, m = self.coef.shape
        return (n + (0 if self.moments is None else m), n * m)

    def apply(self, u) -> np.ndarray:
        """``J u`` for a vertex-major field ``u``."""
        u = np.asarray(u, dtype=float).reshape(self.coef.shape)
        lengths = np.einsum("ik,ik->i", self.coef, np.roll(u, -1, axis=0) - u)
        if self.moments is None:
            return lengths
        return np.concatenate((lengths, self.moments.T @ lengths + self.mass @ u))

    def apply_T(self, lam) -> np.ndarray:
        """``J^T lam`` as a vertex-major field."""
        lam = np.asarray(lam, dtype=float)
        n = len(self.coef)
        nu = lam[:n] if self.moments is None else lam[:n] + self.moments @ lam[n:]
        f = nu[:, None] * self.coef
        out = np.roll(f, 1, axis=0) - f
        if self.moments is not None:
            out += np.outer(self.mass, lam[n:])
        return out.ravel()

    def dense(self) -> np.ndarray:
        """The rows as a dense (rows, N * m) matrix."""
        return np.array([self.apply_T(e) for e in np.eye(self.shape[0])])


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


def d_phi(polygon: Polygon) -> ConstraintRows:
    """Jacobian of the constraint map as :class:`ConstraintRows`.

    ``d log l_I = tau_I . (dP_{I+1} - dP_I) / l_I`` gives the length rows.
    The barycenter ``b = sum_I l_I mid_I`` varies as
    ``db = sum_I l_I mid_I d log l_I + sum_v w_v dP_v``, which gives its
    moments ``l_I mid_I`` and the lumped mass ``w``.
    """
    v, ell = polygon.vertices, polygon.edge_lengths
    moments = 0.5 * (v + np.roll(v, -1, axis=0)) * ell[:, None]
    return ConstraintRows(polygon.tangents / ell[:, None], moments,
                          _lumped_mass_weights(polygon))


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
