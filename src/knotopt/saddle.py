"""Factorization and solves for the constrained-projection saddle system.

The block matrix ``[[G, J^T], [J, 0]]`` is factorized once per accepted
optimizer step (dense LU with partial pivoting) and then reused for all
three solve types:

  * projected gradient: right-hand side ``(eta, 0)``;
  * metric pseudoinverse of the constraint Jacobian: ``(0, xi)``;
  * tangent-space projector: ``(G u, 0)``.

Every solve is polished by iterative refinement until the residual drops
below ``1e-10`` relative to the right-hand side; failure to reach that
tolerance (or a structurally singular factor) raises
:class:`SingularSystem`.
"""

import numpy as np
import scipy.linalg

from .errors import SingularSystem

SOLVE_TOL = 1e-10
_REFINE_MAX = 12


class SaddleFactorization:
    """Reusable factorization of the KKT matrix at one base point."""

    def __init__(self, gram, jacobian):
        g = np.asarray(getattr(gram, "matrix", gram), dtype=float)
        j = np.asarray(jacobian, dtype=float)
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError("metric block must be square")
        if j.ndim != 2 or j.shape[1] != g.shape[0]:
            raise ValueError(
                f"constraint Jacobian {j.shape} incompatible with metric {g.shape}"
            )
        if j.shape[0] == 0:
            raise ValueError("constraint block must be non-empty")

        n, k = g.shape[0], j.shape[0]
        a = np.zeros((n + k, n + k))
        a[:n, :n] = g
        a[:n, n:] = j.T
        a[n:, :n] = j
        self.matrix = a
        self.gram = gram
        self.jacobian = j
        self.n_primal = n
        self.n_dual = k

        try:
            self._lu, self._piv = scipy.linalg.lu_factor(a, check_finite=False)
        except (scipy.linalg.LinAlgError, ValueError) as exc:
            raise SingularSystem("saddle matrix could not be factorized") from exc
        diag = np.abs(np.diag(self._lu))
        if not np.all(np.isfinite(self._lu)) or diag.min() <= 1e-14 * max(diag.max(), 1.0):
            raise SingularSystem(
                "saddle matrix is singular (rank-deficient constraints or "
                "indefinite metric on the constraint kernel)"
            )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        norm = np.linalg.norm(rhs)
        if norm == 0.0:
            return np.zeros_like(rhs)
        x = scipy.linalg.lu_solve((self._lu, self._piv), rhs, check_finite=False)
        for _ in range(_REFINE_MAX):
            residual = rhs - self.matrix @ x
            if np.linalg.norm(residual) <= SOLVE_TOL * norm:
                return x
            x = x + scipy.linalg.lu_solve((self._lu, self._piv), residual, check_finite=False)
        raise SingularSystem(
            f"iterative refinement stalled at relative residual "
            f"{np.linalg.norm(rhs - self.matrix @ x) / norm:.3e}"
        )

    def gram_apply(self, u: np.ndarray) -> np.ndarray:
        g = self.gram
        if hasattr(g, "apply"):
            return g.apply(u)
        return np.asarray(g) @ u


def factorize(gram, jacobian) -> SaddleFactorization:
    """Factorize ``[[G, J^T], [J, 0]]`` for repeated solves."""
    return SaddleFactorization(gram, jacobian)


def projected_gradient(fact: SaddleFactorization, eta) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``G u + J^T lam = eta``, ``J u = 0``.

    Returns ``(u, lam)``; ``u`` is the metric-orthogonal projection of the
    unconstrained gradient onto the constraint kernel.
    """
    eta = np.asarray(eta, dtype=float).ravel()
    if eta.shape[0] != fact.n_primal:
        raise ValueError(f"eta has length {eta.shape[0]}, expected {fact.n_primal}")
    rhs = np.concatenate((eta, np.zeros(fact.n_dual)))
    x = fact.solve(rhs)
    return x[:fact.n_primal], x[fact.n_primal:]


def pseudoinverse_apply(fact: SaddleFactorization, xi) -> np.ndarray:
    """Minimal-metric-norm solution of ``J u = xi``."""
    xi = np.asarray(xi, dtype=float).ravel()
    if xi.shape[0] != fact.n_dual:
        raise ValueError(f"xi has length {xi.shape[0]}, expected {fact.n_dual}")
    rhs = np.concatenate((np.zeros(fact.n_primal), xi))
    x = fact.solve(rhs)
    return x[:fact.n_primal]


def project_tangent(fact: SaddleFactorization, u_tilde) -> np.ndarray:
    """Metric-orthogonal projection of a field onto the constraint kernel."""
    u_tilde = np.asarray(u_tilde, dtype=float).ravel()
    if u_tilde.shape[0] != fact.n_primal:
        raise ValueError(
            f"field has length {u_tilde.shape[0]}, expected {fact.n_primal}"
        )
    rhs = np.concatenate((fact.gram_apply(u_tilde), np.zeros(fact.n_dual)))
    x = fact.solve(rhs)
    return x[:fact.n_primal]
