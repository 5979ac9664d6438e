"""Factorization and solves for the saddle system ``[[G, J^T], [J, -c I]]``.

The system is factorized once per point and reused for every solve there.
``J`` is a :class:`~knotopt.constraint.ConstraintRows`: N length rows, plus
m barycenter rows for the constraint Jacobian.  With ``c = 0`` (the
default) the system is the constrained projection, solved for projected
gradients ``(eta, 0)``, pseudoinverse applications ``(0, xi)`` and tangent
projections ``(G u, 0)``.  With ``c = 1`` and length rows only, its primal
block is the metric ``G + J^T J``, since ``lam = J u`` for a right-hand side
``(eta, 0)``; the penalty methods solve their Gauss-Newton-augmented metric
this way, with ``J`` the weighted edge-length rows.  A compliance with
barycenter rows is rejected.

When ``G`` is a :class:`GramOperator`, i.e. ``S (x) I_m``, no
``(N*m) x (N*m)`` matrix is formed.  With barycenter rows and ``c = 0``,
``J u = xi`` fixes ``W^T u = xi_b - moments^T xi_len`` (``W = w (x) I_m``,
``w`` the rows' lumped mass), so the shift ``W W^T`` that makes
``S + w w^T`` definite on constant fields moves exactly to the right-hand
side, as ``eta + W (xi_b - moments^T xi_len)``.  Without barycenter rows
(the penalty metrics, all definite) ``S`` is not shifted.  The N x N
inverse ``H`` comes from a Cholesky factor; the Schur complement
``J (H (x) I_m) J^T + c I`` is built from the rows, its length block being
``(coef coef^T) o`` the second difference of ``H``, and Cholesky-factorized.
A solve costs two products with ``H`` and one Schur solve.  Any other
metric block (the indefinite Hessians of the implicit Euler and
trust-region Newton steps) is factorized densely by LU.

Every solve is refined against the original system until the residual
drops below ``1e-10`` relative to the right-hand side.  Failure to get
there, an indefinite metric block, a singular factor or a singular system
(rank-deficient rows, or a metric ``G + J^T J`` vanishing on some field)
raises :class:`SingularSystem`; this module is where scipy's
``LinAlgError`` becomes one.  Each factorization records the largest
refinement count and final relative residual of its solves.
"""

import numpy as np
import scipy.linalg

from .errors import SingularSystem
from .metric import GramOperator

SOLVE_TOL = 1e-10
_REFINE_MAX = 12
_PIVOT_TOL = 1e-14


def _cholesky(a, what):
    """Lower Cholesky factor of a symmetric matrix; raises when not definite."""
    try:
        factor, _ = scipy.linalg.cho_factor(a, lower=True, overwrite_a=True,
                                            check_finite=False)
    except (scipy.linalg.LinAlgError, ValueError) as exc:
        raise SingularSystem(f"{what} is not positive definite") from exc
    pivots = np.diag(factor) ** 2
    if not np.all(np.isfinite(factor)) or pivots.min() <= _PIVOT_TOL * pivots.max():
        raise SingularSystem(f"{what} is numerically singular")
    return factor


class SaddleFactorization:
    """Reusable factorization of ``[[G, J^T], [J, -c I]]`` at one base point."""

    def __init__(self, gram, jacobian, compliance: float = 0.0):
        if not isinstance(gram, GramOperator):
            gram = np.asarray(gram, dtype=float)
        if len(gram.shape) != 2 or gram.shape[0] != gram.shape[1]:
            raise ValueError("metric block must be square")
        if jacobian.shape[1] != gram.shape[0]:
            raise ValueError(
                f"constraint rows {jacobian.shape} incompatible with metric {gram.shape}"
            )
        if compliance and jacobian.moments is not None:
            raise ValueError("a compliance needs rows without the barycenter block")

        self.gram = gram
        self.jacobian = jacobian
        self.compliance = float(compliance)
        self.n_primal = gram.shape[0]
        self.n_dual = jacobian.shape[0]
        self.max_refinements = 0
        self.max_residual = 0.0
        if isinstance(gram, GramOperator):
            self._factor_structured(gram)
        else:
            self._factor_dense(gram)

    def _factor_dense(self, g):
        j = self.jacobian.dense()
        a = np.block([[g, j.T], [j, -self.compliance * np.eye(self.n_dual)]])
        try:
            self._lu, self._piv = scipy.linalg.lu_factor(a, overwrite_a=True,
                                                         check_finite=False)
        except (scipy.linalg.LinAlgError, ValueError) as exc:
            raise SingularSystem("saddle matrix could not be factorized") from exc
        diag = np.abs(np.diag(self._lu))
        if not np.all(np.isfinite(self._lu)) or diag.min() <= _PIVOT_TOL * max(diag.max(), 1.0):
            raise SingularSystem(
                "saddle matrix is singular (rank-deficient constraints or "
                "indefinite metric on the constraint kernel)"
            )

    def _factor_structured(self, gram):
        rows = self.jacobian
        scalar, what = gram.scalar, "metric"
        if rows.moments is not None:
            scalar, what = scalar + np.outer(rows.mass, rows.mass), "metric plus barycenter term"
        inv, info = scipy.linalg.lapack.dpotri(_cholesky(scalar, what),
                                               lower=1, overwrite_c=1)
        if info != 0:
            raise SingularSystem(f"{what} could not be inverted")
        # dpotri fills the lower triangle only.
        self._inv = np.tril(inv)
        self._inv += np.tril(inv, -1).T
        self._schur = _cholesky(self._schur_complement(), "constraint Schur complement")

    def _schur_complement(self):
        """``J (H (x) I_m) J^T + c I`` from the row structure."""
        rows, h = self.jacobian, self._inv
        dh = np.roll(h, -1, axis=0) - h  # H[I + 1, J] - H[I, J]
        c = (rows.coef @ rows.coef.T) * (np.roll(dh, -1, axis=1) - dh)
        if rows.moments is None:
            c.flat[::len(c) + 1] += self.compliance
            return c
        # Barycenter rows moments^T L + W^T; q = L (H w (x) I_m).
        hw = h @ rows.mass
        q = rows.coef * (np.roll(hw, -1) - hw)[:, None]
        cross = c @ rows.moments + q
        corner = rows.moments.T @ cross + q.T @ rows.moments
        corner.flat[::len(corner) + 1] += rows.mass @ hw
        return np.block([[c, cross], [cross.T, corner]])

    def _solve_once(self, rhs):
        if not isinstance(self.gram, GramOperator):
            return scipy.linalg.lu_solve((self._lu, self._piv), rhs, check_finite=False)
        rows, n = self.jacobian, len(self.jacobian.coef)
        eta, xi = rhs[:self.n_primal].reshape(n, -1), rhs[self.n_primal:]
        if rows.moments is not None:  # J u = xi fixes W^T u: the shift's exact term
            eta = eta + np.outer(rows.mass, xi[n:] - rows.moments.T @ xi[:n])
        y = self._inv @ eta
        lam = scipy.linalg.cho_solve((self._schur, True), rows.apply(y) - xi,
                                     check_finite=False)
        u = y - self._inv @ rows.apply_T(lam).reshape(n, -1)
        return np.concatenate((u.ravel(), lam))

    def _apply(self, x):
        """The saddle matrix times ``x``."""
        u, lam = x[:self.n_primal], x[self.n_primal:]
        return np.concatenate((self.gram_apply(u) + self.jacobian.apply_T(lam),
                               self.jacobian.apply(u) - self.compliance * lam))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        norm = np.linalg.norm(rhs)
        if norm == 0.0:
            return np.zeros_like(rhs)
        x = self._solve_once(rhs)
        refinements = 0
        while True:
            residual = rhs - self._apply(x)
            relative = float(np.linalg.norm(residual) / norm)
            if relative <= SOLVE_TOL:
                break
            if refinements == _REFINE_MAX:
                raise SingularSystem(
                    f"iterative refinement stalled at relative residual {relative:.3e}"
                )
            x = x + self._solve_once(residual)
            refinements += 1
        self.max_refinements = max(self.max_refinements, refinements)
        self.max_residual = max(self.max_residual, relative)
        return x

    def gram_apply(self, u: np.ndarray) -> np.ndarray:
        if isinstance(self.gram, GramOperator):
            return self.gram.apply(u)
        return self.gram @ u


def factorize(gram, jacobian, compliance: float = 0.0) -> SaddleFactorization:
    """Factorize ``[[G, J^T], [J, -compliance I]]`` for repeated solves."""
    return SaddleFactorization(gram, jacobian, compliance)


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
