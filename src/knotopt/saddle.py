"""Factorization and solves for the saddle system ``[[G, J^T], [J, -c I]]``.

The system is factorized once per point and reused for every solve there.
With ``c = 0`` (the default) it is the constrained projection, solved for
projected gradients ``(eta, 0)``, pseudoinverse applications ``(0, xi)``
and tangent projections ``(G u, 0)``.  With ``c = 1`` its primal block is
the metric ``G + J^T J``, since ``lam = J u`` for a right-hand side
``(eta, 0)``; the penalty methods solve their Gauss-Newton-augmented
metric this way, with ``J`` the weighted edge-length rows.

When ``G`` is a :class:`GramOperator`, i.e. ``S (x) I_m``, no
``(N*m) x (N*m)`` matrix is formed.  The N x N matrix ``S + w w^T`` (``w``
the lumped-mass weights), definite also on the constant fields where the
seminorm metrics vanish, is inverted through its Cholesky factor; the
Schur complement ``J G~^-1 J^T + c I`` is built from that inverse and the
sparsity of the length rows (row I touches vertices I and I+1 only) and
Cholesky-factorized.  A solve costs two products with the N x N inverse
(faster than two triangular solves) and one Schur solve.  The shift
``W W^T``, ``W = w (x) I_m``, is undone exactly by the Woodbury identity
from m solves at factorization time; the correction is generic in ``J``
and ``c``.  Any other metric block (the indefinite Hessians of the
implicit Euler and trust-region Newton steps) is factorized densely by LU.

Every solve is refined against the original system until the residual
drops below ``1e-10`` relative to the right-hand side.  Failure to get
there, an indefinite ``S + w w^T``, a singular factor or a singular system
(a metric ``G + J^T J`` vanishing on some field) raises
:class:`SingularSystem`; this module is where scipy's ``LinAlgError``
becomes one.  Each factorization records the largest refinement count and
final relative residual of its solves.
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
        j = np.asarray(jacobian, dtype=float)
        if len(gram.shape) != 2 or gram.shape[0] != gram.shape[1]:
            raise ValueError("metric block must be square")
        if j.ndim != 2 or j.shape[1] != gram.shape[0]:
            raise ValueError(
                f"constraint Jacobian {j.shape} incompatible with metric {gram.shape}"
            )
        if j.shape[0] == 0:
            raise ValueError("constraint block must be non-empty")

        self.gram = gram
        self.jacobian = j
        self.compliance = float(compliance)
        self.n_primal = gram.shape[0]
        self.n_dual = j.shape[0]
        self.max_refinements = 0
        self.max_residual = 0.0
        if isinstance(gram, GramOperator):
            self._factor_structured(gram)
        else:
            self._factor_dense(gram)

    def _factor_dense(self, g):
        n = self.n_primal
        a = np.zeros((n + self.n_dual,) * 2)
        a[:n, :n] = g
        a[:n, n:] = self.jacobian.T
        a[n:, :n] = self.jacobian
        a[n:, n:] -= self.compliance * np.eye(self.n_dual)
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
        n, m = gram.scalar.shape[0], gram.dim
        w = gram.weights
        what = "metric plus barycenter term"
        inv, info = scipy.linalg.lapack.dpotri(
            _cholesky(gram.scalar + np.outer(w, w), what), lower=1, overwrite_c=1)
        if info != 0:
            raise SingularSystem(f"{what} could not be inverted")
        # dpotri fills the lower triangle only.
        self._inv = np.tril(inv)
        self._inv += np.tril(inv, -1).T
        self._schur = _cholesky(self._schur_complement(n, m), "constraint Schur complement")
        # Woodbury identity for the shift U U^T, U = (w (x) I_m, 0):
        # K^-1 = K~^-1 + Y (I - U^T Y)^-1 U^T K~^-1 with Y = K~^-1 U.
        shift = np.zeros((self.n_primal + self.n_dual, m))
        shift[:self.n_primal] = np.kron(w[:, None], np.eye(m))
        self._wood_y = self._solve_shifted(shift)
        capacitance = np.eye(m) - np.tensordot(
            w, self._wood_y[:self.n_primal].reshape(n, m, m), 1)
        # Near I when the system is well posed, near 0 when it is singular.
        sv = np.linalg.svd(capacitance, compute_uv=False)
        if sv.min() <= _PIVOT_TOL * max(sv.max(), 1.0):
            raise SingularSystem("metric is singular on the constraint kernel")
        self._wood_c = np.linalg.inv(capacitance)

    def _schur_complement(self, n, m):
        """``J G~^-1 J^T + c I``, ``G~^-1 = (S + w w^T)^-1 (x) I_m``, from sparse rows.

        The first N rows are taken as banded when each row I is nonzero at
        vertices I and I+1 only (the log-length rows); every other row is
        handled densely.
        """
        j3 = self.jacobian.reshape(self.n_dual, n, m)
        ids = np.arange(n)
        nxt = np.roll(ids, -1)
        nb = 0
        if self.n_dual >= n:
            a, b = j3[ids, ids], j3[ids, nxt]
            if np.count_nonzero(j3[:n]) == np.count_nonzero(a) + np.count_nonzero(b):
                nb = n
        h = self._inv
        dense = j3[nb:]
        # t[v, r, k] = sum_u h[v, u] dense[r, u, k]
        t = (h @ dense.transpose(1, 0, 2).reshape(n, -1)).reshape(n, -1, m)
        c = np.empty((self.n_dual, self.n_dual))
        c[nb:, nb:] = np.einsum("ruk,usk->rs", dense, t)
        if nb:
            h_right = np.roll(h, -1, axis=1)  # h[I, J + 1]
            c[:nb, :nb] = ((a @ a.T) * h + (a @ b.T) * h_right
                           + (b @ a.T) * np.roll(h, -1, axis=0)
                           + (b @ b.T) * np.roll(h_right, -1, axis=0))
            c[:nb, nb:] = np.einsum("ik,irk->ir", a, t) + np.einsum("ik,irk->ir", b, t[nxt])
            c[nb:, :nb] = c[:nb, nb:].T
        c.flat[::self.n_dual + 1] += self.compliance
        return c

    def _solve_shifted(self, rhs):
        """Solve with the metric block shifted by ``W W^T``, unrefined.

        ``rhs`` holds one right-hand side or one per column.
        """
        n, size = self._inv.shape[0], self.n_primal
        cols = rhs.shape[1:]
        y = self._inv @ rhs[:size].reshape(n, -1)
        jy = self.jacobian @ y.reshape(size, *cols)
        lam = scipy.linalg.cho_solve((self._schur, True), jy - rhs[size:],
                                     check_finite=False)
        u = y - self._inv @ (self.jacobian.T @ lam).reshape(n, -1)
        return np.concatenate((u.reshape(size, *cols), lam))

    def _solve_once(self, rhs):
        if not isinstance(self.gram, GramOperator):
            return scipy.linalg.lu_solve((self._lu, self._piv), rhs, check_finite=False)
        x = self._solve_shifted(rhs)
        m = self.gram.dim
        wx = self.gram.weights @ x[:self.n_primal].reshape(-1, m)
        return x + self._wood_y @ (self._wood_c @ wx)

    def _apply(self, x):
        """The unshifted saddle matrix times ``x``."""
        u, lam = x[:self.n_primal], x[self.n_primal:]
        return np.concatenate((self.gram_apply(u) + self.jacobian.T @ lam,
                               self.jacobian @ u - self.compliance * lam))

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
