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

``G`` is a :class:`GramOperator`, i.e. ``S (x) I_m``, and no
``(N*m) x (N*m)`` matrix is formed.  With barycenter rows and ``c = 0``,
``J u = xi`` fixes ``W^T u = xi_b - moments^T xi_len`` (``W = w (x) I_m``,
``w`` the rows' lumped mass), so the shift ``W W^T`` that makes
``S + w w^T`` definite on constant fields moves exactly to the right-hand
side, as ``eta + W (xi_b - moments^T xi_len)``.  Without barycenter rows
(the penalty metrics, all definite) ``S`` is not shifted.  The N x N
inverse ``H`` comes from a Cholesky factor; the Schur complement
``J (H (x) I_m) J^T + c I`` is built from the rows, its length block being
``(coef coef^T) o`` the second difference of ``H``, and Cholesky-factorized.
Both factorizations run in place on F-ordered arrays, so a factorization
holds at most three N x N arrays at a time.  A solve costs two products
with ``H`` and one Schur solve.

Every solve is refined against the original system until the residual
drops below ``1e-10`` relative to the right-hand side, or, once a
refinement no longer halves it, until it is no larger than rounding makes
it: ``|r| <= c u (|A| |x| + |b|)``, a normwise backward error of at most
``c u`` (``u`` the unit roundoff, ``c = 16``, ``|A|`` the saddle matrix's
infinity norm, computed once per factorization when first needed).  At
large N the W^{3/2} systems reach that floor above ``1e-10``.  A
refinement that stalls above it, an indefinite metric block, a singular
factor or a singular system (rank-deficient rows, or a metric
``G + J^T J`` vanishing on some field) raises :class:`SingularSystem`;
this module is where scipy's ``LinAlgError`` becomes one.  Each
factorization records the largest refinement count and final relative
residual of its solves.
"""

from functools import cached_property

import numpy as np
import scipy.linalg

from .energy import _row_slices
from .errors import SingularSystem
from .metric import GramOperator

SOLVE_TOL = 1e-10
_REFINE_MAX = 12
# c u of the backward-error stop: 16 unit roundoffs.
_BACKWARD_TOL = 8.0 * np.finfo(float).eps
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


def _mirror_lower(a):
    """Copy the strict lower triangle of a square array onto its upper one."""
    for block in _row_slices(len(a)):
        a[block, block.stop:] = a[block.stop:, block].T
        diag = a[block, block]
        upper = np.triu_indices(len(diag), 1)
        diag[upper] = diag.T[upper]


class SaddleFactorization:
    """Reusable factorization of ``[[G, J^T], [J, -c I]]`` at one base point."""

    def __init__(self, gram, jacobian, compliance: float = 0.0):
        if not isinstance(gram, GramOperator):
            raise ValueError(f"metric block must be a GramOperator, got {type(gram).__name__}")
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
        self._factor(gram)

    def _factor(self, gram):
        rows = self.jacobian
        # LAPACK factorizes and inverts an F-ordered array in place.
        work, what = np.array(gram.scalar, order="F"), "metric"
        if rows.moments is not None:
            what = "metric plus barycenter term"
            for cols in _row_slices(len(work)):
                work[:, cols] += np.multiply.outer(rows.mass, rows.mass[cols])
        inv, info = scipy.linalg.lapack.dpotri(_cholesky(work, what),
                                               lower=1, overwrite_c=1)
        if info != 0:
            raise SingularSystem(f"{what} could not be inverted")
        # dpotri fills the lower triangle only.  The symmetric result's
        # transpose is C-ordered, which the solve products expect.
        _mirror_lower(inv)
        self._inv = inv.T
        self._schur = _cholesky(self._schur_complement(), "constraint Schur complement")

    def _schur_complement(self):
        """``J (H (x) I_m) J^T + c I`` from the row structure, F-ordered."""
        rows, h = self.jacobian, self._inv
        n = len(h)
        # dh = H[I + 1, J] - H[I, J], then c = dh[I, J + 1] - dh[I, J],
        # both cyclic.
        dh = np.empty_like(h)
        np.subtract(h[1:], h[:-1], out=dh[:-1])
        np.subtract(h[0], h[-1], out=dh[-1])
        c = np.empty_like(h)
        np.subtract(dh[:, 1:], dh[:, :-1], out=c[:, :-1])
        np.subtract(dh[:, 0], dh[:, -1], out=c[:, -1])
        del dh
        c *= rows.coef @ rows.coef.T
        out = np.empty((self.n_dual, self.n_dual), order="F")
        if rows.moments is None:
            c.flat[::n + 1] += self.compliance
            out[...] = c
            return out
        # Barycenter rows moments^T L + W^T; q = L (H w (x) I_m).
        hw = h @ rows.mass
        q = rows.coef * (np.roll(hw, -1) - hw)[:, None]
        cross = c @ rows.moments + q
        corner = rows.moments.T @ cross + q.T @ rows.moments
        corner.flat[::len(corner) + 1] += rows.mass @ hw
        out[:n, :n] = c
        out[:n, n:] = cross
        out[n:, :n] = cross.T
        out[n:, n:] = corner
        return out

    def _solve_once(self, rhs):
        rows, n = self.jacobian, len(self.jacobian.coef)
        eta, xi = rhs[:self.n_primal].reshape(n, -1), rhs[self.n_primal:]
        if rows.moments is not None:  # J u = xi fixes W^T u: the shift's exact term
            eta = eta + np.outer(rows.mass, xi[n:] - rows.moments.T @ xi[:n])
        y = self._inv @ eta
        lam, info = scipy.linalg.lapack.dpotrs(self._schur, rows.apply(y) - xi,
                                               lower=1)
        if info != 0:
            raise SingularSystem(f"Schur complement solve failed (info {info})")
        u = y - self._inv @ rows.apply_T(lam).reshape(n, -1)
        return np.concatenate((u.ravel(), lam))

    @cached_property
    def _norm(self):
        """Infinity norm of the saddle matrix, which bounds its 2-norm."""
        rows, n = self.jacobian, len(self.jacobian.coef)
        scalar = self.gram.scalar
        metric = np.concatenate([np.abs(scalar[block]).sum(axis=1)
                                 for block in _row_slices(n)])
        # |J| summed down each column (a vertex-major field) and along each
        # row: length row I is coef_I at vertex I + 1 and -coef_I at I.
        coef = np.abs(rows.coef)
        down, along = coef + np.roll(coef, 1, axis=0), list(2.0 * coef.sum(axis=1))
        for k in range(n, self.n_dual):
            unit = np.zeros(self.n_dual)
            unit[k] = 1.0
            row = np.abs(rows.apply_T(unit)).reshape(coef.shape)
            down += row
            along.append(row.sum())
        return max(float((metric[:, None] + down).max()), max(along) + self.compliance)

    def _apply(self, x):
        """The saddle matrix times ``x``."""
        u, lam = x[:self.n_primal], x[self.n_primal:]
        return np.concatenate((self.gram.apply(u) + self.jacobian.apply_T(lam),
                               self.jacobian.apply(u) - self.compliance * lam))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        norm = float(np.linalg.norm(rhs))
        if norm == 0.0:
            return np.zeros_like(rhs)
        x = self._solve_once(rhs)
        refinements, last = 0, np.inf
        while True:
            residual = rhs - self._apply(x)
            size = float(np.linalg.norm(residual))
            relative = size / norm
            if relative <= SOLVE_TOL:
                break
            # A refinement that no longer halves the residual has met the
            # rounding floor; it is good enough if that floor is.
            if 2.0 * size > last and size <= _BACKWARD_TOL * (
                    self._norm * np.linalg.norm(x) + norm):
                break
            if refinements == _REFINE_MAX:
                raise SingularSystem(
                    f"iterative refinement stalled at relative residual {relative:.3e}"
                )
            x = x + self._solve_once(residual)
            refinements += 1
            last = size
        self.max_refinements = max(self.max_refinements, refinements)
        self.max_residual = max(self.max_residual, relative)
        return x


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
    return projected_gradient(fact, fact.gram.apply(u_tilde))[0]
