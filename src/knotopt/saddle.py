"""Factorization and solves for the saddle system ``[[G, J^T], [J, -c I]]``.

The system is factorized once per point and reused for every solve there.
``J`` is a :class:`~knotopt.constraint.ConstraintRows`: N length rows, plus
m barycenter rows for the constraint Jacobian.  With ``c = 0`` (the
default) the system is the constrained projection, solved for projected
gradients ``(eta, 0)``, pseudoinverse applications ``(0, xi)`` and tangent
projections ``(G u, 0)``.  With ``c = 1`` the primal block is the metric
``G + J^T J``, since ``lam = J u`` for a right-hand side ``(eta, 0)``; the
penalty methods solve their Gauss-Newton-augmented metric this way, with
``J`` the weighted edge-length rows.

``G`` is a :class:`GramOperator`, i.e. ``S (x) I_m``, and no
``(N*m) x (N*m)`` matrix is formed.  ``S`` must be definite, as every Gram
of ``assemble_gram`` is, and is factorized as given, whatever the rows and
the compliance.  The N x N inverse ``H`` comes from a Cholesky factor; the
Schur complement ``J (H (x) I_m) J^T + c I`` is built from the rows, its
length block being ``(coef coef^T) o`` the second difference of ``H``, and
Cholesky-factorized.  A solve costs two products with ``H`` and one Schur
solve.  :meth:`SaddleFactorization.with_rows` factorizes the same metric
with other rows: it shares ``G`` and ``H`` and builds only the new Schur
complement, which is how penalized L-BFGS keeps its first metric.

Buffers: ``factorize`` allocates only its inverse and its Schur factor,
``with_rows`` only its Schur factor, and neither allocates when the
optimizer has retired the last iterate's.  ``_retire`` hands back only the
arrays a factorization owns: the metric's, the inverse and the Schur factor
of one made by ``factorize``, the Schur factor alone of one made by
``with_rows`` or of one whose metric and inverse are kept for later
``with_rows`` calls, so a shared metric and inverse never go to the next
build.  The metric is copied into the inverse's F-ordered array, which is
factorized and inverted in place; the Schur complement is written a row
block at a time into its factor's array, through the thread's block
scratch, and factorized in place.

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
this module is where scipy's ``LinAlgError`` becomes one.  A right-hand
side with a NaN or an infinity raises ``ValueError`` before any work.  Each
factorization records the largest refinement count and final relative
residual of its solves.
"""

from functools import cached_property

import numpy as np
import scipy.linalg

from .energy import _block_tables, _retire as _retire_arrays, _reuse, _row_slices
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
    # A factorization that LAPACK accepts has finite entries below a finite
    # diagonal: a non-finite one reaches a later pivot, which it rejects.
    pivots = np.diag(factor) ** 2
    if not np.all(np.isfinite(pivots)) or pivots.min() <= _PIVOT_TOL * pivots.max():
        raise SingularSystem(f"{what} is numerically singular")
    return factor


def _mirror_lower(a):
    """Copy the strict lower triangle of a square array onto its upper one."""
    work = _block_tables(len(a), 1)[0]
    for block in _row_slices(len(a)):
        size = block.stop - block.start
        lower = work[:size, :len(a) - block.stop]
        np.copyto(lower, a[block.stop:, block].T)
        a[block, block.stop:] = lower
        diag = a[block, block]
        upper = np.triu_indices(len(diag), 1)
        diag[upper] = diag.T[upper]


class SaddleFactorization:
    """Reusable factorization of ``[[G, J^T], [J, -c I]]`` at one base point."""

    def __init__(self, gram, jacobian, compliance: float = 0.0):
        if not isinstance(gram, GramOperator):
            raise ValueError(f"metric block must be a GramOperator, got {type(gram).__name__}")
        self.gram = gram
        self.compliance = float(compliance)
        self.n_primal = gram.shape[0]
        self._set_rows(jacobian)
        self._factor(gram)

    def _set_rows(self, jacobian):
        if jacobian.shape[1] != self.n_primal:
            raise ValueError(
                f"constraint rows {jacobian.shape} incompatible with metric {self.gram.shape}"
            )
        self.jacobian = jacobian
        self.n_dual = jacobian.shape[0]
        self.max_refinements = 0
        self.max_residual = 0.0

    def with_rows(self, jacobian) -> "SaddleFactorization":
        """The factorization of the same metric with the rows ``jacobian``.

        It shares ``gram`` and the inverse, and builds and owns only its
        Schur factor.
        """
        fact = object.__new__(type(self))
        fact.gram, fact.compliance, fact.n_primal = self.gram, self.compliance, self.n_primal
        fact._set_rows(jacobian)
        fact._inv = self._inv
        fact._arrays = (fact._factor_schur(),)
        return fact

    def _factor(self, gram):
        scalar = gram.scalar
        n = len(scalar)
        # LAPACK factorizes and inverts an F-ordered array in place; S is
        # symmetric, so its rows are the columns of the F-ordered copy.
        work = _reuse((n, n), "F")
        np.copyto(work.T, scalar)
        inv, info = scipy.linalg.lapack.dpotri(_cholesky(work, "metric"),
                                               lower=1, overwrite_c=1)
        if info != 0:
            raise SingularSystem("metric could not be inverted")
        # dpotri fills the lower triangle only.  The symmetric result's
        # transpose is C-ordered, which the solve products expect.
        _mirror_lower(inv)
        self._inv = inv.T
        self._arrays = (scalar, inv, self._factor_schur())

    def _factor_schur(self):
        """Build and factorize the Schur complement; returns its F-ordered array."""
        schur = _reuse((self.n_dual, self.n_dual), "F")
        self._schur = _cholesky(self._schur_complement(schur),
                                "constraint Schur complement")
        return schur

    def _schur_complement(self, out):
        """``J (H (x) I_m) J^T + c I`` from the row structure, into F-ordered ``out``."""
        rows, h = self.jacobian, self._inv
        n = len(h)
        # c[I, J] = dh[I, J + 1] - dh[I, J] with dh[I, J] = H[I + 1, J] - H[I, J],
        # both cyclic.  H is symmetric, so dh[I, J] = D[J, I] for the row
        # differences D[J, I] = H[J, I + 1] - H[J, I], and column J of c is
        # D[J + 1] - D[J]: a row block of D and the row after it give a block
        # of columns of ``out``.
        columns = out.T
        tables = _block_tables(n, 3)
        diff, products = tables[:2].reshape(-1, n), tables[2]
        for block in _row_slices(n):
            size, after = block.stop - block.start, block.stop % n
            d = diff[:size + 1]
            for dst, src in ((d[:size], h[block]), (d[size:], h[after:after + 1])):
                np.subtract(src[:, 1:], src[:, :-1], out=dst[:, :-1])
                np.subtract(src[:, :1], src[:, -1:], out=dst[:, -1:])
            c = columns[block, :n]
            np.subtract(d[1:], d[:-1], out=c)
            c *= np.matmul(rows.coef[block], rows.coef.T, out=products[:size])
        if rows.moments is not None:
            # Barycenter rows moments^T L + W^T; q = L (H w (x) I_m).
            hw = h @ rows.mass
            q = rows.coef * (np.roll(hw, -1) - hw)[:, None]
            cross = out[:n, :n] @ rows.moments + q
            corner = rows.moments.T @ cross + q.T @ rows.moments
            corner.flat[::len(corner) + 1] += rows.mass @ hw
            out[:n, n:] = cross
            out[n:, :n] = cross.T
            out[n:, n:] = corner
        out.flat[::self.n_dual + 1] += self.compliance
        return out

    def _solve_once(self, rhs):
        rows, n = self.jacobian, len(self.jacobian.coef)
        eta, xi = rhs[:self.n_primal].reshape(n, -1), rhs[self.n_primal:]
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
        scalar, work = self.gram.scalar, _block_tables(n, 1)[0]
        metric = np.concatenate([
            np.abs(scalar[block], out=work[:block.stop - block.start]).sum(axis=1)
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
        if not np.all(np.isfinite(rhs)):
            raise ValueError("right-hand side has non-finite entries")
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
    """Factorize ``[[G, J^T], [J, -compliance I]]`` for repeated solves.

    The inverse and the Schur factor are built in retired arrays of this
    thread when there are some (see ``_retire``).
    """
    return SaddleFactorization(gram, jacobian, compliance)


def _retire(fact: SaddleFactorization, keep_metric: bool = False) -> None:
    """Hand the N x N arrays that a factorization owns (see the module
    docstring) to this thread's next ``assemble_gram``, ``factorize`` and
    ``with_rows``; ``fact`` must not solve again.  With ``keep_metric`` only
    its Schur factor goes, and its metric and inverse stay for
    ``with_rows``."""
    _retire_arrays(*(fact._arrays[-1:] if keep_metric else fact._arrays))


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
