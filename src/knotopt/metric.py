"""Gram matrices of the candidate inner products on vertex displacement fields.

Every metric here is assembled as an ``N x N`` scalar matrix ``S`` acting
identically on each of the ``m`` coordinates: the operator on vertex-major
fields is ``S (x) I_m``, applied through ``S`` and never expanded.  The main
metric couples all edge pairs with disjoint closures:

  * a principal term summing ``l_I l_J |u'_I - u'_J|^2`` against the
    quadrature average of ``1 / |x_I - x_J|^2`` over the pair, where
    ``u'_I`` is the per-edge difference quotient of the field;
  * a lower-order term weighting squared point differences of the field by
    the pointwise energy density of the pair (this is what discourages
    movement in regions of near self-contact);
  * the rank-m mean-value term ``w w^T`` (``w`` the lumped mass), which
    makes the Gram definite on constant fields, where the two pair terms
    vanish.  Every Gram here is therefore an inner product, with or without
    a barycenter constraint.

The two pair terms are kernel-weighted graph Laplacians built from the
ordered edge-pair tables one row block at a time (see ``_w32_scalar``).
The low-order term's weight is the density table ``1/|d|^2 - 1/rho^2`` of
each node pair (``_density_table``), rho the arc distance of the two nodes
along the polygon.

Buffers: the N x N output is the only N x N array of an assembly.  It is a
retired array of the last iterate when the optimizer has handed one over
(``saddle._retire``), and ``GramOperator`` takes it over and symmetrizes it
in place; a caller's array given to the constructor is still copied.  Every
row-block table is the thread's kept block scratch (``energy._block_tables``).

The low-order baselines (lumped mass, first and second difference
stiffness) use standard one-dimensional finite-element forms.

A metric is one of the five names in ``METRICS``: ``l2`` (lumped mass),
``w12`` and ``w22`` (mass plus first or second difference stiffness),
``w32pure`` (the principal and mean-value terms) and ``w32`` (all three,
the geometric metric).  ``L2``, ``W12``, ``W22``, ``W32_PURE`` and
``W32_GEOMETRIC`` are those strings.
"""

import numpy as np

from .curve import Polygon
from .energy import (MIDPOINT, QuadratureRule, _block_tables, _pair_blocks, _reuse,
                     _row_slices, _walk_tables)
from .errors import DimensionMismatch

METRICS = ("l2", "w12", "w22", "w32pure", "w32")
L2, W12, W22, W32_PURE, W32_GEOMETRIC = METRICS


class GramOperator:
    """Symmetric operator ``scalar (x) I_dim`` realizing a metric at a polygon."""

    def __init__(self, scalar: np.ndarray, dim: int):
        self._take(np.array(scalar, dtype=float), dim)

    @classmethod
    def _adopt(cls, scalar: np.ndarray, dim: int) -> "GramOperator":
        """The operator of ``scalar``, which it takes over instead of copying."""
        operator = cls.__new__(cls)
        operator._take(scalar, dim)
        return operator

    def _take(self, scalar, dim):
        """Own ``scalar`` as 0.5 (S + S^T), symmetrized in place."""
        if scalar.ndim != 2 or scalar.shape[0] != scalar.shape[1]:
            raise DimensionMismatch(f"scalar matrix of shape {scalar.shape} is not square")
        if dim < 1:
            raise ValueError(f"dimension must be at least 1, got {dim}")
        n = len(scalar)
        if not all(np.isfinite(scalar[rows]).all() for rows in _row_slices(n)):
            raise ValueError("scalar matrix has non-finite entries")
        mean = _block_tables(n, 1)[0]
        for rows in _row_slices(n):
            # Each mirrored pair of entries once: the block's diagonal square,
            # then the columns right of it against the rows below it.
            rest = slice(rows.stop, None)
            for upper, lower in ((scalar[rows, rows], scalar[rows, rows]),
                                 (scalar[rows, rest], scalar[rest, rows])):
                block = mean[:upper.shape[0], :upper.shape[1]]
                np.add(upper, lower.T, out=block)
                block *= 0.5
                upper[...] = block
                lower[...] = block.T
        self.scalar, self.dim = scalar, dim
        scalar.setflags(write=False)

    @property
    def shape(self):
        size = self.scalar.shape[0] * self.dim
        return (size, size)

    def _check(self, u):
        u = np.asarray(u, dtype=float).ravel()
        if u.shape[0] != self.shape[0]:
            raise DimensionMismatch(
                f"field of length {u.shape[0]}, operator of size {self.shape[0]}"
            )
        return u

    def apply(self, u) -> np.ndarray:
        u = self._check(u).reshape(-1, self.dim)
        return (self.scalar @ u).ravel()


def _w32_scalar(polygon: Polygon, low_order: bool, quad: QuadratureRule, out):
    """Scalar matrix of the w32 family from ordered edge-pair tables, into ``out``.

    Principal part ``2 D^T (diag(K 1) - K) D`` with ``K = l_I l_J sum w/|d|^2``
    and ``(D u)_I = (u_{I+1} - u_I) / l_I``; low-order part
    ``sum_st 2 (A_s^T diag(K_st 1) A_s - A_s^T K_st A_t)`` with the
    density-weighted table K_st and ``(A_s u)_I = (1-s) u_I + s u_{I+1}``.
    D and A weigh edge tails (0) and heads (1), so both parts are tables
    ``T[p, r]`` rolled p rows and r columns on: ``S[a, b] = A0[a, b] +
    A1[a - 1, b]`` with ``Ap[I, b] = T[p, 0][I, b] + T[p, 1][I, b - 1]``.
    Each row block sums A0 straight into its rows of ``out`` and A1 in one
    scratch table, then adds A1 one row on; the row that A1 rolls past the
    block's end is carried to the next block (the last block's to row 0).
    The diagonal parts, ``diag(K 1)`` and ``diag(K_st 1)``, land on the
    cyclic tridiagonal of ``S`` and are added last, as O(N) terms.
    """
    n = polygon.num_vertices
    ell = polygon.edge_lengths
    # On (I, I), (I, I + 1) and (I + 1, I + 1); (I + 1, I) is (I, I + 1).
    tridiagonal = np.zeros((3, n))
    kernel, low, scaled, a1 = _walk_tables(polygon, 4)
    carry = None
    for rows, pairs in _pair_blocks(polygon, quad):
        size = rows.stop - rows.start
        kernel_i, low_i, scaled_i, a1_i, a0_i = (
            kernel[:size], low[:size], scaled[:size], a1[:size], out[rows])
        first = True
        for w, s, t, _, q in pairs:
            if first:
                np.multiply(q, w, out=kernel_i)
            else:
                kernel_i += np.multiply(q, w, out=scaled_i)
            if low_order:
                _density_table(polygon, rows, s, t, q, out=low_i)
                low_i *= q
                low_i *= (w * ell[rows])[:, None]
                low_i *= ell
                row_sums = low_i.sum(axis=1)
                tridiagonal[:, rows] += np.multiply.outer(
                    (2.0 * (1.0 - s) ** 2, 2.0 * s * (1.0 - s), 2.0 * s * s), row_sums)
                # Y = (1 - t) low + t low rolled one column on; then
                # A0 -= 2 (1 - s) Y and A1 -= 2 s Y.
                np.multiply(low_i, t, out=scaled_i)
                low_i *= 1.0 - t
                low_i[:, 1:] += scaled_i[:, :-1]
                low_i[:, :1] += scaled_i[:, -1:]
                for acc, factor in ((a0_i, -2.0 * (1.0 - s)), (a1_i, -2.0 * s)):
                    if first:
                        np.multiply(low_i, factor, out=acc)
                    else:
                        acc += np.multiply(low_i, factor, out=scaled_i)
            first = False
        # D = (head - tail) / l: the 1/l factors fold into the table, and the
        # principal part adds P to A0 and -P to A1, P = 2K rolled one column
        # on minus 2K.
        diagonal = 2.0 * (kernel_i @ ell) / ell[rows]
        tridiagonal[:, rows] += (diagonal, -diagonal, diagonal)
        kernel_i *= 2.0
        np.subtract(kernel_i[:, :-1], kernel_i[:, 1:], out=scaled_i[:, 1:])
        np.subtract(kernel_i[:, -1:], kernel_i[:, :1], out=scaled_i[:, :1])
        if low_order:
            a0_i += scaled_i
            a1_i -= scaled_i
        else:
            np.copyto(a0_i, scaled_i)
            np.negative(scaled_i, out=a1_i)
        if carry is not None:
            a0_i[0] += carry
        a0_i[1:] += a1_i[:-1]
        carry = a1_i[-1].copy()
    out[0] += carry
    i, j = np.arange(n), np.roll(np.arange(n), -1)
    out[i, i] += tridiagonal[0] + np.roll(tridiagonal[2], 1)
    out[i, j] += tridiagonal[1]
    out[j, i] += tridiagonal[1]
    return out


def _density_table(polygon: Polygon, rows: slice, s: float, t: float,
                   q: np.ndarray, out=None) -> np.ndarray:
    """Masked table ``q - 1/rho^2`` between node s of the edges I in ``rows``
    and node t of every edge J, into ``out`` if given.

    ``rho`` is the arc distance of the two nodes; the masked entries
    (``q = 0``, rho = 0 on the diagonal among them) stay zero.
    """
    ell, start = polygon.edge_lengths, polygon.arc_prefix
    total = polygon.total_length
    rho = np.empty_like(q) if out is None else out
    # arc_distance in place: min(gap, L - gap) is L - gap exactly where gap > L/2.
    np.subtract.outer(start[rows] + s * ell[rows], start + t * ell, out=rho)
    np.abs(rho, out=rho)
    np.subtract(total, rho, out=rho, where=rho > 0.5 * total)
    np.square(rho, out=rho)
    masked = q == 0.0
    np.divide(1.0, rho, out=rho, where=~masked)
    rho[masked] = 0.0
    return np.subtract(q, rho, out=rho)


def _lumped_mass_weights(polygon: Polygon) -> np.ndarray:
    ell = polygon.edge_lengths
    return 0.5 * (ell + np.roll(ell, 1))


def _l2_scalar(polygon: Polygon, out: np.ndarray) -> np.ndarray:
    out.fill(0.0)
    out.flat[::len(out) + 1] = _lumped_mass_weights(polygon)
    return out


def _w12_scalar(polygon: Polygon, out: np.ndarray) -> np.ndarray:
    n = polygon.num_vertices
    scalar = _l2_scalar(polygon, out)
    inv = 1.0 / polygon.edge_lengths
    ids = np.arange(n)
    nxt = np.roll(ids, -1)
    scalar[ids, ids] += inv
    scalar[nxt, nxt] += inv
    scalar[ids, nxt] -= inv
    scalar[nxt, ids] -= inv
    return scalar


def _w22_scalar(polygon: Polygon, out: np.ndarray) -> np.ndarray:
    n = polygon.num_vertices
    scalar = _l2_scalar(polygon, out)
    ell = polygon.edge_lengths
    dual = 0.5 * (ell + np.roll(ell, 1))
    ids = np.arange(n)
    prv = np.roll(ids, 1)
    nxt = np.roll(ids, -1)
    # Second difference at vertex v uses edges (v-1, v); the three-point
    # stencil is weighted by the inverse dual length.
    stencil = np.stack((1.0 / ell[prv], -(1.0 / ell[prv] + 1.0 / ell), 1.0 / ell), axis=1)
    support = np.stack((prv, ids, nxt), axis=1)
    for a in range(3):
        for b in range(3):
            scalar[support[:, a], support[:, b]] += stencil[:, a] * stencil[:, b] / dual
    return scalar


def assemble_gram(polygon: Polygon, metric: str,
                  quad: QuadratureRule = MIDPOINT) -> GramOperator:
    """Assemble the Gram operator of the named metric at this polygon.

    ``w32`` and ``w32pure`` include their mean-value term.  The N x N
    matrix is built in a retired array of this thread when there is one
    (see ``saddle._retire``) and handed to the operator without a copy.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {', '.join(METRICS)}")
    n = polygon.num_vertices
    scalar = _reuse((n, n))
    if metric == "l2":
        _l2_scalar(polygon, scalar)
    elif metric == "w12":
        _w12_scalar(polygon, scalar)
    elif metric == "w22":
        _w22_scalar(polygon, scalar)
    else:
        _w32_scalar(polygon, metric == "w32", quad, scalar)
        weights = _lumped_mass_weights(polygon)
        outer = _block_tables(n, 1)[0]
        for rows in _row_slices(n):
            block = outer[:rows.stop - rows.start]
            np.multiply.outer(weights[rows], weights, out=block)
            scalar[rows] += block
    return GramOperator._adopt(scalar, polygon.dim)


def parse_metric(name: str) -> str:
    """The canonical metric name of a case-insensitive name or alias."""
    name = name.strip().lower()
    if name in ("w32geometric", "w32-geometric"):
        return W32_GEOMETRIC
    if name in METRICS:
        return name
    raise ValueError(f"unknown metric {name!r}; expected one of {', '.join(METRICS)}")
