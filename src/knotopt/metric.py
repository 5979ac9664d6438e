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
  * an optional rank-m barycenter term that restores definiteness on
    constant fields when no barycenter constraint is active.  Only the
    penalty methods ask for it (``assemble_gram(barycenter=True)``), and
    only for ``w32`` and ``w32pure``, whose seminorms vanish on constants;
    the feasible methods constrain the barycenter instead.

The two pair terms are kernel-weighted graph Laplacians built from the
ordered edge-pair tables one row block at a time (see ``_w32_scalar``):
the N x N output is the only N x N array of the assembly, and
``GramOperator`` keeps one symmetrized copy of it.  The low-order term's
weight is the density table ``1/|d|^2 - 1/rho^2`` of each node pair
(``_density_table``), rho the arc distance of the two nodes along the
polygon.

The low-order baselines (lumped mass, first and second difference
stiffness) use standard one-dimensional finite-element forms.

A metric is one of the five names in ``METRICS``: ``l2`` (lumped mass),
``w12`` and ``w22`` (mass plus first or second difference stiffness),
``w32pure`` (the principal term) and ``w32`` (principal plus low-order
term, the geometric metric).  ``L2``, ``W12``, ``W22``, ``W32_PURE`` and
``W32_GEOMETRIC`` are those strings.
"""

import numpy as np

from .curve import Polygon, arc_distance
from .energy import MIDPOINT, QuadratureRule, _pair_blocks, _row_slices
from .errors import DimensionMismatch

METRICS = ("l2", "w12", "w22", "w32pure", "w32")
L2, W12, W22, W32_PURE, W32_GEOMETRIC = METRICS


class GramOperator:
    """Symmetric operator ``scalar (x) I_dim`` realizing a metric at a polygon."""

    def __init__(self, scalar: np.ndarray, dim: int):
        scalar = np.asarray(scalar, dtype=float)
        if scalar.ndim != 2 or scalar.shape[0] != scalar.shape[1]:
            raise DimensionMismatch(f"scalar matrix of shape {scalar.shape} is not square")
        if dim < 1:
            raise ValueError(f"dimension must be at least 1, got {dim}")
        if not np.isfinite(scalar).all():
            raise ValueError("scalar matrix has non-finite entries")
        # 0.5 (S + S^T), one row block at a time into the one owned copy.
        self.scalar = np.empty(scalar.shape)
        for rows in _row_slices(len(scalar)):
            block = self.scalar[rows]
            np.add(scalar[rows], scalar[:, rows].T, out=block)
            block *= 0.5
        self.dim = dim
        self.scalar.setflags(write=False)

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


def _w32_scalar(polygon: Polygon, low_order: bool, quad: QuadratureRule):
    """Scalar matrix of the w32 family from ordered edge-pair tables.

    Principal part ``2 D^T (diag(K 1) - K) D`` with ``K = l_I l_J sum w/|d|^2``
    and ``(D u)_I = (u_{I+1} - u_I) / l_I``; low-order part
    ``sum_st 2 (A_s^T diag(K_st 1) A_s - A_s^T K_st A_t)`` with the
    density-weighted table K_st and ``(A_s u)_I = (1-s) u_I + s u_{I+1}``.
    D and A weigh edge tails (0) and heads (1), so both parts are tables
    ``T[p, r]`` rolled p rows and r columns on.  Each row block of the
    tables is added straight into the output, every entry as ``((T00 +
    T01) + T10) + T11``: the rows that the block's T10 and T11 roll past
    its end are carried to the next block (the last block's to row 0).
    """
    n = polygon.num_vertices
    ell = polygon.edge_lengths
    out = np.empty((n, n))
    carry = None
    for rows, pairs in _pair_blocks(polygon, quad):
        diag = (np.arange(rows.stop - rows.start), np.arange(rows.start, rows.stop))
        tables = np.zeros((2, 2, rows.stop - rows.start, n))
        kernel = np.zeros_like(tables[0, 0])
        for w, s, t, _, q in pairs:
            kernel += w * q
            if low_order:
                low = w * np.outer(ell[rows], ell) * _density_table(polygon, rows, s, t, q) * q
                row_sums = low.sum(axis=1)
                avg_s, avg_t = (1.0 - s, s), (1.0 - t, t)
                for p, r in np.ndindex(2, 2):
                    tables[p, r] -= 2.0 * avg_s[p] * avg_t[r] * low
                    tables[p, r][diag] += 2.0 * avg_s[p] * avg_s[r] * row_sums
        # D = (head - tail) / l: the 1/l factors fold into the table.
        principal = -2.0 * kernel
        principal[diag] += 2.0 * (kernel @ ell) / ell[rows]
        tables[0, 0] += principal
        tables[1, 1] += principal
        principal *= -1.0
        tables[0, 1] += principal
        tables[1, 0] += principal
        (t00, t01), (t10, t11) = tables
        block = out[rows]
        _add_rolled(t00, t01, block)
        if carry is not None:
            _add_rolled(block[0] + carry[0], carry[1], block[0])
        block[1:] += t10[:-1]
        _add_rolled(block[1:], t11[:-1], block[1:])
        carry = (t10[-1], t11[-1])
    _add_rolled(out[0] + carry[0], carry[1], out[0])
    return out


def _density_table(polygon: Polygon, rows: slice, s: float, t: float,
                   q: np.ndarray) -> np.ndarray:
    """Masked table ``q - 1/rho^2`` between node s of the edges I in ``rows``
    and node t of every edge J.

    ``rho`` is the arc distance of the two nodes; the masked entries
    (``q = 0``, rho = 0 on the diagonal among them) stay zero.
    """
    ell, start = polygon.edge_lengths, polygon.arc_prefix
    rho2 = arc_distance(polygon, (start[rows] + s * ell[rows])[:, None],
                        (start + t * ell)[None, :]) ** 2
    inv_rho2 = np.divide(1.0, rho2, out=np.zeros_like(q), where=q > 0.0)
    return q - inv_rho2


def _add_rolled(x, y, out):
    """``out = x + y`` with ``y`` rolled one column on; ``out`` may be ``x``."""
    np.add(x[..., 1:], y[..., :-1], out=out[..., 1:])
    np.add(x[..., :1], y[..., -1:], out=out[..., :1])


def _lumped_mass_weights(polygon: Polygon) -> np.ndarray:
    ell = polygon.edge_lengths
    return 0.5 * (ell + np.roll(ell, 1))


def _l2_scalar(polygon: Polygon) -> np.ndarray:
    return np.diag(_lumped_mass_weights(polygon))


def _w12_scalar(polygon: Polygon) -> np.ndarray:
    n = polygon.num_vertices
    scalar = _l2_scalar(polygon)
    inv = 1.0 / polygon.edge_lengths
    ids = np.arange(n)
    nxt = np.roll(ids, -1)
    scalar[ids, ids] += inv
    scalar[nxt, nxt] += inv
    scalar[ids, nxt] -= inv
    scalar[nxt, ids] -= inv
    return scalar


def _w22_scalar(polygon: Polygon) -> np.ndarray:
    n = polygon.num_vertices
    scalar = _l2_scalar(polygon)
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


def assemble_gram(polygon: Polygon, metric: str, quad: QuadratureRule = MIDPOINT,
                  barycenter: bool = False) -> GramOperator:
    """Assemble the Gram operator of the named metric at this polygon.

    ``barycenter`` adds the rank-m mean-value term.
    """
    if metric == "l2":
        scalar = _l2_scalar(polygon)
    elif metric == "w12":
        scalar = _w12_scalar(polygon)
    elif metric == "w22":
        scalar = _w22_scalar(polygon)
    elif metric in ("w32pure", "w32"):
        scalar = _w32_scalar(polygon, metric == "w32", quad)
    else:
        raise ValueError(f"unknown metric {metric!r}; expected one of {', '.join(METRICS)}")
    if barycenter:
        weights = _lumped_mass_weights(polygon)
        for rows in _row_slices(len(weights)):
            scalar[rows] += np.outer(weights[rows], weights)
    return GramOperator(scalar, polygon.dim)


def parse_metric(name: str) -> str:
    """The canonical metric name of a case-insensitive name or alias."""
    name = name.strip().lower()
    if name in ("w32geometric", "w32-geometric"):
        return W32_GEOMETRIC
    if name in METRICS:
        return name
    raise ValueError(f"unknown metric {name!r}; expected one of {', '.join(METRICS)}")
