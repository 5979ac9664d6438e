"""Discrete self-repulsion energy of a closed polygon and its derivatives.

The main scalar is assembled as ``4 + sum over ordered pairs of edges with
disjoint closures of W_IJ`` where each local contribution applies a tensor
quadrature rule to a tangent-point style integrand that stays bounded away
from the pair diagonal.  Writing ``a``, ``b`` for the two edge vectors and
``d`` for the difference of the two quadrature points, the weighted
integrand is

    w = (|a||b| + <a,b>) / |d|^2  -  2 <d,a><d,b> / |d|^4,

which already includes the ``|a||b|`` length factors of the pair.  Because
``w`` depends only on the four endpoints of the pair, its first and second
derivatives are available in closed form.  The energy sums ``w`` over the
list of disjoint pairs.  The gradient and the Hessian are assembled on
ordered N x N edge-pair tables (row I, column J) whose diagonal and adjacent
band are masked: sums over J are row sums and table-vector products, and
the terms of the edge heads I+1 are the tables rolled by one row or column.
The same input gives the same bits.

Two classic single-node variants (evaluating the bare energy density at
vertices or edge midpoints) are provided for comparison, along with the
pointwise energy density used as a weight by the metric assembly.
"""

from dataclasses import dataclass

import numpy as np

from .collision import nonadjacent_pairs
from .curve import Polygon, QuadPoint, arc_distance
from .errors import CoincidentPoints

_COINCIDENCE_SCALE = 1e-12


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on [0, 1]; weights sum to one."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.atleast_1d(np.asarray(self.nodes, dtype=float))
        weights = np.atleast_1d(np.asarray(self.weights, dtype=float))
        if nodes.shape != weights.shape or nodes.ndim != 1 or len(nodes) < 1:
            raise ValueError("nodes and weights must be matching 1-d arrays")
        if nodes.min() < 0.0 or nodes.max() > 1.0:
            raise ValueError("quadrature nodes must lie in [0, 1]")
        if abs(weights.sum() - 1.0) > 1e-12:
            raise ValueError("quadrature weights must sum to 1")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def order(self) -> int:
        return len(self.nodes)

    @classmethod
    def midpoint(cls) -> "QuadratureRule":
        return cls(np.array([0.5]), np.array([1.0]))

    @classmethod
    def vertex(cls) -> "QuadratureRule":
        return cls(np.array([0.0]), np.array([1.0]))

    @classmethod
    def gauss(cls, k: int) -> "QuadratureRule":
        x, w = np.polynomial.legendre.leggauss(k)
        return cls(0.5 * (x + 1.0), 0.5 * w)


MIDPOINT = QuadratureRule.midpoint()


@dataclass(frozen=True)
class EnergyValue:
    """Scalar energy, optionally with the table of pair contributions."""

    value: float
    pair_edges: np.ndarray | None = None
    pair_contributions: np.ndarray | None = None

    def __float__(self) -> float:
        return self.value


def _quad_positions(polygon: Polygon, quad: QuadratureRule) -> np.ndarray:
    """Positions of all quadrature nodes, shape (N, k, m)."""
    v = polygon.vertices
    nxt = np.roll(v, -1, axis=0)
    t = quad.nodes[None, :, None]
    return (1.0 - t) * v[:, None, :] + t * nxt[:, None, :]


def _check_separation(polygon: Polygon, r2: np.ndarray):
    floor = (_COINCIDENCE_SCALE * polygon.total_length) ** 2
    if r2.min() <= floor:
        raise CoincidentPoints(
            f"quadrature points at squared distance {r2.min():.3e}"
        )


def _pair_tables(polygon: Polygon, quad: QuadratureRule):
    """Ordered edge-pair tables, one quadrature node pair (s, t) at a time.

    Yields ``(weight, s, t, d, q)`` with ``d[k, I, J]`` coordinate k of
    ``x_I(s) - x_J(t)`` and ``q = 1 / |d|^2``.  On the diagonal and the
    adjacent band ``q`` is exactly zero; every other entry is checked for
    coincidence.  Each integrand derivative carries a factor ``q``, so the
    masked entries drop out of every table sum.
    """
    n = polygon.num_vertices
    i = np.arange(n)
    band = np.concatenate((i, (i + 1) % n, (i - 1) % n)) + n * np.tile(i, 3)
    x = np.ascontiguousarray(_quad_positions(polygon, quad).transpose(1, 2, 0))
    for qi in range(quad.order):
        for qj in range(quad.order):
            d = x[qi][:, :, None] - x[qj][:, None, :]
            r2 = np.einsum("kij,kij->ij", d, d)
            r2.flat[band] = np.inf
            _check_separation(polygon, r2)
            yield (float(quad.weights[qi] * quad.weights[qj]),
                   float(quad.nodes[qi]), float(quad.nodes[qj]), d, 1.0 / r2)


def _combine(out, scratch, terms):
    """``out = sum c * x`` over the (c, x) terms, without out-sized temporaries."""
    np.multiply(*terms[0], out=out)
    for c, x in terms[1:]:
        out += np.multiply(c, x, out=scratch)


def _row_dot(c, d):
    """``sum_J c[I, J] d[:, I, J]`` as (N, m)."""
    return np.einsum("ij,kij->ik", c, d)


def _row_outer(c, d):
    """``sum_J c[I, J] d[:, I, J] (x) d[:, I, J]`` as (N, m, m)."""
    return np.matmul((c * d).transpose(1, 0, 2), d.transpose(1, 2, 0))


def _col_outer(c, d, e):
    """``sum_J c[I, J] e[J] (x) d[:, I, J]`` as (N, m, m)."""
    return np.matmul(c * d, e).transpose(1, 2, 0)


def _edge_outer(e, x):
    """``e[I] (x) x[I]`` as (N, m, m)."""
    return e[:, :, None] * x[:, None, :]


def _sym(x):
    return x + x.transpose(0, 2, 1)


def energy(polygon: Polygon, quad: QuadratureRule = MIDPOINT,
           with_pairs: bool = False) -> EnergyValue:
    """Total energy ``4 + sum of all ordered disjoint-pair contributions``."""
    pi, pj = nonadjacent_pairs(polygon.num_vertices)
    a = polygon.edge_vectors[pi]
    b = polygon.edge_vectors[pj]
    ss = polygon.edge_lengths[pi] * polygon.edge_lengths[pj] + np.einsum(
        "pk,pk->p", a, b
    )
    x = _quad_positions(polygon, quad)
    w = np.zeros(len(pi))
    for qi in range(quad.order):
        for qj in range(quad.order):
            d = x[pi, qi] - x[pj, qj]
            r2 = np.einsum("pk,pk->p", d, d)
            _check_separation(polygon, r2)
            u = np.einsum("pk,pk->p", d, a)
            v = np.einsum("pk,pk->p", d, b)
            weight = float(quad.weights[qi] * quad.weights[qj])
            w += weight * (ss / r2 - 2.0 * u * v / r2**2)
    total = 4.0 + 2.0 * float(w.sum())
    if with_pairs:
        return EnergyValue(total, np.column_stack((pi, pj)), w)
    return EnergyValue(total)


def d_energy(polygon: Polygon, quad: QuadratureRule = MIDPOINT) -> np.ndarray:
    """Exact derivative of the energy, flat (N*m,) in vertex-major layout.

    The ordered pair sum is symmetric in (I, J), so the derivative is twice
    the sum of the derivatives through edge I alone: by ``a = a_I`` and by
    ``d``, which moves with both endpoints of I.
    """
    e = polygon.edge_vectors
    ell = polygon.edge_lengths
    ss = np.outer(ell, ell) + e @ e.T
    tail, head = np.zeros_like(e), np.zeros_like(e)
    for weight, s, t, d, q in _pair_tables(polygon, quad):
        u = np.einsum("kij,ki->ij", d, e.T)
        v = np.einsum("kij,kj->ij", d, e.T)
        q2 = q * q
        vq2 = v * q2
        ga = e * ((q @ ell) / ell)[:, None] + q @ e - 2.0 * _row_dot(vq2, d)
        gd = (_row_dot(q2 * (8.0 * u * v * q - 2.0 * ss), d)
              - 2.0 * e * vq2.sum(axis=1)[:, None] - 2.0 * (q2 * u) @ e)
        tail += weight * ((1.0 - s) * gd - ga)
        head += weight * (s * gd + ga)
    return 2.0 * (tail + np.roll(head, 1, axis=0)).ravel()


def d2_energy(polygon: Polygon, quad: QuadratureRule = MIDPOINT) -> np.ndarray:
    """Dense symmetric Hessian of the energy, (N*m, N*m), vertex-major.

    By the (I, J) symmetry of the ordered pair sum, the Hessian is twice the
    (I, I) blocks summed over J plus the (I, J) blocks and their transposes.
    The local second derivatives are taken in the edge vectors ``a = a_I``,
    ``b = a_J`` and the point difference ``d``; the chain to the (tail,
    head) vertices has coefficients ``(-1, 1)`` on a and ``(1-s, s)`` on d
    for edge I, ``(-1, 1)`` on b and ``(-(1-t), -t)`` on d for edge J.  Each
    of the four tail/head (I, J) tables is ``a (x) W_a + b (x) W_b +
    d (x) W_d`` plus a multiple of the identity, every W linear in (a, b, d).
    """
    n, m = polygon.num_vertices, polygon.dim
    e = polygon.edge_vectors
    ell = polygon.edge_lengths
    ll = np.outer(ell, ell)
    ss = ll + e @ e.T
    ratio = ell[None, :] / ell[:, None]
    ehat = e / ell[:, None]
    e_t = np.ascontiguousarray(e.T)
    rows, cols = e_t[:, :, None], e_t[:, None, :]
    eye = np.eye(m)
    ids = np.arange(n)
    sign = (-1.0, 1.0)
    hess = np.zeros((m, m, n, n))
    block = np.empty((m, m, n, n))
    weights = np.empty((3, m, n, n))
    scratch = np.empty((m, n, n))
    for weight, s, t, d, q in _pair_tables(polygon, quad):
        u = np.einsum("kij,ki->ij", d, e_t)
        v = np.einsum("kij,kj->ij", d, e_t)
        q2 = q * q
        m2q2 = -2.0 * q2
        uq3 = 8.0 * u * q2 * q
        vq3 = 8.0 * v * q2 * q
        ss_q2 = ss * q2
        uvq3 = u * vq3
        dd_dd = q * (8.0 * ss_q2 - 6.0 * uvq3)
        eye_dd = uvq3 - 2.0 * ss_q2

        # Blocks in (a, a), (a, d), (d, d) summed over J.
        s_aa = ((q @ ell) / ell)[:, None, None] * (eye - _edge_outer(ehat, ehat))
        s_ad = (_edge_outer(e, _row_dot(m2q2 * ratio, d))
                + _sym(_col_outer(m2q2, d, e)) + _row_outer(vq3, d)
                + (m2q2 * v).sum(axis=1)[:, None, None] * eye)
        s_dd = (_row_outer(dd_dd, d)
                + _sym(_edge_outer(e, _row_dot(vq3, d)) + _col_outer(uq3, d, e)
                       + _edge_outer(e, m2q2 @ e))
                + eye_dd.sum(axis=1)[:, None, None] * eye)

        vectors = np.stack(np.broadcast_arrays(rows, cols, d))
        row_d = (1.0 - s, s)
        col_d = (-(1.0 - t), -t)
        for p, r in np.ndindex(2, 2):
            # Weights of the (a, b), (a, d), (d, b) and (d, d) blocks.
            ab, ad, db, dd = weight * np.outer(
                (sign[p], row_d[p]), (sign[r], col_d[r])).ravel()
            _combine(weights[0], scratch, (
                (ab * q / ll + dd * m2q2, cols),
                (dd * vq3 + m2q2 * (ad * ratio + db), d)))
            _combine(weights[1], scratch, (
                (dd * m2q2, rows), (dd * uq3 + ad * m2q2, d)))
            _combine(weights[2], scratch, (
                (dd * vq3 + db * m2q2, rows),
                (dd * uq3 + m2q2 * (ad + db / ratio), cols),
                (ab * m2q2 + ad * vq3 + db * uq3 + dd * dd_dd, d)))
            np.einsum("xkij,xlij->klij", vectors, weights, out=block)
            diag = ab * q + m2q2 * (ad * v + db * u) + dd * eye_dd
            for k in range(m):
                block[k, k] += diag
            # The (I, I) blocks sit on the diagonal.
            block[:, :, ids, ids] += weight * (
                sign[p] * sign[r] * s_aa + sign[p] * row_d[r] * s_ad
                + row_d[p] * sign[r] * s_ad.transpose(0, 2, 1)
                + row_d[p] * row_d[r] * s_dd).transpose(1, 2, 0)
            hess += np.roll(block, (p, r), axis=(2, 3))

    half = hess.transpose(2, 0, 3, 1).reshape(n * m, n * m)
    return half + half.T


def energy_density(polygon: Polygon, a: QuadPoint, b: QuadPoint) -> float:
    """Pointwise density ``1/|dg|^2 - 1/rho^2`` between two curve points."""
    dg = a.position - b.position
    r2 = float(dg @ dg)
    if r2 <= (_COINCIDENCE_SCALE * polygon.total_length) ** 2:
        raise CoincidentPoints("curve points coincide")
    gap = abs(a.arc_coord - b.arc_coord)
    rho = min(gap, polygon.total_length - gap)
    return 1.0 / r2 - 1.0 / rho**2


def ks_energy(polygon: Polygon, variant: str = "edge") -> float:
    """Single-node discretization of the bare energy density.

    ``variant="vertex"`` evaluates at edge start points, ``"edge"`` at edge
    midpoints; both weight each disjoint pair with the product of its edge
    lengths and use the polygon's own arc length for the geodesic part.
    """
    if variant == "vertex":
        t = 0.0
    elif variant == "edge":
        t = 0.5
    else:
        raise ValueError(f"unknown variant {variant!r}")
    n = polygon.num_vertices
    pi, pj = nonadjacent_pairs(n)
    x = _quad_positions(polygon, QuadratureRule(np.array([t]), np.array([1.0])))[:, 0]
    s_arc = polygon.arc_prefix + t * polygon.edge_lengths
    d = x[pi] - x[pj]
    r2 = np.einsum("pk,pk->p", d, d)
    _check_separation(polygon, r2)
    rho = arc_distance(polygon, s_arc[pi], s_arc[pj])
    ll = polygon.edge_lengths[pi] * polygon.edge_lengths[pj]
    return 2.0 * float(np.sum(ll * (1.0 / r2 - 1.0 / rho**2)))
