"""Oracles for the energy, its derivatives and the W^{3/2} Gram matrix.

``in_integrand`` and ``local_contribution`` evaluate the energy one point
pair and one edge pair at a time.  ``d_energy``, ``d2_energy`` and
``w32_scalar`` are the straightforward pair-list form that the table
assembly in ``knotopt`` replaced: every quantity is evaluated on the list
of unordered disjoint edge pairs and scattered onto the vertices with
``np.add.at``.
"""

import numpy as np

from knotopt.collision import nonadjacent_pairs
from knotopt.curve import arc_distance
from knotopt.energy import (MIDPOINT, _COINCIDENCE_SCALE, _check_separation,
                            _quad_positions)
from knotopt.errors import AdjacentEdges, CoincidentPoints


def in_integrand(p_lo_i, p_hi_i, p_lo_j, p_hi_j, s: float, t: float) -> float:
    """Pointwise integrand for one edge pair at local parameters (s, t).

    ``F = |t_I - t_J|^2 / (2 |dg|^2) + 2 <t_I, t_J> / |dg|^2
    - 2 <dg, t_I> <dg, t_J> / |dg|^4`` with ``dg`` the difference of the
    two evaluation points and ``t_I``, ``t_J`` the unit edge tangents.
    """
    p_lo_i = np.asarray(p_lo_i, dtype=float)
    p_hi_i = np.asarray(p_hi_i, dtype=float)
    p_lo_j = np.asarray(p_lo_j, dtype=float)
    p_hi_j = np.asarray(p_hi_j, dtype=float)
    a = p_hi_i - p_lo_i
    b = p_hi_j - p_lo_j
    tau_i = a / np.linalg.norm(a)
    tau_j = b / np.linalg.norm(b)
    dg = ((1.0 - s) * p_lo_i + s * p_hi_i) - ((1.0 - t) * p_lo_j + t * p_hi_j)
    r2 = float(dg @ dg)
    scale = max(np.linalg.norm(a), np.linalg.norm(b))
    if r2 <= (_COINCIDENCE_SCALE * scale) ** 2:
        raise CoincidentPoints(f"evaluation points coincide, |dg|^2 = {r2:.3e}")
    dtau = tau_i - tau_j
    return float(
        (dtau @ dtau) / (2.0 * r2)
        + 2.0 * (tau_i @ tau_j) / r2
        - 2.0 * (dg @ tau_i) * (dg @ tau_j) / r2**2
    )


def _edges_adjacent(n: int, i: int, j: int) -> bool:
    return (i - j) % n in (0, 1, n - 1)


def local_contribution(polygon, i, j, quad=MIDPOINT):
    """Quadrature-weighted contribution W_IJ of one disjoint edge pair."""
    n = polygon.num_vertices
    i, j = int(i) % n, int(j) % n
    if _edges_adjacent(n, i, j):
        raise AdjacentEdges(f"edges {i} and {j} share a vertex")
    li = polygon.edge_lengths[i]
    lj = polygon.edge_lengths[j]
    total = 0.0
    for s, wi in zip(quad.nodes, quad.weights):
        for t, wj in zip(quad.nodes, quad.weights):
            f = in_integrand(
                polygon.vertices[i], polygon.vertices[(i + 1) % n],
                polygon.vertices[j], polygon.vertices[(j + 1) % n],
                s, t,
            )
            total += wi * wj * f
    return float(li * lj * total)


def _pair_terms(polygon, quad):
    """Yield ``(weight, s, t, d, r2)`` per quadrature node combination."""
    pi, pj = nonadjacent_pairs(polygon.num_vertices)
    x = _quad_positions(polygon, quad)
    for qi in range(quad.order):
        for qj in range(quad.order):
            d = x[pi, qi] - x[pj, qj]
            r2 = np.einsum("pk,pk->p", d, d)
            _check_separation(polygon, r2)
            yield (
                float(quad.weights[qi] * quad.weights[qj]),
                float(quad.nodes[qi]),
                float(quad.nodes[qj]),
                d,
                r2,
            )


def d_energy(polygon, quad=MIDPOINT):
    n, m = polygon.num_vertices, polygon.dim
    pi, pj = nonadjacent_pairs(n)
    head = np.roll(np.arange(n), -1)
    a = polygon.edge_vectors[pi]
    b = polygon.edge_vectors[pj]
    la = polygon.edge_lengths[pi]
    lb = polygon.edge_lengths[pj]
    ss = la * lb + np.einsum("pk,pk->p", a, b)

    grad = np.zeros((n, m))
    for weight, s, t, d, r2 in _pair_terms(polygon, quad):
        q = 1.0 / r2
        u = np.einsum("pk,pk->p", d, a)
        v = np.einsum("pk,pk->p", d, b)
        ga = ((lb / la)[:, None] * a + b) * q[:, None] - (2.0 * v * q**2)[:, None] * d
        gb = ((la / lb)[:, None] * b + a) * q[:, None] - (2.0 * u * q**2)[:, None] * d
        gd = (
            (-2.0 * ss * q**2 + 8.0 * u * v * q**3)[:, None] * d
            - (2.0 * q**2)[:, None] * (v[:, None] * a + u[:, None] * b)
        )
        np.add.at(grad, pi, weight * (-ga + (1.0 - s) * gd))
        np.add.at(grad, head[pi], weight * (ga + s * gd))
        np.add.at(grad, pj, weight * (-gb - (1.0 - t) * gd))
        np.add.at(grad, head[pj], weight * (gb - t * gd))
    return 2.0 * grad.ravel()


def _outer(x, y):
    return x[:, :, None] * y[:, None, :]


def d2_energy(polygon, quad=MIDPOINT):
    n, m = polygon.num_vertices, polygon.dim
    pi, pj = nonadjacent_pairs(n)
    head = np.roll(np.arange(n), -1)
    a = polygon.edge_vectors[pi]
    b = polygon.edge_vectors[pj]
    la = polygon.edge_lengths[pi]
    lb = polygon.edge_lengths[pj]
    ahat = a / la[:, None]
    bhat = b / lb[:, None]
    ss = la * lb + np.einsum("pk,pk->p", a, b)
    eye = np.eye(m)[None, :, :]

    hess = np.zeros((n, n, m, m))
    vertex_ids = (pi, head[pi], pj, head[pj])
    for weight, s, t, d, r2 in _pair_terms(polygon, quad):
        q = 1.0 / r2
        u = np.einsum("pk,pk->p", d, a)
        v = np.einsum("pk,pk->p", d, b)
        q2 = q * q
        q3 = q2 * q

        blocks = np.empty((len(pi), 3, 3, m, m))
        blocks[:, 0, 0] = (q * lb / la)[:, None, None] * (eye - _outer(ahat, ahat))
        blocks[:, 1, 1] = (q * la / lb)[:, None, None] * (eye - _outer(bhat, bhat))
        blocks[:, 0, 1] = (
            q[:, None, None] * (_outer(ahat, bhat) + eye)
            - (2.0 * q2)[:, None, None] * _outer(d, d)
        )
        blocks[:, 1, 0] = blocks[:, 0, 1].transpose(0, 2, 1)
        had = (
            (-2.0 * q2)[:, None, None] * _outer(lb[:, None] * ahat + b, d)
            - (2.0 * q2)[:, None, None] * _outer(d, b)
            - (2.0 * v * q2)[:, None, None] * eye
            + (8.0 * v * q3)[:, None, None] * _outer(d, d)
        )
        hbd = (
            (-2.0 * q2)[:, None, None] * _outer(la[:, None] * bhat + a, d)
            - (2.0 * q2)[:, None, None] * _outer(d, a)
            - (2.0 * u * q2)[:, None, None] * eye
            + (8.0 * u * q3)[:, None, None] * _outer(d, d)
        )
        blocks[:, 0, 2] = had
        blocks[:, 2, 0] = had.transpose(0, 2, 1)
        blocks[:, 1, 2] = hbd
        blocks[:, 2, 1] = hbd.transpose(0, 2, 1)
        mix = v[:, None] * a + u[:, None] * b
        blocks[:, 2, 2] = (
            (-2.0 * ss * q2 + 8.0 * u * v * q3)[:, None, None] * eye
            + (8.0 * ss * q3 - 48.0 * u * v * q2 * q2)[:, None, None] * _outer(d, d)
            + (8.0 * q3)[:, None, None] * (_outer(mix, d) + _outer(d, mix))
            - (2.0 * q2)[:, None, None] * (_outer(a, b) + _outer(b, a))
        )

        cmat = np.array([
            [-1.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, -1.0, 1.0],
            [1.0 - s, s, -(1.0 - t), -t],
        ])
        local = np.einsum("xi,yj,pxyuv->pijuv", cmat, cmat, blocks)
        for bi in range(4):
            for bj in range(4):
                np.add.at(
                    hess,
                    (vertex_ids[bi], vertex_ids[bj]),
                    weight * local[:, bi, bj],
                )

    full = 2.0 * hess.transpose(0, 2, 1, 3).reshape(n * m, n * m)
    return 0.5 * (full + full.T)


def w32_scalar(polygon, kind, quad=MIDPOINT):
    """Scalar N x N matrix of the w32 family, without the barycenter term."""
    n = polygon.num_vertices
    pi, pj = nonadjacent_pairs(n)
    head = np.roll(np.arange(n), -1)
    idx = (pi, head[pi], pj, head[pj])
    li = polygon.edge_lengths[pi]
    lj = polygon.edge_lengths[pj]
    ll = li * lj
    x = _quad_positions(polygon, quad)
    s_arc = polygon.arc_prefix[:, None] + quad.nodes[None, :] * polygon.edge_lengths[:, None]

    kernel = np.zeros(len(pi))
    low = np.zeros((len(pi), 4, 4))
    for qi in range(quad.order):
        for qj in range(quad.order):
            w = float(quad.weights[qi] * quad.weights[qj])
            s = float(quad.nodes[qi])
            t = float(quad.nodes[qj])
            d = x[pi, qi] - x[pj, qj]
            r2 = np.einsum("pk,pk->p", d, d)
            _check_separation(polygon, r2)
            kernel += w / r2
            if kind.include_low_order:
                rho = arc_distance(polygon, s_arc[pi, qi], s_arc[pj, qj])
                dens = 1.0 / r2 - 1.0 / rho**2
                coef = w * ll * dens / r2
                c = np.array([1.0 - s, s, -(1.0 - t), -t])
                low += coef[:, None, None] * np.outer(c, c)[None, :, :]

    cvec = np.stack((-1.0 / li, 1.0 / li, 1.0 / lj, -1.0 / lj), axis=1)
    principal = (ll * kernel)[:, None, None] * cvec[:, :, None] * cvec[:, None, :]

    scalar = np.zeros((n, n))
    for bi in range(4):
        for bj in range(4):
            np.add.at(scalar, (idx[bi], idx[bj]), (principal + low)[:, bi, bj])
    return 2.0 * scalar
