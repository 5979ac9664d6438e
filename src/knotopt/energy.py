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
derivatives are available in closed form.  The energy and its gradient are
assembled on ordered edge-pair tables (row I, column J) whose diagonal and
adjacent band are masked, taken in row blocks: a block holds
``_block_rows(N)`` edges I against all N edges J, so neither makes an N x N
temporary.  The energy is one table sum per block and quadrature node pair;
the gradient's sums over J are row sums and table-vector products, local
to a block's rows; the terms of the edge heads I+1 are the results rolled
by one row.  Both come from one walk, ``_walk``: ``energy`` and
``d_energy`` each ask it for one, and the penalty methods for both at
once, which share the walk's tables and ``u v q`` and cost little more
than the gradient alone; each value is bitwise the one walked alone.
``hessian`` builds an operator that applies the Hessian to a
batch of fields without assembling it, as the directional derivative of
the gradient's tables, on one whole-table block: the builder keeps the
tables that every field shares, and each product costs O(N^2) per field
and node pair, like the gradient.  The same input gives the same bits.
Each edge carries the nodes of a ``QuadratureRule``; the default,
``MIDPOINT``, is ``QuadratureRule.gauss(1)``.

Buffers: a call maps no fresh pages once a first call has sized its
buffers.  The row-block tables of ``energy``, ``d_energy``, the W^{3/2}
Gram and the saddle factorization live in a per-thread block scratch kept
between calls (``_block_tables``: a few tables of ``_block_rows(N)`` rows,
about 2 MB); a whole-table walk, such as the ``hessian`` builder's, keeps
its own tables.  The N x N arrays of an optimizer iterate (its Gram, and
the inverse and Schur factor of its factorization; only the Schur factor
for penalized L-BFGS, which keeps its first Gram and inverse) are rebuilt
in the last iterate's: the optimizer retires them (``_retire``),
``assemble_gram`` and ``factorize`` take them back (``_reuse``), and
``run`` frees what is left when it returns (``_release``).
"""

import threading
from dataclasses import dataclass

import numpy as np

from .curve import Polygon
from .errors import CoincidentPoints

_COINCIDENCE_SCALE = 1e-12
# Entries per row block of the edge-pair tables, see ``_block_rows``.
_BLOCK_ENTRIES = 24576


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
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(weights))):
            raise ValueError("quadrature nodes and weights must be finite")
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
    def gauss(cls, k: int) -> "QuadratureRule":
        x, w = np.polynomial.legendre.leggauss(k)
        return cls(0.5 * (x + 1.0), 0.5 * w)


MIDPOINT = QuadratureRule.gauss(1)  # node 1/2, weight 1


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


def _block_rows(n: int) -> int:
    """Rows (edges I) per table block at N edges: whole groups of 16 rows, each
    block table about ``_BLOCK_ENTRIES`` doubles (192 KB).

    CPU time of ``energy``, ``d_energy`` and the Gram at N = 240 to 1536,
    BLAS on one thread: blocks of 16k to 48k entries were within the noise
    of each other, a fixed 32 rows cost the Gram up to 40 % more at
    N <= 384 (more calls per table) and blocks over about 30k entries up to
    twice as much at N = 240, and whole N x N tables took up to 3 times as
    long, paying for freshly mapped pages on every call.  OpenBLAS forms
    the row products (``q @ ell``, ``q @ e``) a group of rows at a time (4
    here, 16 in its AVX-512 matrix kernel) and rounds left-over rows in
    other kernels, so whole 16-row groups keep a block's row products
    bitwise those of the whole table.
    """
    return max(16, _BLOCK_ENTRIES // n // 16 * 16)


def _row_slices(n: int, rows: int | None = None) -> list:
    """The row blocks of an N-row table, ``rows`` (default ``_block_rows(N)``) each."""
    rows = _block_rows(n) if rows is None else rows
    return [slice(lo, min(lo + rows, n)) for lo in range(0, n, rows)]


# This thread's block scratch and retired N x N arrays.
_kept = threading.local()
# Retired arrays kept at most: an iterate's Gram, inverse and Schur factor.
_SPARES = 3


def _block_tables(n: int, count: int, after: int = 0) -> np.ndarray:
    """``count`` tables of shape ``(_block_rows(N), N)`` in this thread's block
    scratch, after its first ``after`` tables; a block of r rows uses the
    first r rows of each.

    The scratch is kept between calls and grows to the largest request, so a
    call allocates no table of its own once a first call has sized it.  The
    edge-pair walk takes the first ``m + 1`` tables (``d`` and ``q``), so a
    caller that walks asks for its own with ``after = m + 1``, before it
    starts the walk.
    """
    size = _block_rows(n) * n
    kept = getattr(_kept, "tables", None)
    if kept is None or len(kept) < (after + count) * size:
        kept = _kept.tables = np.empty((after + count) * size)
    return kept[after * size:(after + count) * size].reshape(count, -1, n)


def _reuse(shape: tuple, order: str = "C") -> np.ndarray:
    """A retired array of this thread with ``shape`` and memory ``order`` (see
    ``_retire``), or a new one."""
    spares = getattr(_kept, "spares", [])
    for i, spare in enumerate(spares):
        if spare.shape == shape and spare.flags[f"{order}_CONTIGUOUS"]:
            return spares.pop(i)
    return np.empty(shape, order=order)


def _retire(*arrays) -> None:
    """Hand arrays that nothing reads any more to this thread's next builds.

    At most ``_SPARES`` are kept, the latest; ``_release`` frees them.
    """
    for array in arrays:
        array.setflags(write=True)
    _kept.spares = (getattr(_kept, "spares", []) + list(arrays))[-_SPARES:]


def _release() -> None:
    """Free this thread's retired arrays."""
    _kept.spares = []


def _pair_blocks(polygon: Polygon, quad: QuadratureRule, rows: int | None = None):
    """Ordered edge-pair tables in row blocks: ``rows`` edges I against all N edges J.

    Yields ``(I, pairs)`` per block, ``I`` the slice of its rows and
    ``pairs`` an iterator over the quadrature node pairs (s, t) of the
    block, each ``(weight, s, t, d, q)`` with ``d[k, i, J]`` coordinate k of
    ``x_{I_i}(s) - x_J(t)`` and ``q = 1 / |d|^2``.  On the diagonal and the
    adjacent band ``q`` is exactly zero; every other entry is checked for
    coincidence.  Each integrand derivative carries a factor ``q``, so the
    masked entries drop out of every table sum.  A block's pairs must be
    used up before the next block is drawn.  At the default ``rows`` every
    node pair's ``d`` and ``q`` are the same tables of the thread's block
    scratch (see ``_block_tables``); a walk with its own ``rows``, such as
    a whole-table walk, gets new tables for each node pair.
    """
    n, m = polygon.num_vertices, polygon.dim
    x = np.ascontiguousarray(_quad_positions(polygon, quad).transpose(1, 2, 0))
    kept = _block_tables(n, m + 1) if rows is None else None
    for block in _row_slices(n, rows):
        yield block, _node_pairs(polygon, quad, x, block, kept)


def _node_pairs(polygon, quad, x, block, kept):
    n, m = polygon.num_vertices, polygon.dim
    i = np.arange(block.start, block.stop)
    local = n * (i - block.start)
    band = np.concatenate((local + i, local + (i + 1) % n, local + (i - 1) % n))
    for qi in range(quad.order):
        for qj in range(quad.order):
            if kept is None:
                d, r2 = np.empty((m, len(i), n)), np.empty((len(i), n))
            else:
                d, r2 = kept[:m, :len(i)], kept[m, :len(i)]
            np.subtract(x[qi][:, block, None], x[qj][:, None, :], out=d)
            np.einsum("kij,kij->ij", d, d, out=r2)
            r2.flat[band] = np.inf
            _check_separation(polygon, r2)
            yield (float(quad.weights[qi] * quad.weights[qj]),
                   float(quad.nodes[qi]), float(quad.nodes[qj]), d,
                   np.divide(1.0, r2, out=r2))


def _rowdot(c, d):
    """``sum_J c[I, J] d[:, I, J]`` as (N, m)."""
    return np.einsum("ij,kij->ik", c, d)


def _dot(a, b):
    """Row-wise dot products of two (N, m) arrays, as a column."""
    return np.einsum("im,im->i", a, b)[:, None]


def _node_positions(centred, s):
    """The points at node ``s`` of every edge of the centred vertices."""
    return (1.0 - s) * centred + s * np.roll(centred, -1, axis=0)


def _uv_factors(e, x):
    """The factors of ``_uv`` at the centred node positions ``x``: the left and
    right factors of ``u``, then of ``v``, each N x (m + 1)."""
    one = np.ones((len(x), 1))
    ex = _dot(e, x)
    return np.hstack((ex, -e)), np.hstack((one, x)), np.hstack((x, -one)), np.hstack((e, ex))


def _uv(left, right, rows, u, v):
    """``u = <d, a_I>`` and ``v = <d, a_J>`` of the edges I in ``rows`` into ``u``
    and ``v``, ``d = x_I - y_J``: each one (rows x (m + 1))((m + 1) x N)
    product of the ``_uv_factors`` of the nodes of ``x`` (``left``) and of
    ``y`` (``right``)."""
    np.matmul(left[0][rows], right[1].T, out=u)
    np.matmul(left[2][rows], right[3].T, out=v)


def _walk_tables(polygon: Polygon, count: int) -> np.ndarray:
    """``count`` block scratch tables for a caller of the default walk."""
    return _block_tables(polygon.num_vertices, count, after=polygon.dim + 1)


def _walk(polygon: Polygon, quad: QuadratureRule, value: bool = True,
          gradient: bool = True):
    """``(energy, derivative)`` from one walk of the pair tables; ``None`` for
    the one not asked for.

    The energy is one masked-table sum per row block and node pair, ``sum q
    (ss - 2 u v q)`` with ``u = <d, a_I>``, ``v = <d, a_J>`` and ``ss = l_I
    l_J + <a_I, a_J>`` formed as low-rank products (see ``_uv``); the
    factors that no block changes are built once per call.  The derivative
    is twice the sum of the derivatives through edge I alone, as the ordered
    pair sum is symmetric in (I, J): by ``a = a_I`` and by ``d``, which moves
    with both endpoints of I.  Those are row sums, so each row block fills
    its own rows of the tail and head terms.  The sums ``sum_J c_IJ d_IJ``
    are taken on the difference table itself: as ``x_I (c 1)_I - (c y)_I``
    they lose digits to cancellation.  Both share ``u v q``, and each is
    bitwise what it is when walked alone.
    """
    e, ell = polygon.edge_vectors, polygon.edge_lengths
    centred = polygon.vertices - polygon.vertices.mean(axis=0)
    lengths = np.hstack((ell[:, None], e))
    factors = {float(s): _uv_factors(e, _node_positions(centred, s)) for s in quad.nodes}
    tables = _walk_tables(polygon, 6)
    total = 0.0
    tail, head = np.zeros_like(e), np.zeros_like(e)
    for rows, pairs in _pair_blocks(polygon, quad):
        e_i, ell_i = e[rows], ell[rows]
        ss, ss2, u, v, q2, c = tables[:, :rows.stop - rows.start]
        # Either value alone touches only the tables it needs: the energy
        # works in u, and the gradient needs no ss.
        uvq, table = (c, q2) if gradient else (u, u)
        if value:
            np.matmul(lengths[rows], lengths.T, out=ss)
        if gradient:
            np.matmul(lengths[rows], lengths.T, out=ss2)
            ss2 *= 2.0
        for weight, s, t, d, q in pairs:
            _uv(factors[s], factors[t], rows, u, v)
            np.multiply(u, v, out=uvq)
            uvq *= q
            if value:
                np.multiply(uvq, -2.0, out=table)
                table += ss
                table *= q                               # q (ss - 2 u v q)
                total += weight * float(np.sum(table))
            if not gradient:
                continue
            np.multiply(q, q, out=q2)
            c *= 8.0
            c -= ss2
            c *= q2                                  # q^2 (8 u v q - 2 ss)
            v *= q2
            u *= q2
            ga = e_i * ((q @ ell) / ell_i)[:, None] + q @ e - 2.0 * _rowdot(v, d)
            gd = (_rowdot(c, d) - 2.0 * e_i * v.sum(axis=1)[:, None] - 2.0 * (u @ e))
            tail[rows] += weight * ((1.0 - s) * gd - ga)
            head[rows] += weight * (s * gd + ga)
    return (4.0 + total if value else None,
            2.0 * (tail + np.roll(head, 1, axis=0)).ravel() if gradient else None)


def energy(polygon: Polygon, quad: QuadratureRule = MIDPOINT) -> float:
    """Total energy ``4 + sum of all ordered disjoint-pair contributions``
    (see ``_walk``)."""
    return _walk(polygon, quad, gradient=False)[0]


def d_energy(polygon: Polygon, quad: QuadratureRule = MIDPOINT) -> np.ndarray:
    """Exact derivative of the energy, flat (N*m,) in vertex-major layout
    (see ``_walk``)."""
    return _walk(polygon, quad, value=False)[1]


def hessian(polygon: Polygon, quad: QuadratureRule):
    """Hessian operator of the energy at ``polygon``.

    Returns ``apply(V)``, the Hessian times a batch of fields ``V`` of
    shape (k, N, m), in the shape of ``V``: the directional derivative of
    :func:`d_energy`'s table formulas along each field, on the same
    node-pair tables.  A field moves the edge vectors by ``de`` and the
    quadrature points ``x_I`` (node s) and ``y_J`` (node t) by ``X_I`` and
    ``Y_J``, so ``d = x_I - y_J`` moves by ``X_I - Y_J``.

    The builder walks the node pairs once and keeps, per node pair, the
    ``q`` table the walk yielded and seven tables that every field shares
    (q^2, 4 v q^3, 4 u q^3, ``d_energy``'s three tables and the
    q-derivative of the first).  Each ``apply`` adds only the N x N tables
    of each field, in nine scratch tables that it reuses for every node
    pair and field, so it allocates no N x N array (and one operator serves
    one caller at a time).  The shared tables and the scratch are one work
    array of 7 r^2 + 9 tables for a rule of r nodes, allocated after the
    walk has freed its ``d`` tables; with the ``q`` tables the operator
    holds 8 r^2 + 9.  Every table linear in ``d``
    is one (N x K)(K x N) product, K at most 2m + 2 with the row and column
    terms folded in (``u``, ``v``, ``d . dd``, ``du``, ``dv`` and ``dss``),
    and a sum ``sum_J c_IJ d_IJ`` is ``x_I (c 1)_I - (c y)_I``.  The
    positions are centred first, so no product cancels more than the
    curve's extent.
    """
    n, m = polygon.num_vertices, polygon.dim
    e, ell = polygon.edge_vectors, polygon.edge_lengths
    col, one = ell[:, None], np.ones((n, 1))
    ss = np.outer(ell, ell) + e @ e.T
    centred = polygon.vertices - polygon.vertices.mean(axis=0)

    (_, pairs), = _pair_blocks(polygon, quad, rows=n)
    walked = [(weight, s, t, q) for weight, s, t, _, q in pairs]
    work = np.empty((7 * len(walked) + 9, n, n))
    scratch, u, v = work[-9:-6]        # field scratch, free while building
    nodes = []
    for (weight, s, t, q), shared in zip(walked, work[:-9].reshape(-1, 7, n, n)):
        q2, vq, uq, a_h, a_tab, b_tab, c_tab = shared
        x, y = _node_positions(centred, s), _node_positions(centred, t)
        _uv(_uv_factors(e, x), _uv_factors(e, y), slice(None), u, v)
        np.multiply(q, q, out=q2)
        np.multiply(v, q2, out=b_tab)
        np.multiply(u, q2, out=c_tab)
        np.multiply(q2, q, out=scratch)
        scratch *= 4.0
        np.multiply(v, scratch, out=vq)          # 4 v q^3
        np.multiply(u, scratch, out=uq)          # 4 u q^3
        np.multiply(ss, scratch, out=a_h)
        u *= vq
        np.multiply(ss, q2, out=a_tab)
        np.subtract(u, a_tab, out=a_tab)         # q^2 (8 u v q - 2 ss) / 2
        u *= q
        u *= 6.0
        a_h -= u                                 # 4 ss q^3 - 24 u v q^4
        nodes.append((weight, s, t, x, y, np.hstack((e, col, y, one)), q, shared))

    def apply(fields) -> np.ndarray:
        fields = np.asarray(fields, dtype=float)
        if fields.ndim != 3 or fields.shape[1:] != (n, m):
            raise ValueError(f"fields must have shape (k, {n}, {m}), got {fields.shape}")
        k = len(fields)
        shift = np.roll(fields, -1, axis=1)
        de = shift - fields
        dell = np.einsum("kim,im->ki", de, e) / ell
        de_cols = de.transpose(1, 0, 2).reshape(n, k * m)  # the fields side by side
        q_right = np.hstack((de_cols, dell.T, col))
        tables = work[-4:]             # each field's dq / -2, db, da / 2, dc
        dq, db, da, dc_tab = tables
        scratch, h, du, dv, dss = work[-9:-4]
        tail, head = np.zeros_like(fields), np.zeros_like(fields)
        for weight, s, t, x, y, right, q, shared in nodes:
            q2, vq, uq, a_h, a_tab, b_tab, c_tab = shared
            xx = (1.0 - s) * fields + s * shift
            yy = (1.0 - t) * fields + t * shift
            # Shared tables times every field at once.
            yy_cols = np.hstack((yy.transpose(1, 0, 2).reshape(n, k * m), one))
            q_f = q @ q_right
            c = q_f[:, -1]
            b_yy, a_yy = b_tab @ yy_cols, 2.0 * (a_tab @ yy_cols)
            b1, a1 = b_yy[:, -1:], a_yy[:, -1:]
            c_de = c_tab @ de_cols

            for j in range(k):
                # d . dd, du, dv and dss, one product each.
                f, g, df, dl = xx[j], yy[j], de[j], dell[j][:, None]
                np.matmul(np.hstack((x, f, _dot(x, f), one)),
                          np.hstack((-g, -y, one, _dot(y, g))).T, out=h)
                np.matmul(np.hstack((e, df, _dot(e, f) + _dot(df, x))),
                          np.hstack((-g, -y, one)).T, out=du)
                np.matmul(np.hstack((f, x, one)),
                          np.hstack((e, df, -_dot(e, g) - _dot(df, y))).T, out=dv)
                np.matmul(np.hstack((dl, col, df, e)), np.hstack((col, dl, e, df)).T,
                          out=dss)
                np.multiply(q2, h, out=dq)
                np.multiply(q2, dv, out=db)
                db -= np.multiply(vq, h, out=scratch)
                np.multiply(q2, du, out=dc_tab)
                dc_tab -= np.multiply(uq, h, out=scratch)
                h *= a_h
                du *= vq
                dv *= uq
                dss *= q2
                np.add(h, du, out=da)
                da += dv
                da -= dss
                sums = (tables.reshape(4 * n, n) @ right).reshape(4, n, -1)
                dq_e, dq_ell = -2.0 * sums[0, :, :m], -2.0 * sums[0, :, m]
                db_y, db1 = sums[1, :, m + 1:-1], sums[1, :, -1:]
                da_y, da1 = 2.0 * sums[2, :, m + 1:-1], 2.0 * sums[2, :, -1:]
                # The derivatives of d_energy's ga and gd.
                dc = dq_ell + q_f[:, k * m + j]
                cols = slice(j * m, (j + 1) * m)
                ga = (df * (c / ell)[:, None] + e * ((dc - c * dell[j] / ell) / ell)[:, None]
                      + dq_e + q_f[:, cols] - 2.0 * (x * db1 - db_y)
                      - 2.0 * (f * b1 - b_yy[:, cols]))
                gd = (x * da1 - da_y + f * a1 - a_yy[:, cols]
                      - 2.0 * (df * b1 + e * db1 + sums[3, :, :m] + c_de[:, cols]))
                tail[j] += weight * ((1.0 - s) * gd - ga)
                head[j] += weight * (s * gd + ga)
        return 2.0 * (tail + np.roll(head, 1, axis=1))

    return apply
