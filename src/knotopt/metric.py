"""Gram matrices of the candidate inner products on vertex displacement fields.

Every metric here is assembled as an ``N x N`` scalar matrix acting
identically on each of the ``m`` coordinates, then expanded to the full
``(N*m) x (N*m)`` operator in vertex-major layout.  The main metric couples
all edge pairs with disjoint closures:

  * a principal term summing ``l_I l_J |u'_I - u'_J|^2`` against the
    quadrature average of ``1 / |x_I - x_J|^2`` over the pair, where
    ``u'_I`` is the per-edge difference quotient of the field;
  * a lower-order term weighting squared point differences of the field by
    the pointwise energy density of the pair (this is what discourages
    movement in regions of near self-contact);
  * an optional rank-m barycenter term that restores definiteness on
    constant fields when no barycenter constraint is active.

The low-order baselines (lumped mass, first and second difference
stiffness) use standard one-dimensional finite-element forms.
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .collision import nonadjacent_pairs
from .curve import Polygon, arc_distance
from .energy import MIDPOINT, QuadratureRule, _check_separation, _quad_positions
from .errors import DimensionMismatch, SingularSystem

_FAMILIES = ("l2", "w12", "w22", "w32")


@dataclass(frozen=True)
class MetricKind:
    """Metric family plus assembly options.

    ``include_low_order`` adds the energy-weighted term (only meaningful
    for the w32 family; the geometric variant always carries it).
    ``include_barycenter`` adds the rank-m mean-value term.
    """

    family: str
    include_low_order: bool = False
    include_barycenter: bool = False

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown metric family {self.family!r}")
        if self.include_low_order and self.family != "w32":
            raise ValueError("the low-order energy term belongs to the w32 family")

    def with_barycenter(self, flag: bool) -> "MetricKind":
        return replace(self, include_barycenter=flag)

    @property
    def name(self) -> str:
        if self.family != "w32":
            return self.family
        return "w32" if self.include_low_order else "w32pure"


L2 = MetricKind("l2")
W12 = MetricKind("w12")
W22 = MetricKind("w22")
W32_PURE = MetricKind("w32", include_low_order=False, include_barycenter=True)
W32_GEOMETRIC = MetricKind("w32", include_low_order=True, include_barycenter=False)

BASELINE_KINDS = {"l2": L2, "w12": W12, "w22": W22, "w32pure": W32_PURE}


class GramOperator:
    """Dense symmetric operator realizing a metric at a given polygon."""

    def __init__(self, scalar: np.ndarray, dim: int):
        scalar = np.asarray(scalar, dtype=float)
        self.scalar = 0.5 * (scalar + scalar.T)
        self.matrix = np.kron(self.scalar, np.eye(dim))
        self.dim = dim
        self.scalar.setflags(write=False)
        self.matrix.setflags(write=False)
        self._chol = None

    @property
    def shape(self):
        return self.matrix.shape

    def _check(self, u):
        u = np.asarray(u, dtype=float).ravel()
        if u.shape[0] != self.matrix.shape[0]:
            raise DimensionMismatch(
                f"field of length {u.shape[0]}, operator of size {self.matrix.shape[0]}"
            )
        return u

    def apply(self, u) -> np.ndarray:
        return self.matrix @ self._check(u)

    def inner(self, u, v) -> float:
        return float(self._check(u) @ self.matrix @ self._check(v))

    def norm(self, u) -> float:
        return float(np.sqrt(max(self.inner(u, u), 0.0)))

    def solve(self, rhs) -> np.ndarray:
        """Apply the inverse metric; requires positive definiteness."""
        rhs = self._check(rhs)
        if self._chol is None:
            try:
                self._chol = scipy.linalg.cho_factor(self.scalar)
            except scipy.linalg.LinAlgError as exc:
                raise SingularSystem("metric is not positive definite") from exc
        n = self.scalar.shape[0]
        cols = rhs.reshape(n, self.dim)
        out = scipy.linalg.cho_solve(self._chol, cols).ravel()
        # A PSD matrix with a nullspace can slip through the factorization
        # with tiny pivots; reject such solves by their residual.
        defect = np.linalg.norm(self.matrix @ out - rhs)
        if not np.isfinite(defect) or defect > 1e-8 * max(np.linalg.norm(rhs), 1e-300):
            raise SingularSystem("metric solve residual too large; not definite")
        return out


def _scatter_pair_blocks(scalar, idx, local):
    for bi in range(4):
        for bj in range(4):
            np.add.at(scalar, (idx[bi], idx[bj]), local[:, bi, bj])


def _w32_scalar(polygon: Polygon, kind: MetricKind, quad: QuadratureRule):
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
    _scatter_pair_blocks(scalar, idx, principal + low)
    return 2.0 * scalar


def _lumped_mass_weights(polygon: Polygon) -> np.ndarray:
    ell = polygon.edge_lengths
    return 0.5 * (ell + np.roll(ell, 1))


def _l2_scalar(polygon: Polygon) -> np.ndarray:
    return np.diag(_lumped_mass_weights(polygon))


def _w12_scalar(polygon: Polygon) -> np.ndarray:
    n = polygon.num_vertices
    scalar = _l2_scalar(polygon)
    inv = 1.0 / polygon.edge_lengths
    nxt = np.roll(np.arange(n), -1)
    np.add.at(scalar, (np.arange(n), np.arange(n)), inv)
    np.add.at(scalar, (nxt, nxt), inv)
    np.add.at(scalar, (np.arange(n), nxt), -inv)
    np.add.at(scalar, (nxt, np.arange(n)), -inv)
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
            np.add.at(
                scalar,
                (support[:, a], support[:, b]),
                stencil[:, a] * stencil[:, b] / dual,
            )
    return scalar


def _barycenter_scalar(polygon: Polygon) -> np.ndarray:
    ell = polygon.edge_lengths
    w = 0.5 * (ell + np.roll(ell, 1))
    return np.outer(w, w)


def assemble_gram(polygon: Polygon, kind: MetricKind,
                  quad: QuadratureRule = MIDPOINT) -> GramOperator:
    """Assemble the Gram operator of the requested metric at this polygon."""
    if kind.family == "l2":
        scalar = _l2_scalar(polygon)
    elif kind.family == "w12":
        scalar = _w12_scalar(polygon)
    elif kind.family == "w22":
        scalar = _w22_scalar(polygon)
    else:
        scalar = _w32_scalar(polygon, kind, quad)
    if kind.include_barycenter:
        scalar = scalar + _barycenter_scalar(polygon)
    return GramOperator(scalar, polygon.dim)


def parse_metric(name: str) -> MetricKind:
    name = name.strip().lower()
    if name in ("w32", "w32geometric", "w32-geometric"):
        return W32_GEOMETRIC
    if name in BASELINE_KINDS:
        return BASELINE_KINDS[name]
    raise ValueError(
        f"unknown metric {name!r}; expected one of l2, w12, w22, w32pure, w32"
    )
