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
    constant fields when no barycenter constraint is active.

The two pair terms are kernel-weighted graph Laplacians built from ordered
edge-pair tables (see ``_w32_scalar``).

The low-order baselines (lumped mass, first and second difference
stiffness) use standard one-dimensional finite-element forms.
"""

from dataclasses import dataclass, replace

import numpy as np

from .curve import Polygon, arc_distance
from .energy import MIDPOINT, QuadratureRule, _pair_tables
from .errors import DimensionMismatch

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
    """Symmetric operator ``scalar (x) I_dim`` realizing a metric at a polygon."""

    def __init__(self, scalar: np.ndarray, dim: int):
        scalar = np.asarray(scalar, dtype=float)
        self.scalar = 0.5 * (scalar + scalar.T)
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

    def inner(self, u, v) -> float:
        return float(self._check(u) @ self.apply(v))

    def norm(self, u) -> float:
        return float(np.sqrt(max(self.inner(u, u), 0.0)))


def _w32_scalar(polygon: Polygon, kind: MetricKind, quad: QuadratureRule):
    """Scalar matrix of the w32 family from ordered edge-pair tables.

    Principal part ``2 D^T (diag(K 1) - K) D`` with ``K = l_I l_J sum w/|d|^2``
    and ``(D u)_I = (u_{I+1} - u_I) / l_I``; low-order part
    ``sum_st 2 (A_s^T diag(K_st 1) A_s - A_s^T K_st A_t)`` with the
    density-weighted table K_st and ``(A_s u)_I = (1-s) u_I + s u_{I+1}``.
    D and A weigh edge tails (0) and heads (1), so both parts are tables
    ``[p, r]`` rolled p rows and r columns on.
    """
    n = polygon.num_vertices
    ell = polygon.edge_lengths
    tables = np.zeros((2, 2, n, n))
    kernel = np.zeros((n, n))
    for w, s, t, _, q in _pair_tables(polygon, quad):
        kernel += w * q
        if kind.include_low_order:
            rho2 = arc_distance(polygon, (polygon.arc_prefix + s * ell)[:, None],
                                (polygon.arc_prefix + t * ell)[None, :]) ** 2
            # Masked entries (q = 0) include rho = 0 on the diagonal.
            inv_rho2 = np.divide(1.0, rho2, out=np.zeros_like(q), where=q > 0.0)
            low = w * np.outer(ell, ell) * (q - inv_rho2) * q
            row_sums = low.sum(axis=1)
            avg_s, avg_t = (1.0 - s, s), (1.0 - t, t)
            for p, r in np.ndindex(2, 2):
                tables[p, r] -= 2.0 * avg_s[p] * avg_t[r] * low
                tables[p, r].flat[::n + 1] += 2.0 * avg_s[p] * avg_s[r] * row_sums
    # D = (head - tail) / l: the 1/l factors fold into the table.
    principal = -2.0 * kernel
    principal.flat[::n + 1] += 2.0 * (kernel @ ell) / ell
    return sum(np.roll(tables[p, r] + (-1.0) ** (p + r) * principal, (p, r), axis=(0, 1))
               for p, r in np.ndindex(2, 2))


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
        weights = _lumped_mass_weights(polygon)
        scalar = scalar + np.outer(weights, weights)
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
