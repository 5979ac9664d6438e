"""Closed polygonal curves, derived geometry, and parametric generators.

A :class:`Polygon` is an embedded closed polygonal curve with ``N >= 4``
vertices in ``R^m`` (``m >= 2``): no edge is shorter than ``1e-12`` of the
diameter, and no two edges that share no vertex come within
``collision.CONTACT_SCALE`` (``1e-9``) of the total length, the distance at
which a collision query reports contact.  Edge ``i`` connects vertex ``i`` to
vertex ``(i+1) % N``; the vertex ordering fixes the orientation.  All
curve objects are immutable value data after construction: derived tables
(edge lengths, tangents, arc-length prefix sums) are computed once and the
underlying arrays are marked read-only, so polygons can be shared freely
between threads.
"""

import math

import numpy as np

from . import collision
from .errors import DegenerateEdge, SelfIntersection, TooFewVertices

# Edges shorter than this fraction of the polygon diameter are degenerate.
_DEGENERACY_SCALE = 1e-12


class Polygon:
    """Embedded closed polygonal curve."""

    def __init__(self, vertices, *, validate: bool = True):
        v = np.array(vertices, dtype=float)
        if v.ndim != 2:
            raise ValueError("vertices must be an (N, m) array")
        n, m = v.shape
        if n < 4:
            raise TooFewVertices(f"need at least 4 vertices, got {n}")
        if m < 2:
            raise ValueError(f"ambient dimension must be >= 2, got {m}")
        if not np.all(np.isfinite(v)):
            raise ValueError("vertices contain non-finite values")

        edges = np.roll(v, -1, axis=0) - v
        lengths = np.linalg.norm(edges, axis=1)
        diameter = float(np.linalg.norm(v.max(axis=0) - v.min(axis=0)))
        if diameter == 0.0 or np.any(lengths <= _DEGENERACY_SCALE * diameter):
            raise DegenerateEdge(
                f"shortest edge {lengths.min():.3e} vs diameter {diameter:.3e}"
            )

        self.vertices = v
        self.edge_vectors = edges
        self.edge_lengths = lengths
        self.tangents = edges / lengths[:, None]
        self.total_length = float(lengths.sum())
        self.arc_prefix = np.concatenate(([0.0], np.cumsum(lengths)[:-1]))

        if validate and collision._touching(v, collision.CONTACT_SCALE * self.total_length):
            report = collision.proximity_report(v)
            raise SelfIntersection(
                f"edges {report.pair} at distance {report.min_distance:.3e}"
            )

        for arr in (self.vertices, self.edge_vectors, self.edge_lengths,
                    self.tangents, self.arc_prefix):
            arr.setflags(write=False)

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    def __repr__(self) -> str:
        return (
            f"Polygon(N={self.num_vertices}, m={self.dim}, "
            f"L={self.total_length:.6g})"
        )


def arc_distance(polygon: Polygon, s_a, s_b):
    """Vectorized geodesic distance between arc coordinates."""
    gap = np.abs(np.asarray(s_a) - np.asarray(s_b))
    return np.minimum(gap, polygon.total_length - gap)


def _plane_curve(x, y, dim: int) -> Polygon:
    """Polygon with coordinates ``x``, ``y`` in the first two axes of ``R^dim``."""
    if dim < 2:
        raise ValueError(f"ambient dimension must be >= 2, got {dim}")
    v = np.zeros((len(x), dim))
    v[:, 0], v[:, 1] = x, y
    return Polygon(v)


def regular_ngon(n: int, radius: float = 1.0, dim: int = 2) -> Polygon:
    """Planar regular polygon inscribed in a circle of the given radius.

    Lives in the first two coordinates of ``R^dim``.
    """
    if n < 4:
        raise TooFewVertices(f"need at least 4 vertices, got {n}")
    theta = 2.0 * np.pi * np.arange(n) / n
    return _plane_curve(radius * np.cos(theta), radius * np.sin(theta), dim)


def torus_knot(p: int, q: int, n: int, big_radius: float = 2.0,
               small_radius: float = 1.0) -> Polygon:
    """Polygonal (p, q) torus knot, sampled uniformly in parameter.

    Winds ``p`` times around the torus axis and ``q`` times around the
    tube.  Raises :class:`SelfIntersection` when ``n`` is too small for the
    sampled polyline to be embedded.
    """
    if math.gcd(p, q) != 1:
        raise ValueError(f"(p, q) = ({p}, {q}) must be coprime")
    if p < 1 or q < 0:
        raise ValueError(f"need p >= 1 and q >= 0, got ({p}, {q})")
    t = 2.0 * np.pi * np.arange(n) / n
    ring = big_radius + small_radius * np.cos(q * t)
    v = np.column_stack((
        ring * np.cos(p * t),
        ring * np.sin(p * t),
        small_radius * np.sin(q * t),
    ))
    return Polygon(v)


def coiled_unknot(n: int, windings: int = 4, aspect: float = 3.0) -> Polygon:
    """Tightly coiled unknot: a helix wound around a circular axis.

    The curve winds ``windings`` times around the tube of a torus whose
    axis circle has radius ``aspect`` times the coil radius, while passing
    once around the axis, so the isotopy class is trivial by construction.
    Small ``aspect`` collapses the coil onto the axis and fails the
    embeddedness check.
    """
    if windings < 1:
        raise ValueError("windings must be >= 1")
    if n < 8 * windings:
        raise TooFewVertices(
            f"need at least {8 * windings} vertices for {windings} windings"
        )
    t = 2.0 * np.pi * np.arange(n) / n
    ring = aspect + np.cos(windings * t)
    v = np.column_stack((
        ring * np.cos(t),
        ring * np.sin(t),
        np.sin(windings * t),
    ))
    return Polygon(v)


def perturbed_circle(n: int, amplitude: float = 0.05, harmonics=(2, 3, 4, 5, 6),
                     seed: int = 0, dim: int = 2) -> Polygon:
    """Circle with a fixed smooth radial perturbation, sampled at n points.

    The perturbation is a seeded low-harmonic trigonometric polynomial
    normalized to peak amplitude ``amplitude``, so different resolutions
    ``n`` sample the same underlying smooth curve.  Used as the standard
    mesh-refinement test family.
    """
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal(len(harmonics))
    phase = rng.uniform(0.0, 2.0 * np.pi, len(harmonics))

    def bump_at(angles):
        return sum(c * np.cos(h * angles + ph)
                   for c, h, ph in zip(coeff, harmonics, phase))

    theta = 2.0 * np.pi * np.arange(n) / n
    dense = np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False)
    peak = np.abs(bump_at(dense)).max()
    r = 1.0 + amplitude * bump_at(theta) / peak
    return _plane_curve(r * np.cos(theta), r * np.sin(theta), dim)
