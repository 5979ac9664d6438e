import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knotopt as ko
from knotopt.curve import arc_distance
from knotopt.energy import _quad_positions
from conftest import random_embedded_polygon, rotation_matrix

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
# Edges 0 and 4 are 1.4e-9 apart, 1e-10 of the length: closer than the
# contact scale, farther than the degeneracy scale.
NEAR_CONTACT = [(0.0, 0.0), (3.0, 0.0), (3.0, 2.0), (2.0, 2.0), (2.0, 1.4e-9),
                (1.0, 1.4e-9), (1.0, 2.0), (0.0, 2.0)]


def orientation(p, q, r):
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def segments_cross(a0, a1, b0, b1):
    """Exact 2-d segment intersection predicate (proper crossings)."""
    d1 = orientation(b0, b1, a0)
    d2 = orientation(b0, b1, a1)
    d3 = orientation(a0, a1, b0)
    d4 = orientation(a0, a1, b1)
    return d1 * d2 < 0 and d3 * d4 < 0


class TestPolygonConstruction:
    def test_unit_square(self):
        p = ko.Polygon(UNIT_SQUARE)
        assert p.total_length == 4.0
        assert np.all(p.edge_lengths == 1.0)
        assert p.num_vertices == 4 and p.dim == 2

    def test_too_few_vertices(self):
        with pytest.raises(ko.TooFewVertices):
            ko.Polygon([(0, 0), (1, 0), (0.5, 1)])

    def test_figure_eight_rejected(self):
        # Oracle: exact orientation tests confirm the non-adjacent pair
        # (0, 2) crosses, so construction must reject the polygon.
        vertices = [(0.0, 0.0), (2.0, 2.0), (0.0, 2.0), (2.0, 0.0)]
        assert segments_cross(vertices[0], vertices[1], vertices[2], vertices[3])
        with pytest.raises(ko.SelfIntersection):
            ko.Polygon(vertices)

    def test_pair_within_contact_scale_rejected(self):
        # Embedded means what a collision query accepts as a start: no
        # non-adjacent pair within CONTACT_SCALE of the length.
        with pytest.raises(ko.SelfIntersection):
            ko.Polygon(NEAR_CONTACT)
        with pytest.raises(ko.AlreadyColliding):
            ko.first_collision_step(np.array(NEAR_CONTACT), np.ones((8, 2)), 1.0)
        wider = np.array(NEAR_CONTACT)
        wider[4:6, 1] = 1e-3
        ko.Polygon(wider)

    def test_degenerate_edge(self):
        with pytest.raises(ko.DegenerateEdge):
            ko.Polygon([(0, 0), (0, 0), (1, 1), (0, 1)])

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            ko.Polygon(np.zeros((5, 1)))

    def test_vertices_read_only(self):
        p = ko.Polygon(UNIT_SQUARE)
        with pytest.raises(ValueError):
            p.vertices[0, 0] = 7.0


def arc_coord(polygon, edge, t):
    """Arc coordinate of the point at local parameter t on an edge."""
    return polygon.arc_prefix[edge] + t * polygon.edge_lengths[edge]


class TestDerivedGeometry:
    def test_quad_point(self):
        # Node t = 0.25 of edge 1 of the unit square, as the energy places it.
        p = ko.Polygon(UNIT_SQUARE)
        nodes = _quad_positions(p, ko.QuadratureRule(np.array([0.25]), np.array([1.0])))
        assert np.allclose(nodes[1, 0], [1.0, 0.25])


class TestGeodesicDistance:
    """``arc_distance``: the shorter arc between two points of the polygon."""

    def test_opposite_midpoints_octagon(self):
        p = ko.regular_ngon(8)
        a, b = arc_coord(p, 0, 0.5), arc_coord(p, 4, 0.5)
        assert arc_distance(p, a, b) == pytest.approx(p.total_length / 2)

    def test_same_point(self):
        p = ko.Polygon(UNIT_SQUARE)
        a = arc_coord(p, 2, 0.75)
        assert arc_distance(p, a, a) == 0.0

    def test_square_adjacent_midpoints(self):
        # Hand evaluation of the prefix sums: 0.5 + 0.5 along the short way.
        p = ko.Polygon(UNIT_SQUARE)
        a, b = arc_coord(p, 0, 0.5), arc_coord(p, 1, 0.5)
        assert arc_distance(p, a, b) == pytest.approx(1.0)

    @settings(max_examples=30, deadline=None)
    @given(
        edges=st.tuples(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10)),
        params=st.tuples(
            st.floats(0, 1, allow_nan=False),
            st.floats(0, 1, allow_nan=False),
            st.floats(0, 1, allow_nan=False),
        ),
    )
    def test_symmetry_bound_triangle(self, edges, params):
        p = random_embedded_polygon(11, seed=8)
        a, b, c = (arc_coord(p, e, t) for e, t in zip(edges, params))
        dab = arc_distance(p, a, b)
        dbc = arc_distance(p, b, c)
        dac = arc_distance(p, a, c)
        assert dab == arc_distance(p, b, a)
        assert 0.0 <= dab <= p.total_length / 2 + 1e-12
        assert dac <= dab + dbc + 1e-9


class TestRigidMotionInvariance:
    def test_lengths_and_distances(self, rng):
        p = random_embedded_polygon(13, dim=3, seed=5)
        r = rotation_matrix(3, rng, plane=(0, 2))
        shift = rng.standard_normal(3)
        q = ko.Polygon(p.vertices @ r.T + shift)
        assert np.allclose(q.edge_lengths, p.edge_lengths, rtol=1e-13, atol=0)
        assert q.total_length == pytest.approx(p.total_length, rel=1e-13)
        assert arc_distance(q, arc_coord(q, 2, 0.3), arc_coord(q, 7, 0.9)) == pytest.approx(
            arc_distance(p, arc_coord(p, 2, 0.3), arc_coord(p, 7, 0.9)), rel=1e-13
        )
        dots_p = p.tangents @ p.tangents[0]
        dots_q = q.tangents @ q.tangents[0]
        assert np.allclose(dots_p, dots_q, atol=1e-13)


class TestRegularNgon:
    def test_exact_total_length(self):
        for n in (4, 17, 256):
            p = ko.regular_ngon(n, radius=1.7)
            expected = 2 * n * 1.7 * np.sin(np.pi / n)
            assert p.total_length == pytest.approx(expected, rel=1e-13)

    def test_circle_limit(self):
        p = ko.regular_ngon(256, radius=2.0)
        assert p.total_length == pytest.approx(2 * np.pi * 2.0, rel=1e-4)

    def test_planar_embedding_in_3d(self):
        p = ko.regular_ngon(4, radius=1.0, dim=3)
        assert np.all(p.vertices[:, 2] == 0.0)

    def test_too_few(self):
        with pytest.raises(ko.TooFewVertices):
            ko.regular_ngon(3)

    def test_dimension_below_two_rejected(self):
        for make in (ko.regular_ngon, ko.perturbed_circle):
            with pytest.raises(ValueError, match="dimension"):
                make(8, dim=1)


class TestTorusKnot:
    def test_trefoil_embedded(self):
        p = ko.torus_knot(2, 3, 120)
        # Independent audit: brute-force minimum over non-adjacent pairs.
        assert ko.proximity_report(p.vertices).min_distance > 0.0
        assert p.dim == 3

    def test_degenerate_unknot(self):
        p = ko.torus_knot(1, 0, 64)
        radii = np.linalg.norm(p.vertices[:, :2], axis=1)
        assert np.allclose(radii, radii[0])
        assert np.all(p.vertices[:, 2] == 0.0)

    def test_undersampled_rejected(self):
        # The brute-force pair oracle identifies N=6 as self-intersecting
        # for these radii (N=8 is already embedded).
        with pytest.raises(ko.SelfIntersection):
            ko.torus_knot(2, 3, 6)

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            ko.torus_knot(2, 4, 64)


class TestCoiledUnknot:
    def test_single_winding_near_minimal(self):
        p = ko.coiled_unknot(64, windings=1)
        reference = float(ko.energy(ko.regular_ngon(64)))
        assert float(ko.energy(p)) <= reference + 0.5

    def test_many_windings_high_energy(self):
        p = ko.coiled_unknot(192, windings=6)
        assert ko.proximity_report(p.vertices).min_distance > 0.0
        assert float(ko.energy(p)) > 8.0

    def test_collapsed_aspect_rejected(self):
        with pytest.raises((ko.SelfIntersection, ko.DegenerateEdge)):
            ko.coiled_unknot(96, windings=4, aspect=0.0)

    def test_minimum_vertex_count(self):
        with pytest.raises(ko.TooFewVertices):
            ko.coiled_unknot(16, windings=4)


class TestPerturbedCircle:
    def test_mesh_consistency(self):
        # Same smooth curve sampled at two resolutions: total lengths agree.
        p64 = ko.perturbed_circle(64)
        p256 = ko.perturbed_circle(256)
        assert p64.total_length == pytest.approx(p256.total_length, rel=1e-3)

    def test_amplitude(self):
        p = ko.perturbed_circle(128, amplitude=0.05)
        radii = np.linalg.norm(p.vertices, axis=1)
        assert radii.max() <= 1.05 + 1e-9
        assert radii.min() >= 0.95 - 1e-9
