import numpy as np
import pytest
from scipy.integrate import quad

import knotopt as ko
from knotopt.energy import MIDPOINT
import pairlist_oracle as oracle
from conftest import random_embedded_polygon, rotation_matrix

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def fd_gradient(polygon, quad_rule, step):
    v = polygon.vertices
    flat = v.ravel()
    grad = np.zeros_like(flat)
    for k in range(flat.size):
        up = flat.copy()
        up[k] += step
        dn = flat.copy()
        dn[k] -= step
        e_up = float(ko.energy(ko.Polygon(up.reshape(v.shape), validate=False), quad_rule))
        e_dn = float(ko.energy(ko.Polygon(dn.reshape(v.shape), validate=False), quad_rule))
        grad[k] = (e_up - e_dn) / (2 * step)
    return grad


class TestIntegrand:
    def test_antipodal_circle_pair(self):
        # Two antipodal points on the unit circle with the circle tangents:
        # the integrand cancels exactly.
        f = oracle.in_integrand(
            (1.0, -0.5), (1.0, 0.5),     # right edge, tangent (0, 1)
            (-1.0, 0.5), (-1.0, -0.5),   # left edge, tangent (0, -1)
            0.5, 0.5,
        )
        assert f == 0.0

    def test_parallel_tangents_orthogonal_offset(self):
        # tau_i = tau_j and the chord orthogonal to them: only the middle
        # term survives, 2 / |dg|^2.
        f = oracle.in_integrand(
            (0.0, 0.0), (1.0, 0.0),
            (0.0, 3.0), (1.0, 3.0),
            0.5, 0.5,
        )
        assert f == pytest.approx(2.0 / 9.0, rel=1e-14)

    def test_unit_square_opposite_midpoints(self):
        f = oracle.in_integrand(
            (0.0, 0.0), (1.0, 0.0),
            (1.0, 1.0), (0.0, 1.0),
            0.5, 0.5,
        )
        assert f == 0.0

    def test_coincident_points(self):
        with pytest.raises(ko.CoincidentPoints):
            oracle.in_integrand((0, 0), (1, 0), (0.5, 0), (0.5, 1), 0.5, 0.0)


class TestLocalContribution:
    def test_unit_square_pair_exact_zero(self):
        p = ko.Polygon(UNIT_SQUARE)
        assert oracle.local_contribution(p, 0, 2) == 0.0

    def test_adjacent_rejected(self):
        p = ko.Polygon(UNIT_SQUARE)
        with pytest.raises(ko.AdjacentEdges):
            oracle.local_contribution(p, 0, 1)

    def test_scale_invariance(self):
        p = random_embedded_polygon(12, seed=1)
        q = ko.Polygon(1.7 * p.vertices)
        for pair in ((0, 4), (2, 9)):
            w_p = oracle.local_contribution(p, *pair)
            w_q = oracle.local_contribution(q, *pair)
            assert w_q == pytest.approx(w_p, rel=1e-13)

    def test_quadrature_refinement(self):
        # Richardson-style comparison: increasing node counts converge to
        # the k=16 reference; four matching digits are reached by k=8.
        p = ko.perturbed_circle(64)
        reference = oracle.local_contribution(p, 0, 32, ko.QuadratureRule.gauss(16))
        errors = [
            abs(oracle.local_contribution(p, 0, 32, ko.QuadratureRule.gauss(k)) - reference)
            for k in (1, 2, 4, 8)
        ]
        assert errors[0] > 0
        assert all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
        assert errors[-1] <= 1e-4 * abs(reference)

    def test_regular_polygon_midpoint_exactness(self):
        # Edge midpoints of a regular polygon lie on a circle whose
        # tangents are the edge directions, so the one-node contribution
        # vanishes identically while higher-order rules see a positive
        # value.
        p = ko.regular_ngon(64)
        assert abs(oracle.local_contribution(p, 0, 32)) < 1e-30
        assert oracle.local_contribution(p, 0, 32, ko.QuadratureRule.gauss(8)) > 0


class TestEnergy:
    def test_unit_square_exactly_four(self):
        assert float(ko.energy(ko.Polygon(UNIT_SQUARE))) == 4.0

    def test_pair_table_consistency(self):
        p = random_embedded_polygon(10, seed=2)
        detail = ko.energy(p, with_pairs=True)
        assert detail.value == pytest.approx(
            4.0 + 2.0 * detail.pair_contributions.sum(), rel=1e-14
        )
        assert np.all(np.isfinite(detail.pair_contributions))

    def test_regular_ngon_machine_exact(self):
        # One-node quadrature reproduces exact circle geometry on regular
        # polygons; the defect is pure floating-point accumulation.
        for n in (32, 128, 512):
            defect = abs(float(ko.energy(ko.regular_ngon(n))) - 4.0)
            assert defect <= 64 * n * np.finfo(float).eps

    def test_two_node_rule_monotone_convergence(self):
        rule = ko.QuadratureRule.gauss(2)
        defects = [
            float(ko.energy(ko.regular_ngon(n), rule)) - 4.0
            for n in (32, 64, 128, 256)
        ]
        assert all(d > 0 for d in defects)
        assert all(defects[i + 1] < defects[i] for i in range(len(defects) - 1))

    def test_rigid_motion_invariance(self, rng):
        p = random_embedded_polygon(14, dim=3, seed=4)
        r = rotation_matrix(3, rng, plane=(1, 2))
        q = ko.Polygon(p.vertices @ r.T + rng.standard_normal(3))
        reflected = ko.Polygon(p.vertices * np.array([1.0, -1.0, 1.0]))
        e = float(ko.energy(p))
        assert float(ko.energy(q)) == pytest.approx(e, rel=1e-12)
        assert float(ko.energy(reflected)) == pytest.approx(e, rel=1e-12)

    def test_scaling_invariance(self):
        p = random_embedded_polygon(14, seed=6)
        assert float(ko.energy(ko.Polygon(2.0 * p.vertices))) == pytest.approx(
            float(ko.energy(p)), rel=1e-13
        )


class TestSingleNodeVariants:
    def test_square_vertex_energy_hand_enumeration(self):
        # Two unordered disjoint pairs; each contributes
        # 1 * (1/2 - 1/4) = 1/4, ordered sum doubles: total 1.0.
        p = ko.Polygon(UNIT_SQUARE)
        brute = 0.0
        for i in range(4):
            for j in range(4):
                if (i - j) % 4 in (0, 1, 3):
                    continue
                chord2 = float(np.sum((p.vertices[i] - p.vertices[j]) ** 2))
                gap = abs(p.arc_prefix[i] - p.arc_prefix[j])
                rho = min(gap, p.total_length - gap)
                brute += 1.0 / chord2 - 1.0 / rho**2
        assert brute == pytest.approx(1.0, rel=1e-14)
        assert ko.ks_energy(p, "vertex") == pytest.approx(brute, rel=1e-14)

    def test_edge_variant_converges_to_circle_oracle(self):
        # Oracle: adaptive quadrature of the continuous density on the
        # round circle (the value is 4).
        length = 2 * np.pi
        radius = 1.0
        integrand = lambda s: (
            1.0 / (2 * radius * np.sin(np.pi * s / length)) ** 2 - 1.0 / s**2
        )
        val, err = quad(integrand, 0.0, length / 2, limit=200)
        oracle = 2 * length * val
        assert oracle == pytest.approx(4.0, abs=1e-10)
        gaps = [
            abs(ko.ks_energy(ko.regular_ngon(n), "edge") - oracle)
            for n in (32, 64, 128, 256)
        ]
        assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
        assert gaps[-1] < 0.01

    def test_scale_invariance(self):
        p = random_embedded_polygon(12, seed=7)
        q = ko.Polygon(3.0 * p.vertices)
        for variant in ("vertex", "edge"):
            assert ko.ks_energy(q, variant) == pytest.approx(
                ko.ks_energy(p, variant), rel=1e-13
            )

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            ko.ks_energy(ko.Polygon(UNIT_SQUARE), "midpoint")


class TestEnergyDensity:
    def test_antipodal_midpoints_closed_form(self):
        n = 16
        p = ko.regular_ngon(n)
        a = p.quad_point(0, 0.5)
        b = p.quad_point(n // 2, 0.5)
        chord = 2.0 * np.cos(np.pi / n)  # two apothems of the unit n-gon
        expected = 1.0 / chord**2 - 4.0 / p.total_length**2
        assert ko.energy_density(p, a, b) == pytest.approx(expected, rel=1e-13)

    def test_near_diagonal_small(self):
        p = ko.regular_ngon(64)
        a = p.quad_point(0, 0.5)
        b = p.quad_point(2, 0.5)
        assert 0.0 <= ko.energy_density(p, a, b) < 1.0

    def test_scaling_degree(self):
        p = random_embedded_polygon(12, seed=9)
        q = ko.Polygon(2.0 * p.vertices)
        a1, b1 = p.quad_point(1, 0.25), p.quad_point(6, 0.75)
        a2, b2 = q.quad_point(1, 0.25), q.quad_point(6, 0.75)
        assert ko.energy_density(q, a2, b2) == pytest.approx(
            0.25 * ko.energy_density(p, a1, b1), rel=1e-13
        )


class TestGradient:
    def test_translation_zero_sum(self):
        p = random_embedded_polygon(12, dim=3, seed=10)
        g = ko.d_energy(p).reshape(-1, 3)
        assert np.abs(g.sum(axis=0)).max() <= 1e-12 * np.abs(g).max()

    def test_scaling_orthogonality(self):
        p = random_embedded_polygon(12, seed=11)
        g = ko.d_energy(p)
        radial = (p.vertices - p.vertices.mean(axis=0)).ravel()
        assert abs(g @ radial) <= 1e-11 * np.linalg.norm(g) * np.linalg.norm(radial)

    def test_matches_central_differences(self):
        p = random_embedded_polygon(12, dim=3, seed=12)
        g = ko.d_energy(p)
        g_fd = fd_gradient(p, MIDPOINT, 1e-5 * p.total_length)
        assert np.linalg.norm(g - g_fd) <= 1e-6 * np.linalg.norm(g_fd)

    def test_rotation_equivariance(self, rng):
        p = random_embedded_polygon(10, dim=3, seed=13)
        r = rotation_matrix(3, rng, plane=(0, 1))
        q = ko.Polygon(p.vertices @ r.T)
        g_p = ko.d_energy(p).reshape(-1, 3)
        g_q = ko.d_energy(q).reshape(-1, 3)
        assert np.allclose(g_q, g_p @ r.T, rtol=1e-10, atol=1e-12)


class TestHessian:
    def test_directional_finite_difference(self, rng):
        p = random_embedded_polygon(10, dim=3, seed=14)
        h = ko.d2_energy(p)
        w = rng.standard_normal(h.shape[0])
        w /= np.linalg.norm(w)
        step = 1e-5 * p.total_length
        up = ko.Polygon(p.vertices + step * w.reshape(p.vertices.shape), validate=False)
        dn = ko.Polygon(p.vertices - step * w.reshape(p.vertices.shape), validate=False)
        fd = (ko.d_energy(up) - ko.d_energy(dn)) / (2 * step)
        assert np.linalg.norm(h @ w - fd) <= 1e-5 * np.linalg.norm(fd)

    def test_translation_nullspace(self):
        p = random_embedded_polygon(10, dim=2, seed=15)
        h = ko.d2_energy(p)
        for axis in range(2):
            t = np.zeros((p.num_vertices, 2))
            t[:, axis] = 1.0
            assert np.abs(h @ t.ravel()).max() <= 1e-10 * np.abs(h).max()

    def test_symmetry(self):
        p = random_embedded_polygon(10, seed=16)
        h = ko.d2_energy(p)
        assert np.array_equal(h, h.T)


class TestQuadratureRule:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ko.QuadratureRule(np.array([0.5]), np.array([0.9]))

    def test_nodes_in_unit_interval(self):
        with pytest.raises(ValueError):
            ko.QuadratureRule(np.array([1.5]), np.array([1.0]))

    def test_gauss_rules(self):
        for k in (1, 2, 8):
            rule = ko.QuadratureRule.gauss(k)
            assert rule.order == k
            assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
            assert rule.nodes.min() >= 0.0 and rule.nodes.max() <= 1.0


def _table_curves():
    return (
        ("coil", ko.coiled_unknot(32)),
        ("trefoil", ko.torus_knot(2, 3, 30)),
        ("random2", random_embedded_polygon(18, dim=2, seed=21)),
        ("random3", random_embedded_polygon(18, dim=3, seed=22)),
    )


def _relative_defect(new, reference):
    return np.abs(new - reference).max() / np.abs(reference).max()


class TestTableAssembly:
    """The edge-pair table assembly against the pair-list scatter oracle."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_derivatives_match_pair_list(self, k):
        rule = ko.QuadratureRule.gauss(k)
        for name, p in _table_curves():
            assert _relative_defect(ko.d_energy(p, rule),
                                    oracle.d_energy(p, rule)) <= 1e-11, name
            assert _relative_defect(ko.d2_energy(p, rule),
                                    oracle.d2_energy(p, rule)) <= 1e-11, name

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("kind", [ko.W32_PURE, ko.W32_GEOMETRIC],
                             ids=["w32pure", "w32"])
    def test_gram_matches_pair_list(self, k, kind):
        rule = ko.QuadratureRule.gauss(k)
        for name, p in _table_curves():
            g = ko.assemble_gram(p, kind.with_barycenter(False), rule)
            assert _relative_defect(g.scalar, oracle.w32_scalar(p, kind, rule)) <= 1e-13, name

    def test_node_coincidence_in_masked_band_is_ignored(self):
        # Nodes at both edge ends make every adjacent pair meet exactly at
        # the shared vertex and every diagonal entry vanish; only disjoint
        # pairs count, as in the pair list.
        p = random_embedded_polygon(14, dim=3, seed=23)
        for rule in (ko.QuadratureRule(np.array([0.0, 1.0]), np.array([0.5, 0.5])),
                     ko.QuadratureRule.vertex()):
            assert _relative_defect(ko.d_energy(p, rule), oracle.d_energy(p, rule)) <= 1e-11
            assert _relative_defect(ko.d2_energy(p, rule), oracle.d2_energy(p, rule)) <= 1e-11
            g = ko.assemble_gram(p, ko.W32_GEOMETRIC, rule)
            assert _relative_defect(g.scalar, oracle.w32_scalar(p, ko.W32_GEOMETRIC, rule)) <= 1e-13

    def test_disjoint_coincidence_raises(self):
        # Bow tie: the midpoints of the disjoint edges 0 and 2 coincide.
        p = ko.Polygon([(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)], validate=False)
        for assemble in (ko.d_energy, ko.d2_energy,
                         lambda q: ko.assemble_gram(q, ko.W32_GEOMETRIC),
                         lambda q: ko.assemble_gram(q, ko.W32_PURE)):
            with pytest.raises(ko.CoincidentPoints):
                assemble(p)
