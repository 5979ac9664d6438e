import numpy as np
import pytest

import knotopt as ko
from knotopt.metric import MetricKind
from knotopt.optimize import OptimizerConfig, PenaltyProblem
from conftest import dense, random_embedded_polygon, rotation_matrix


def kernel_basis(jacobian):
    _, sv, vt = np.linalg.svd(jacobian)
    return vt[jacobian.shape[0]:].T


class TestW32Geometric:
    def test_constant_field_in_seminorm_kernel(self):
        p = random_embedded_polygon(12, seed=0)
        g = ko.assemble_gram(p, ko.W32_GEOMETRIC)
        c = np.tile([0.8, -1.1], p.num_vertices)
        assert np.abs(g.apply(c)).max() <= 1e-13 * np.abs(dense(g)).max()

    def test_constant_field_with_barycenter_term(self):
        p = random_embedded_polygon(12, seed=0)
        g = ko.assemble_gram(p, ko.W32_GEOMETRIC.with_barycenter(True))
        c = np.tile([0.8, -1.1], p.num_vertices)
        expected = p.total_length**2 * (0.8**2 + 1.1**2)
        assert g.inner(c, c) == pytest.approx(expected, rel=1e-12)

    def test_symmetry_and_definiteness_on_kernel(self):
        for seed in range(4):
            p = random_embedded_polygon(16, seed=seed)
            g = dense(ko.assemble_gram(p, ko.W32_GEOMETRIC))
            sym = np.abs(g - g.T).max()
            assert sym <= 1e-14 * np.abs(g).max()
            z = kernel_basis(ko.d_phi(p).dense())
            eigs = np.linalg.eigvalsh(z.T @ g @ z)
            assert eigs.min() > 0.0

    def test_seminorm_kernel_is_exactly_constants(self):
        # Dense nullspace oracle at small size: the only zero modes of the
        # barycenter-free operator are the m constant fields.
        p = random_embedded_polygon(14, seed=2)
        g = ko.assemble_gram(p, ko.W32_GEOMETRIC)
        w = np.linalg.eigvalsh(dense(g))
        scale = np.abs(w).max()
        assert np.sum(np.abs(w) <= 1e-10 * scale) == p.dim

    def test_principal_scaling_is_exact(self):
        # Doubling the polygon scales the principal form by exactly 1/4;
        # powers of two make the identity bit-exact.
        kind = MetricKind("w32")
        p = random_embedded_polygon(12, seed=3)
        g1 = ko.assemble_gram(p, kind)
        g2 = ko.assemble_gram(ko.Polygon(2.0 * p.vertices), kind)
        assert np.array_equal(4.0 * dense(g2), dense(g1))

    def test_rotation_equivariance(self, rng):
        p = random_embedded_polygon(12, dim=3, seed=4)
        r = rotation_matrix(3, rng, plane=(0, 2))
        q = ko.Polygon(p.vertices @ r.T)
        u = rng.standard_normal((p.num_vertices, 3))
        gu = ko.assemble_gram(p, ko.W32_GEOMETRIC).apply(u.ravel()).reshape(-1, 3)
        gu_rot = ko.assemble_gram(q, ko.W32_GEOMETRIC).apply((u @ r.T).ravel()).reshape(-1, 3)
        assert np.allclose(gu_rot, gu @ r.T, rtol=1e-12, atol=1e-12 * np.abs(gu).max())

    def test_scalar_block_structure(self):
        p = random_embedded_polygon(10, dim=3, seed=5)
        g = ko.assemble_gram(p, ko.W32_GEOMETRIC.with_barycenter(True))
        m = p.dim
        full = dense(g)
        for c1 in range(m):
            for c2 in range(m):
                block = full[c1::m, c2::m]
                if c1 == c2:
                    assert np.array_equal(block, g.scalar)
                else:
                    assert np.all(block == 0.0)


class TestBaselines:
    def test_l2_lumped_mass_regular_ngon(self):
        n = 16
        p = ko.regular_ngon(n)
        g = ko.assemble_gram(p, ko.L2)
        expected = (p.total_length / n) * np.eye(n * 2)
        assert np.allclose(dense(g), expected, rtol=1e-13)

    def test_w12_hat_field_hand_value(self):
        # Hexagon hat: the first-difference form of a nodal hat function is
        # 1/l_left + 1/l_right; assembled by hand for N=6.
        p = random_embedded_polygon(6, seed=7)
        stiff = dense(ko.assemble_gram(p, ko.W12)) - \
            dense(ko.assemble_gram(p, ko.L2))
        hat = np.zeros((6, 2))
        hat[0, 0] = 1.0
        expected = 1.0 / p.edge_lengths[0] + 1.0 / p.edge_lengths[5]
        assert hat.ravel() @ stiff @ hat.ravel() == pytest.approx(expected, rel=1e-13)

    def test_w22_stiffness_kernel_is_constants(self):
        # Dense nullspace oracle on the second-difference form alone.
        for n in (5, 8):
            p = random_embedded_polygon(n, seed=8)
            stiff = dense(ko.assemble_gram(p, ko.W22)) - \
                dense(ko.assemble_gram(p, ko.L2))
            w = np.linalg.eigvalsh(stiff)
            scale = np.abs(w).max()
            assert np.sum(np.abs(w) <= 1e-10 * scale) == p.dim

    def test_w32_pure_positive_definite(self):
        p = random_embedded_polygon(12, seed=9)
        g = ko.assemble_gram(p, ko.W32_PURE)
        assert np.linalg.eigvalsh(dense(g)).min() > 0.0


class TestOperatorInterface:
    def test_inner_symmetric_and_psd(self, rng):
        p = random_embedded_polygon(10, seed=11)
        g = ko.assemble_gram(p, ko.W32_GEOMETRIC)
        u = rng.standard_normal(g.shape[0])
        v = rng.standard_normal(g.shape[0])
        assert g.inner(u, v) == pytest.approx(g.inner(v, u), rel=1e-12)
        assert g.inner(u, u) >= 0.0

    def test_apply_reproduces_columns(self):
        p = random_embedded_polygon(8, seed=12)
        g = ko.assemble_gram(p, ko.W12)
        j = 5
        basis = np.zeros(g.shape[0])
        basis[j] = 1.0
        assert np.array_equal(g.apply(basis), dense(g)[:, j])

    def test_dimension_mismatch(self):
        p = random_embedded_polygon(8, seed=13)
        g = ko.assemble_gram(p, ko.L2)
        with pytest.raises(ko.DimensionMismatch):
            g.apply(np.ones(7))

    def test_solve_round_trip(self, rng):
        # Metric solves go through the penalty preconditioner
        # M = S (x) I_m + alpha J_len^T diag(w) J_len.
        p = random_embedded_polygon(10, seed=14)
        config = OptimizerConfig(method="lbfgs")
        problem = PenaltyProblem(p, None, config)
        x = p.vertices.ravel()
        rhs = rng.standard_normal(x.size)
        g = problem.metric_solve(x, rhs)
        gram = ko.assemble_gram(p, problem.metric_kind)
        jac_len = ko.d_phi(p).dense()[:p.num_vertices]
        w = problem.targets.lengths / problem.targets.total
        applied = gram.apply(g) + config.alpha * jac_len.T @ (w * (jac_len @ g))
        assert np.allclose(applied, rhs, rtol=1e-9, atol=1e-9 * np.abs(rhs).max())

    def test_solve_requires_definiteness(self):
        # The w32 seminorm without its barycenter term vanishes on constant
        # fields, and length rows cannot restore definiteness there.
        p = random_embedded_polygon(10, seed=15)
        g = ko.assemble_gram(p, ko.W32_GEOMETRIC)
        with pytest.raises(ko.SingularSystem):
            ko.factorize(g, ko.ConstraintRows(ko.d_phi(p).coef), compliance=1.0)


class TestMetricKind:
    def test_low_order_requires_w32(self):
        with pytest.raises(ValueError):
            MetricKind("l2", include_low_order=True)

    def test_parse_names(self):
        assert ko.parse_metric("w32") == ko.W32_GEOMETRIC
        assert ko.parse_metric("W32Pure".lower()) == ko.W32_PURE
        assert ko.parse_metric("l2") == ko.L2
        with pytest.raises(ValueError):
            ko.parse_metric("h1")
