import numpy as np
import pytest

import knotopt as ko
from conftest import random_embedded_polygon, rotation_matrix


def build_saddle(polygon, kind=ko.W32_GEOMETRIC):
    gram = ko.assemble_gram(polygon, kind)
    return ko.factorize(gram, ko.d_phi(polygon))


def dense_d_phi(polygon):
    """Dense Jacobian oracle, shape (N + m, N * m), vertex-major.

    Log-length row I carries +-tangent/length on the two endpoints of edge
    I; the m barycenter rows combine length variations with the direct
    vertex dependence.
    """
    n, m = polygon.num_vertices, polygon.dim
    v = polygon.vertices
    nxt_idx = np.roll(np.arange(n), -1)
    tau = polygon.tangents
    ell = polygon.edge_lengths

    jac = np.zeros((n + m, n, m))
    rows = np.arange(n)
    coef = tau / ell[:, None]
    jac[rows, rows] = -coef
    jac[rows, nxt_idx] = coef

    # Barycenter block: d b / d P(v) = sum over incident edges of
    # (midpoint-sum outer tangent derivative) plus the direct term.
    edge_sum = v + v[nxt_idx]
    w = 0.5 * (ell + np.roll(ell, 1))
    for k in range(m):
        contrib = 0.5 * edge_sum[:, k:k + 1] * tau
        jac[n + k] = np.roll(contrib, 1, axis=0) - contrib
        jac[n + k, :, k] += w
    return jac.reshape(n + m, n * m)


class TestConstraintMap:
    def test_regular_ngon_feasible(self):
        p = ko.regular_ngon(24)
        targets = ko.ConstraintTargets.from_polygon(p)
        state = ko.phi(p, targets)
        assert np.all(state.residual == 0.0)
        assert np.abs(state.barycenter).max() <= 1e-13 * p.total_length

    def test_translation_moves_barycenter_linearly(self):
        p = ko.regular_ngon(24)
        targets = ko.ConstraintTargets.from_polygon(p)
        shift = np.array([0.3, -1.2])
        state = ko.phi(ko.Polygon(p.vertices + shift), targets)
        assert np.abs(state.residual).max() <= 1e-14
        assert np.allclose(state.barycenter, p.total_length * shift, rtol=1e-12)

    def test_scaling_gives_log_residual(self):
        p = random_embedded_polygon(10, seed=0)
        targets = ko.ConstraintTargets.from_polygon(p)
        state = ko.phi(ko.Polygon(1.5 * p.vertices), targets)
        assert np.allclose(state.residual, np.log(1.5), rtol=1e-13)

    def test_rigid_invariance_and_equivariance(self, rng):
        p = random_embedded_polygon(12, dim=3, seed=1)
        targets = ko.ConstraintTargets.from_polygon(p)
        r = rotation_matrix(3, rng)
        shift = rng.standard_normal(3)
        state0 = ko.phi(p, targets)
        state1 = ko.phi(ko.Polygon(p.vertices @ r.T + shift), targets)
        assert np.allclose(state1.residual, state0.residual, atol=1e-13)
        expected = r @ state0.barycenter + p.total_length * shift
        assert np.allclose(state1.barycenter, expected, rtol=1e-12)

    def test_targets_validation(self):
        with pytest.raises(ValueError):
            ko.ConstraintTargets(np.array([1.0, -1.0]))


class TestJacobian:
    def test_matches_finite_differences(self, rng):
        p = random_embedded_polygon(12, dim=3, seed=2)
        targets = ko.ConstraintTargets.from_polygon(p)
        jac = ko.d_phi(p).dense()
        u = rng.standard_normal(p.num_vertices * 3)
        eps = 1e-7
        up = ko.phi(p.vertices + eps * u.reshape(-1, 3), targets).stacked()
        dn = ko.phi(p.vertices - eps * u.reshape(-1, 3), targets).stacked()
        fd = (up - dn) / (2 * eps)
        assert np.linalg.norm(jac @ u - fd) <= 1e-7 * np.linalg.norm(fd)

    def test_translation_field_action(self):
        p = random_embedded_polygon(12, seed=3)
        jac = ko.d_phi(p).dense()
        shift = np.array([1.0, 2.0])
        field = np.tile(shift, p.num_vertices)
        out = jac @ field
        assert np.abs(out[:p.num_vertices]).max() <= 1e-12
        assert np.allclose(out[p.num_vertices:], p.total_length * shift, rtol=1e-12)

    def test_rotation_generator_preserves_lengths(self):
        p = random_embedded_polygon(12, seed=4)
        center = p.vertices.mean(axis=0)
        rel = p.vertices - center
        field = np.column_stack((-rel[:, 1], rel[:, 0])).ravel()
        out = ko.d_phi(p).dense() @ field
        scale = np.abs(ko.d_phi(p).dense()).max() * np.abs(field).max()
        assert np.abs(out[:p.num_vertices]).max() <= 1e-13 * scale

    def test_full_row_rank(self):
        for seed in range(3):
            p = random_embedded_polygon(14, dim=3, seed=seed)
            jac = ko.d_phi(p).dense()
            sv = np.linalg.svd(jac, compute_uv=False)
            assert sv.min() > 1e-10 * sv.max()


class TestConstraintRows:
    @pytest.mark.parametrize("dim", (2, 3))
    def test_matches_dense_oracle(self, dim, rng):
        # The barycenter rows moments^T L + W^T against their direct form.
        p = random_embedded_polygon(11, dim=dim, seed=30)
        rows, ref = ko.d_phi(p), dense_d_phi(p)
        assert rows.shape == ref.shape
        scale = np.abs(ref).max()
        assert np.abs(rows.dense() - ref).max() <= 1e-13 * scale
        u = rng.standard_normal(ref.shape[1])
        lam = rng.standard_normal(ref.shape[0])
        assert np.allclose(rows.apply(u), ref @ u, rtol=0.0,
                           atol=1e-13 * scale * np.abs(u).sum())
        assert np.allclose(rows.apply_T(lam), ref.T @ lam, rtol=0.0,
                           atol=1e-13 * scale * np.abs(lam).sum())

    def test_penalty_rows_match_dense_oracle(self, rng):
        p = random_embedded_polygon(11, dim=3, seed=31)
        scale = rng.uniform(0.5, 2.0, p.num_vertices)
        rows = ko.ConstraintRows(scale[:, None] * ko.d_phi(p).coef)
        ref = scale[:, None] * dense_d_phi(p)[:p.num_vertices]
        assert rows.shape == ref.shape
        assert np.abs(rows.dense() - ref).max() <= 1e-13 * np.abs(ref).max()
        u = rng.standard_normal(ref.shape[1])
        lam = rng.standard_normal(ref.shape[0])
        assert np.allclose(rows.apply(u), ref @ u, rtol=1e-13, atol=1e-13)
        assert np.allclose(rows.apply_T(lam), ref.T @ lam, rtol=1e-13, atol=1e-13)


class TestRestoreFeasibility:
    def test_feasible_point_untouched(self):
        p = ko.regular_ngon(16)
        targets = ko.ConstraintTargets.from_polygon(p)
        fact = build_saddle(p)
        out, iters = ko.restore_feasibility(p.vertices, targets, fact)
        assert iters == 0
        assert np.array_equal(out, p.vertices)

    def test_small_tangent_step_contracts_fast(self, rng):
        # Empirical contraction study on N=32: small tangent perturbations
        # come back to 1e-8 violation within three corrections.
        p = ko.perturbed_circle(32)
        targets = ko.ConstraintTargets.from_polygon(p)
        fact = build_saddle(p)
        tangent = ko.project_tangent(fact, rng.standard_normal(p.num_vertices * 2))
        tangent /= np.linalg.norm(tangent)
        trial = p.vertices + 0.002 * p.total_length * tangent.reshape(-1, 2)
        out, iters = ko.restore_feasibility(trial, targets, fact)
        assert iters <= 3
        assert ko.phi(out, targets).max_violation(targets.total) <= 1e-8

    def test_huge_step_signals_shrink(self, rng):
        p = ko.perturbed_circle(16)
        targets = ko.ConstraintTargets.from_polygon(p)
        fact = build_saddle(p)
        tangent = ko.project_tangent(fact, rng.standard_normal(p.num_vertices * 2))
        tangent /= np.linalg.norm(tangent)
        trial = p.vertices + 10.0 * p.total_length * tangent.reshape(-1, 2)
        with pytest.raises(ko.NonConvergence):
            ko.restore_feasibility(trial, targets, fact)

    def test_violation_never_increases_on_accepted_paths(self, rng):
        p = ko.perturbed_circle(24)
        targets = ko.ConstraintTargets.from_polygon(p)
        fact = build_saddle(p)
        tangent = ko.project_tangent(fact, rng.standard_normal(p.num_vertices * 2))
        tangent /= np.linalg.norm(tangent)
        vertices = p.vertices + 0.005 * p.total_length * tangent.reshape(-1, 2)
        violations = [ko.phi(vertices, targets).max_violation(targets.total)]
        for _ in range(4):
            state = ko.phi(vertices, targets)
            vertices = vertices - ko.pseudoinverse_apply(
                fact, state.stacked()
            ).reshape(-1, 2)
            violations.append(ko.phi(vertices, targets).max_violation(targets.total))
        assert all(b < a for a, b in zip(violations, violations[1:]))
