import numpy as np
import pytest

import knotopt as ko
from conftest import dense, random_embedded_polygon


def make_system(n=16, seed=0, kind=ko.W32_GEOMETRIC, dim=2):
    p = random_embedded_polygon(n, dim=dim, seed=seed)
    gram = ko.assemble_gram(p, kind)
    rows = ko.d_phi(p)
    return p, gram, rows.dense(), ko.factorize(gram, rows)


METRICS = {"l2": ko.L2, "w12": ko.W12, "w22": ko.W22, "w32pure": ko.W32_PURE,
           "w32": ko.W32_GEOMETRIC}


class TestFactorize:
    @pytest.mark.parametrize("dim", (2, 3))
    @pytest.mark.parametrize("metric", sorted(METRICS))
    def test_structured_solve_matches_dense_oracle(self, metric, dim, rng):
        # Random right-hand side with a nonzero constraint block, so the
        # multipliers carry the correction for the barycenter shift.
        _, _, _, fact = make_system(14, seed=12, kind=METRICS[metric], dim=dim)
        rhs = rng.standard_normal(fact.n_primal + fact.n_dual)
        x = fact.solve(rhs)
        ref = np.linalg.solve(dense(fact), rhs)
        n = fact.n_primal
        for block in (slice(None, n), slice(n, None)):
            assert np.linalg.norm(x[block] - ref[block]) <= 1e-9 * np.linalg.norm(ref[block])
        assert fact.max_residual <= 1e-10

    @pytest.mark.parametrize("compliance", (0.25, 1.0))
    @pytest.mark.parametrize("dim", (2, 3))
    @pytest.mark.parametrize("metric", sorted(METRICS))
    def test_compliance_block_matches_dense_oracle(self, metric, dim, compliance, rng):
        # The penalty preconditioner's system: weighted length rows, which
        # vanish on translations, so the w32 seminorm carries its barycenter
        # term here.
        kind = METRICS[metric]
        if kind.family == "w32":
            kind = kind.with_barycenter(True)
        p = random_embedded_polygon(14, dim=dim, seed=13)
        rows = ko.ConstraintRows(3.0 * ko.d_phi(p).coef)
        fact = ko.factorize(ko.assemble_gram(p, kind), rows, compliance)
        rhs = rng.standard_normal(fact.n_primal + fact.n_dual)
        x = fact.solve(rhs)
        ref = np.linalg.solve(dense(fact), rhs)
        n = fact.n_primal
        for block in (slice(None, n), slice(n, None)):
            assert np.linalg.norm(x[block] - ref[block]) <= 1e-9 * np.linalg.norm(ref[block])
        assert fact.max_residual <= 1e-10

    def test_compliance_block_on_dense_metric(self, rng):
        p = random_embedded_polygon(10, seed=14)
        gram = dense(ko.assemble_gram(p, ko.W12))
        rows = ko.ConstraintRows(ko.d_phi(p).coef)
        fact = ko.factorize(gram, rows, compliance=1.0)
        rhs = rng.standard_normal(fact.n_primal + fact.n_dual)
        ref = np.linalg.solve(dense(fact), rhs)
        assert np.linalg.norm(fact.solve(rhs) - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_solve_residual_contract(self, rng):
        _, gram, jac, fact = make_system(16)
        kkt = dense(fact)
        rhs = rng.standard_normal(kkt.shape[0])
        x = fact.solve(rhs)
        assert np.linalg.norm(kkt @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_duplicate_constraint_row_is_singular(self):
        # Rank-deficient rows: a zero length row makes the Schur complement
        # singular.
        p, gram, _, _ = make_system(12, seed=1)
        rows = ko.d_phi(p)
        coef = rows.coef.copy()
        coef[0] = 0.0
        with pytest.raises(ko.SingularSystem):
            ko.factorize(gram, ko.ConstraintRows(coef, rows.moments, rows.mass))

    def test_compliance_with_barycenter_rows_rejected(self):
        p, gram, _, _ = make_system(12, seed=1)
        with pytest.raises(ValueError):
            ko.factorize(gram, ko.d_phi(p), compliance=1.0)

    def test_dimension_check(self):
        with pytest.raises(ValueError):
            ko.factorize(np.eye(6), ko.d_phi(ko.regular_ngon(8)))


class TestProjectedGradient:
    def test_normal_load_annihilated(self, rng):
        _, _, jac, fact = make_system(12, seed=2)
        mu = rng.standard_normal(jac.shape[0])
        u, _ = ko.projected_gradient(fact, jac.T @ mu)
        assert np.linalg.norm(u) <= 1e-10 * np.linalg.norm(jac.T @ mu)

    def test_tangency_and_energy_identity(self, rng):
        _, gram, jac, fact = make_system(8, seed=3)
        eta = rng.standard_normal(jac.shape[1])
        u, lam = ko.projected_gradient(fact, eta)
        assert np.linalg.norm(jac @ u) <= 1e-10 * np.linalg.norm(u)
        pairing = float(eta @ u)
        assert pairing >= 0.0
        assert pairing == pytest.approx(gram.inner(u, u), rel=1e-9)
        # Stationarity of the full KKT system.
        assert np.allclose(gram.apply(u) + jac.T @ lam, eta,
                           atol=1e-10 * np.linalg.norm(eta))

    def test_matches_schur_complement_oracle(self):
        # Brute-force dense projection formula at N=6 with an invertible
        # metric.
        p = random_embedded_polygon(6, seed=4)
        gram = ko.assemble_gram(p, ko.W32_GEOMETRIC.with_barycenter(True))
        fact = ko.factorize(gram, ko.d_phi(p))
        jac = ko.d_phi(p).dense()
        eta = ko.d_energy(p)
        u, _ = ko.projected_gradient(fact, eta)
        ginv = np.linalg.inv(dense(gram))
        schur = jac @ ginv @ jac.T
        u_ref = ginv @ eta - ginv @ jac.T @ np.linalg.solve(schur, jac @ ginv @ eta)
        assert np.linalg.norm(u - u_ref) <= 1e-9 * np.linalg.norm(u_ref)


class TestPseudoinverse:
    def test_zero_maps_to_zero(self):
        _, _, _, fact = make_system(10, seed=5)
        assert np.all(ko.pseudoinverse_apply(fact, np.zeros(fact.n_dual)) == 0.0)

    def test_right_inverse_on_range(self, rng):
        _, _, jac, fact = make_system(10, seed=6)
        xi = jac @ rng.standard_normal(jac.shape[1])
        u = ko.pseudoinverse_apply(fact, xi)
        assert np.linalg.norm(jac @ u - xi) <= 1e-10 * np.linalg.norm(xi)

    def test_minimal_norm_property(self, rng):
        _, gram, jac, fact = make_system(10, seed=7)
        xi = jac @ rng.standard_normal(jac.shape[1])
        u = ko.pseudoinverse_apply(fact, xi)
        for _ in range(5):
            shift = ko.project_tangent(fact, rng.standard_normal(jac.shape[1]))
            other = u + shift
            assert gram.inner(u, u) <= gram.inner(other, other) + 1e-10


class TestProjector:
    def test_fixes_tangent_vectors(self, rng):
        _, _, jac, fact = make_system(10, seed=8)
        w = ko.project_tangent(fact, rng.standard_normal(jac.shape[1]))
        again = ko.project_tangent(fact, w)
        assert np.linalg.norm(again - w) <= 1e-10 * np.linalg.norm(w)

    def test_idempotent(self, rng):
        _, _, _, fact = make_system(10, seed=9)
        u = rng.standard_normal(fact.n_primal)
        once = ko.project_tangent(fact, u)
        twice = ko.project_tangent(fact, once)
        assert np.linalg.norm(twice - once) <= 1e-10 * max(np.linalg.norm(once), 1e-30)

    def test_metric_orthogonality_of_residual(self, rng):
        _, gram, jac, fact = make_system(10, seed=10)
        u = rng.standard_normal(fact.n_primal)
        proj = ko.project_tangent(fact, u)
        for _ in range(4):
            v = ko.project_tangent(fact, rng.standard_normal(fact.n_primal))
            inner = gram.inner(u - proj, v)
            assert abs(inner) <= 1e-9 * gram.norm(u) * max(gram.norm(v), 1e-30)

    def test_linear(self, rng):
        _, _, _, fact = make_system(8, seed=11)
        a = rng.standard_normal(fact.n_primal)
        b = rng.standard_normal(fact.n_primal)
        combined = ko.project_tangent(fact, 2.0 * a - 3.0 * b)
        separate = 2.0 * ko.project_tangent(fact, a) - 3.0 * ko.project_tangent(fact, b)
        assert np.allclose(combined, separate, atol=1e-10 * np.abs(separate).max())
