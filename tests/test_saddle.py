import tracemalloc

import numpy as np
import pytest

import knotopt as ko
from knotopt import saddle
from knotopt.energy import _release
from conftest import dense, random_embedded_polygon


def make_system(n=16, seed=0, metric=ko.W32_GEOMETRIC, dim=2):
    p = random_embedded_polygon(n, dim=dim, seed=seed)
    gram = ko.assemble_gram(p, metric)
    rows = ko.d_phi(p)
    return p, gram, dense(rows), ko.factorize(gram, rows)


class TestFactorize:
    @pytest.mark.parametrize("dim", (2, 3))
    @pytest.mark.parametrize("metric", sorted(ko.METRICS))
    def test_structured_solve_matches_dense_oracle(self, metric, dim, rng):
        # Random right-hand side with a nonzero constraint block, which
        # fixes the mean of the field through the barycenter rows.
        _, _, _, fact = make_system(14, seed=12, metric=metric, dim=dim)
        rhs = rng.standard_normal(fact.n_primal + fact.n_dual)
        x = fact.solve(rhs)
        ref = np.linalg.solve(dense(fact), rhs)
        n = fact.n_primal
        for block in (slice(None, n), slice(n, None)):
            assert np.linalg.norm(x[block] - ref[block]) <= 1e-9 * np.linalg.norm(ref[block])
        assert fact.max_residual <= 1e-10

    @pytest.mark.parametrize("compliance", (0.25, 1.0))
    @pytest.mark.parametrize("dim", (2, 3))
    @pytest.mark.parametrize("metric", sorted(ko.METRICS))
    def test_compliance_block_matches_dense_oracle(self, metric, dim, compliance, rng):
        # The penalty preconditioner's system: weighted length rows, which
        # vanish on translations, where the Gram alone is definite.
        p = random_embedded_polygon(14, dim=dim, seed=13)
        gram = ko.assemble_gram(p, metric)
        self.assert_matches_dense_oracle(
            ko.factorize(gram, ko.ConstraintRows(3.0 * ko.d_phi(p).coef), compliance), rng)

    def test_compliance_with_barycenter_rows_matches_dense_oracle(self, rng):
        # Any rows take a compliance, the constraint Jacobian with its
        # barycenter rows too, since every Gram is definite by itself.
        for dim in (2, 3):
            p = random_embedded_polygon(12, dim=dim, seed=1)
            for metric in sorted(ko.METRICS):
                gram = ko.assemble_gram(p, metric)
                for compliance in (0.25, 1.0):
                    self.assert_matches_dense_oracle(
                        ko.factorize(gram, ko.d_phi(p), compliance), rng)

    @staticmethod
    def assert_matches_dense_oracle(fact, rng):
        rhs = rng.standard_normal(fact.n_primal + fact.n_dual)
        x = fact.solve(rhs)
        ref = np.linalg.solve(dense(fact), rhs)
        n = fact.n_primal
        for block in (slice(None, n), slice(n, None)):
            assert np.linalg.norm(x[block] - ref[block]) <= 1e-9 * np.linalg.norm(ref[block])
        assert fact.max_residual <= 1e-10

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

    def test_peak_memory(self):
        # The factorization used to peak at 6 N x N arrays: the shifted
        # metric, LAPACK's F-ordered copies, two triangles of the inverse
        # and the rolled tables of the Schur complement; then at about 3,
        # with the difference tables of the Schur complement.  It holds the
        # inverse and the Schur factor, built in place.
        p = ko.coiled_unknot(768)
        gram, rows = ko.assemble_gram(p, ko.W32_GEOMETRIC), ko.d_phi(p)
        tracemalloc.start()
        try:
            ko.factorize(gram, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 768 ** 2 * 8

    def test_second_factorization_allocates_only_its_arrays(self):
        # Once the block scratch is sized, a fresh factorization allocates
        # its inverse and its Schur factor (N + m)^2 and nothing else that
        # counts.
        p = ko.coiled_unknot(768)
        gram, rows = ko.assemble_gram(p, ko.W32_GEOMETRIC), ko.d_phi(p)
        ko.factorize(gram, rows)
        tracemalloc.start()
        try:
            ko.factorize(gram, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.2 * 768 ** 2 * 8, peak / (768 ** 2 * 8)

    @pytest.mark.parametrize("barycenter_rows", (True, False))
    def test_retired_arrays_rebuild_the_same_bits(self, barycenter_rows):
        # The Gram and factorization of a dead point are rebuilt in place,
        # and give the bits of a fresh build.
        p, dead_point = ko.coiled_unknot(64), ko.coiled_unknot(64, 3)
        rows, compliance = ko.d_phi(p), 0.0
        if not barycenter_rows:
            rows, compliance = ko.ConstraintRows(3.0 * rows.coef), 1.0
        fresh = ko.factorize(ko.assemble_gram(p, ko.W32_GEOMETRIC), rows, compliance)
        dead = ko.factorize(ko.assemble_gram(dead_point, ko.W32_GEOMETRIC), rows,
                            compliance)
        arrays = dead._arrays
        saddle._retire(dead)
        try:
            gram = ko.assemble_gram(p, ko.W32_GEOMETRIC)
            fact = ko.factorize(gram, rows, compliance)
        finally:
            _release()
        assert gram.scalar is arrays[0] and not gram.scalar.flags.writeable
        assert np.shares_memory(fact._inv, arrays[1])
        assert np.shares_memory(fact._schur, arrays[2])
        for new, ref in ((gram.scalar, fresh.gram.scalar), (fact._inv, fresh._inv),
                         (fact._schur, fresh._schur)):
            assert np.array_equal(new, ref)

    def test_dimension_check(self):
        rows = ko.d_phi(ko.regular_ngon(8))
        with pytest.raises(ValueError, match="incompatible"):
            ko.factorize(ko.GramOperator(np.eye(6), 2), rows)
        # A dense metric block is not a metric operator.
        with pytest.raises(ValueError, match="GramOperator"):
            ko.factorize(np.eye(16), rows)


class TestWithRows:
    """The metric kept for other rows: one Schur factor per rows."""

    @staticmethod
    def kept_system(dim, seed=0):
        # The w32 Gram and two sets of weighted length rows, each at a
        # different point.
        p = random_embedded_polygon(16, dim=dim, seed=seed)
        q = random_embedded_polygon(16, dim=dim, seed=seed + 1)
        gram = ko.assemble_gram(p, ko.W32_GEOMETRIC)
        base = ko.factorize(gram, ko.ConstraintRows(3.0 * ko.d_phi(p).coef), compliance=1.0)
        scale = np.linspace(0.5, 2.0, 16)[:, None]
        return base, ko.ConstraintRows(scale * ko.d_phi(q).coef)

    @pytest.mark.parametrize("dim", (2, 3))
    def test_solves_match_a_fresh_factorization(self, dim, rng):
        base, rows = self.kept_system(dim)
        self.assert_matches_a_fresh_factorization(base, rows, rng)

    @pytest.mark.parametrize("dim", (2, 3))
    def test_barycenter_rows_match_a_fresh_factorization(self, dim, rng):
        # The constraint Jacobian of another point for the kept penalty
        # metric; length rows for a projection's metric, which was
        # factorized with barycenter rows.
        base, rows = self.kept_system(dim)
        jacobian = ko.d_phi(random_embedded_polygon(16, dim=dim, seed=4))
        self.assert_matches_a_fresh_factorization(base, jacobian, rng)
        projection = ko.factorize(base.gram, jacobian)
        self.assert_matches_a_fresh_factorization(projection, rows, rng)

    @staticmethod
    def assert_matches_a_fresh_factorization(kept, other, rng):
        fact = kept.with_rows(other)
        fresh = ko.factorize(kept.gram, other, kept.compliance)
        assert fact.gram is kept.gram and fact._inv is kept._inv
        assert np.array_equal(fact._schur, fresh._schur)
        rhs = rng.standard_normal(fact.n_primal + fact.n_dual)
        assert np.array_equal(fact.solve(rhs), fresh.solve(rhs))
        eta = rng.standard_normal(fact.n_primal)
        for new, ref in zip(ko.projected_gradient(fact, eta),
                            ko.projected_gradient(fresh, eta)):
            assert np.array_equal(new, ref)

    @pytest.mark.parametrize("dim", (2, 3))
    def test_rows_of_the_wrong_width_rejected(self, dim):
        base, _ = self.kept_system(dim)
        other = random_embedded_polygon(12, dim=dim, seed=3)
        with pytest.raises(ValueError, match="incompatible"):
            base.with_rows(ko.ConstraintRows(ko.d_phi(other).coef))

    @pytest.mark.parametrize("dim", (2, 3))
    def test_retired_rows_factorization_hands_back_only_its_schur(self, dim):
        base, rows = self.kept_system(dim)
        dead = base.with_rows(rows)
        saddle._retire(dead)
        try:
            fact = base.with_rows(ko.ConstraintRows(0.5 * rows.coef))
        finally:
            _release()
        assert np.shares_memory(fact._schur, dead._schur)
        for kept in (base._inv, base.gram.scalar, base._schur):
            assert not np.shares_memory(fact._schur, kept)

    def test_allocates_only_its_schur_factor(self):
        p = ko.coiled_unknot(384)
        gram = ko.assemble_gram(p, ko.W32_GEOMETRIC)
        rows = ko.ConstraintRows(ko.d_phi(p).coef)
        base = ko.factorize(gram, rows, compliance=1.0)
        base.with_rows(rows)
        tracemalloc.start()
        try:
            base.with_rows(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * 384 ** 2 * 8, peak / (384 ** 2 * 8)


class TestRefinementStop:
    @pytest.mark.parametrize("compliance", (0.0, 0.25))
    @pytest.mark.parametrize("metric", sorted(ko.METRICS))
    def test_norm_is_the_infinity_norm(self, metric, compliance):
        p = random_embedded_polygon(14, dim=3, seed=12)
        rows = ko.d_phi(p)
        if compliance:
            rows = ko.ConstraintRows(3.0 * rows.coef)
        gram = ko.assemble_gram(p, metric)
        fact = ko.factorize(gram, rows, compliance)
        expected = np.abs(dense(fact)).sum(axis=1).max()
        assert fact._norm == pytest.approx(expected, rel=1e-12)

    def test_floor_above_the_tolerance_converges(self, monkeypatch):
        # Refinement cannot bring these residuals to 1e-15 relative; it used
        # to raise after _REFINE_MAX rounds, and now stops at the rounding
        # floor.
        monkeypatch.setattr(saddle, "SOLVE_TOL", 1e-15)
        result = ko.run(ko.coiled_unknot(192), ko.OptimizerConfig(max_iter=2))
        assert result.status == "max_iter"
        assert result.diagnostics["saddle_residual_max"] > 1e-15
        assert result.diagnostics["saddle_refinements_max"] < saddle._REFINE_MAX

    def test_stall_above_the_floor_raises(self, rng):
        # A solve that makes no progress stalls at the full residual.
        _, _, _, fact = make_system(16)
        fact._solve_once = np.zeros_like
        with pytest.raises(ko.SingularSystem, match="stalled"):
            fact.solve(rng.standard_normal(fact.n_primal + fact.n_dual))


class TestNonFiniteInput:
    """A non-finite right-hand side is a bad input, not a singular system."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_eta(self, bad):
        _, _, _, fact = make_system(12, seed=4)
        eta = np.ones(fact.n_primal)
        eta[5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ko.projected_gradient(fact, eta)
        assert fact.max_refinements == 0

    @pytest.mark.parametrize("bad", [np.nan, -np.inf], ids=["nan", "inf"])
    def test_xi(self, bad):
        _, _, _, fact = make_system(12, seed=4)
        xi = np.ones(fact.n_dual)
        xi[-1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ko.pseudoinverse_apply(fact, xi)
        assert fact.max_refinements == 0


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
        assert pairing == pytest.approx(u @ gram.apply(u), rel=1e-9)
        # Stationarity of the full KKT system.
        assert np.allclose(gram.apply(u) + jac.T @ lam, eta,
                           atol=1e-10 * np.linalg.norm(eta))

    def test_matches_schur_complement_oracle(self):
        # Brute-force dense projection formula at N=6.
        p = random_embedded_polygon(6, seed=4)
        gram = ko.assemble_gram(p, ko.W32_GEOMETRIC)
        fact = ko.factorize(gram, ko.d_phi(p))
        jac = dense(ko.d_phi(p))
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
            assert u @ gram.apply(u) <= other @ gram.apply(other) + 1e-10


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
            inner = (u - proj) @ gram.apply(v)
            norm_u, norm_v = np.sqrt(u @ gram.apply(u)), np.sqrt(v @ gram.apply(v))
            assert abs(inner) <= 1e-9 * norm_u * max(norm_v, 1e-30)

    def test_linear(self, rng):
        _, _, _, fact = make_system(8, seed=11)
        a = rng.standard_normal(fact.n_primal)
        b = rng.standard_normal(fact.n_primal)
        combined = ko.project_tangent(fact, 2.0 * a - 3.0 * b)
        separate = 2.0 * ko.project_tangent(fact, a) - 3.0 * ko.project_tangent(fact, b)
        assert np.allclose(combined, separate, atol=1e-10 * np.abs(separate).max())
