import numpy as np
import pytest
import scipy.linalg

import knotopt as ko
from knotopt import optimize
from knotopt.metric import MetricKind
from knotopt.optimize import (METHODS, OptimizerConfig, PenaltyProblem,
                              implicit_step, lbfgs_loop, pr_plus_direction,
                              solve_trust_region_subproblem,
                              update_trust_radius, _prepare_state)
from conftest import fail_on_call, random_embedded_polygon


def audit_no_self_intersection(snapshots):
    for _, polygon in snapshots:
        assert ko.min_nonadjacent_distance(polygon.vertices) > 0.0


class TestArmijoStep:
    def test_near_stationary_accepts_with_negligible_change(self):
        p = ko.regular_ngon(64)
        cfg = OptimizerConfig()
        state = _prepare_state(p, ko.W32_GEOMETRIC.with_barycenter(False), ko.MIDPOINT)
        targets = ko.ConstraintTargets.from_polygon(p)
        e0 = float(ko.energy(p))
        outcome = ko.armijo_step(
            p, -state.grad, state.fact, targets, cfg, quad=ko.MIDPOINT,
            energy_value=e0, slope=-state.grad_norm**2,
        )
        assert outcome.tau > 0.0
        assert abs(outcome.energy - e0) <= 1e-10

    def test_coil_descent_direction_accepted(self):
        p = ko.coiled_unknot(96, windings=4)
        cfg = OptimizerConfig()
        state = _prepare_state(p, ko.W32_GEOMETRIC.with_barycenter(False), ko.MIDPOINT)
        targets = ko.ConstraintTargets.from_polygon(p)
        e0 = float(ko.energy(p))
        outcome = ko.armijo_step(
            p, -state.grad, state.fact, targets, cfg, quad=ko.MIDPOINT,
            energy_value=e0, slope=-state.grad_norm**2,
        )
        assert outcome.tau > 0.0
        assert outcome.energy < e0

    def test_ascent_direction_rejected(self):
        p = random_embedded_polygon(16, seed=0)
        cfg = OptimizerConfig()
        state = _prepare_state(p, ko.W32_GEOMETRIC.with_barycenter(False), ko.MIDPOINT)
        targets = ko.ConstraintTargets.from_polygon(p)
        with pytest.raises(ValueError):
            ko.armijo_step(
                p, +state.grad, state.fact, targets, cfg, quad=ko.MIDPOINT,
                slope=+state.grad_norm**2,
            )


class TestProjectedGradientDescent:
    def test_perturbed_circle_reaches_near_minimal_energy(self):
        p = ko.perturbed_circle(64)
        snapshots = []
        result = ko.run_projected_gd(
            p, OptimizerConfig(max_iter=60),
            on_iterate=lambda k, poly: snapshots.append((k, poly)),
        )
        energies = [r.energy for r in result.trace]
        assert min(energies) <= 4.05
        assert all(b < a for a, b in zip(energies, energies[1:]))
        assert all(r.phi_inf <= 1e-8 for r in result.trace)
        assert result.diagnostics["max_tangent_defect"] <= 1e-10
        assert result.diagnostics["saddle_residual_max"] <= 1e-10
        audit_no_self_intersection(snapshots)

    def test_lumped_mass_flow_is_an_order_of_magnitude_slower(self):
        # Iterations to the converged energy level of the preconditioned
        # flow; the lumped-mass flow must not get there in ten times as
        # many iterations (its stable steps scale like a third power of
        # the mesh size).
        p = ko.perturbed_circle(64)
        result_w = ko.run_projected_gd(p, OptimizerConfig(max_iter=60))
        target = 4.00002
        it_w = next(r.iteration for r in result_w.trace if r.energy <= target)
        result_l = ko.run_projected_gd(
            p, OptimizerConfig(metric=ko.L2, max_iter=10 * it_w,
                               grad_tol=1e-14, grad_abs_tol=1e-16),
        )
        assert min(r.energy for r in result_l.trace) > target

    def test_trefoil_converges_to_nontrivial_stationary_point(self):
        p = ko.torus_knot(2, 3, 120)
        snapshots = []
        result = ko.run_projected_gd(
            p, OptimizerConfig(max_iter=400, grad_tol=1e-3),
            on_iterate=lambda k, poly: snapshots.append((k, poly)),
        )
        assert result.converged
        assert result.final_energy > 4.5
        assert result.trace[-1].grad_norm <= 1e-3 * result.trace[0].grad_norm
        audit_no_self_intersection(snapshots)

    def test_restoration_budget_respected(self):
        p = ko.coiled_unknot(48, windings=2)
        result = ko.run_projected_gd(p, OptimizerConfig(max_iter=25))
        assert all(r.newton_iters <= 5 for r in result.trace)

    def test_determinism(self):
        p = ko.coiled_unknot(48, windings=2)
        cfg = OptimizerConfig(max_iter=15)
        a = ko.run_projected_gd(p, cfg)
        b = ko.run_projected_gd(p, cfg)
        for ra, rb in zip(a.trace, b.trace):
            assert ra.iteration == rb.iteration
            assert ra.energy == rb.energy
            assert ra.grad_norm == rb.grad_norm
            assert ra.step_size == rb.step_size
            assert ra.phi_inf == rb.phi_inf
        assert np.array_equal(a.polygon.vertices, b.polygon.vertices)


class TestImplicitEuler:
    def test_small_step_agrees_with_explicit_to_second_order(self):
        p = ko.perturbed_circle(16)
        state = _prepare_state(p, MetricKind("l2"), ko.MIDPOINT)
        targets = ko.ConstraintTargets.from_polygon(p)
        errors = []
        for dt in (2e-3, 1e-3, 5e-4):
            v, _ = implicit_step(p, dt, state.gram, state.fact, targets,
                                 ko.MIDPOINT, newton_tol=1e-12)
            errors.append(np.linalg.norm(v - (-dt) * state.grad))
        ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
        assert all(2.5 <= r <= 6.0 for r in ratios)

    def test_monotone_decrease(self):
        p = ko.perturbed_circle(24)
        result = ko.run_implicit_euler_l2(p, OptimizerConfig(
            method="implicit_euler_l2", max_iter=12))
        energies = [r.energy for r in result.trace]
        assert all(b <= a + 1e-14 for a, b in zip(energies, energies[1:]))
        assert energies[-1] < energies[0]
        assert all(r.phi_inf <= 1e-8 for r in result.trace)

    def test_oversized_step_is_handled_by_shrinking(self):
        p = ko.perturbed_circle(16)
        result = ko.run_implicit_euler_l2(p, OptimizerConfig(
            method="implicit_euler_l2", max_iter=4, tau_max=50.0))
        assert result.status in ("converged", "max_iter")
        energies = [r.energy for r in result.trace]
        assert energies[-1] <= energies[0]


class QuadraticProblem:
    """Objective x.A x / 2 with a fixed metric; no geometry involved."""

    def __init__(self, matrix, metric):
        self.matrix = matrix
        self.metric = scipy.linalg.cho_factor(metric)

    def value(self, x):
        return 0.5 * float(x @ self.matrix @ x)

    def value_and_dual(self, x):
        return self.value(x), self.matrix @ x

    def metric_solve(self, x, dual):
        return scipy.linalg.cho_solve(self.metric, dual)

    def step_bound(self, x, d):
        return 1e6, 1.0

    def trace_energy(self, x):
        return self.value(x)

    def trace_phi_inf(self, x):
        return 0.0

    def final_polygon(self, x):
        return None


class TestPenaltyDrivers:
    def test_pr_plus_clamps_to_steepest_descent(self, rng):
        g = rng.standard_normal(10)
        dual = 2.0 * g
        # Build a previous state with dual @ (g - g_prev) < 0.
        g_prev = g + rng.standard_normal(10) * 0.01 + 5.0 * dual / np.linalg.norm(dual)
        dual_prev = 2.0 * g_prev
        d_prev = -g_prev
        assert float(dual @ (g - g_prev)) < 0.0
        d, beta = pr_plus_direction(g, dual, g_prev, dual_prev, d_prev)
        assert beta == 0.0
        assert np.array_equal(d, -g)

    def test_pr_plus_keeps_positive_coefficient(self, rng):
        g = rng.standard_normal(6)
        dual = g.copy()
        g_prev = 0.5 * g
        dual_prev = g_prev.copy()
        d_prev = -g_prev
        d, beta = pr_plus_direction(g, dual, g_prev, dual_prev, d_prev)
        expected_beta = float(dual @ (g - g_prev)) / float(dual_prev @ g_prev)
        assert beta == pytest.approx(expected_beta)
        assert np.allclose(d, -g + beta * d_prev)

    def test_lbfgs_solves_quadratic(self, rng):
        dim = 12
        a = rng.standard_normal((dim, dim))
        matrix = a @ a.T + dim * np.eye(dim)
        b = rng.standard_normal((dim, dim))
        metric = b @ b.T + dim * np.eye(dim)
        problem = QuadraticProblem(matrix, metric)
        x0 = rng.standard_normal(dim)
        cfg = OptimizerConfig(method="lbfgs", max_iter=200,
                              grad_tol=1e-10, grad_abs_tol=0.0)
        result = lbfgs_loop(problem, x0, cfg)
        assert result.converged
        assert result.trace[-1].grad_norm <= 1e-10 * result.trace[0].grad_norm
        assert result.trace[-1].iteration <= dim * 12

    @pytest.mark.parametrize("dim", (2, 3))
    @pytest.mark.parametrize("metric", ("l2", "w12", "w22", "w32pure", "w32"))
    def test_metric_solve_matches_dense_cholesky(self, metric, dim, rng):
        # Oracle: the penalty metric expanded to (N*m)^2 and factorized,
        # kron(S, I_m) + alpha J_len^T diag(w) J_len (no augmentation for l2).
        p = random_embedded_polygon(16, dim=dim, seed=21)
        config = OptimizerConfig(method="lbfgs", metric=ko.parse_metric(metric))
        problem = PenaltyProblem(p, None, config)
        x = 1.02 * p.vertices.ravel()
        _, dual = problem.value_and_dual(x)
        poly = ko.Polygon(x.reshape(p.vertices.shape))
        gram = ko.assemble_gram(poly, problem.metric_kind)
        matrix = np.kron(gram.scalar, np.eye(dim))
        if metric != "l2":
            jac_len = ko.d_phi(poly).dense()[:poly.num_vertices]
            w = problem.targets.lengths / problem.targets.total
            matrix += config.alpha * (jac_len.T * w) @ jac_len
        for rhs in (dual, rng.standard_normal(x.size)):
            ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(matrix), rhs)
            g = problem.metric_solve(x, rhs)
            assert np.linalg.norm(g - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_penalty_run_reports_saddle_residual(self):
        result = ko.run_lbfgs(ko.coiled_unknot(96), OptimizerConfig(
            method="lbfgs", max_iter=20))
        assert result.diagnostics["saddle_residual_max"] <= 1e-10
        assert result.diagnostics["saddle_refinements_max"] >= 0

    def test_lbfgs_descends_on_coil(self):
        p = ko.coiled_unknot(48, windings=2)
        result = ko.run_lbfgs(p, OptimizerConfig(
            method="lbfgs", max_iter=80))
        assert result.final_energy < result.trace[0].energy
        assert result.trace[-1].phi_inf <= 1e-2

    def test_penalty_matches_feasible_energy(self):
        # Cross-method comparison: the penalized minimizer agrees with the
        # constrained one to a fraction of a percent at alpha = 1e3.
        p = ko.coiled_unknot(96, windings=4)
        feasible = ko.run_projected_gd(p, OptimizerConfig(max_iter=200))
        penalized = ko.run_lbfgs(p, OptimizerConfig(
            method="lbfgs", alpha=1e3, max_iter=300))
        assert penalized.trace[-1].phi_inf <= 1e-2
        gap = abs(penalized.final_energy - feasible.final_energy)
        assert gap <= 0.02 * feasible.final_energy

    def test_ncg_descends(self):
        p = ko.perturbed_circle(48)
        result = ko.run_ncg_pr_plus(p, OptimizerConfig(
            method="ncg", max_iter=60))
        assert result.final_energy <= 4.01

    def test_nesterov_descends_and_can_reset(self):
        p = ko.perturbed_circle(48)
        result = ko.run_nesterov(p, OptimizerConfig(
            method="nesterov", max_iter=60))
        assert result.final_energy <= 4.01
        assert result.diagnostics["momentum_resets"] >= 0


class TestTrustRegionSubproblem:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_sampling_oracle(self, seed):
        rng = np.random.default_rng(seed)
        dim = 3
        h = rng.standard_normal((dim, dim))
        h = 0.5 * (h + h.T)
        if seed % 2:
            h += dim * np.eye(dim)  # mix definite and indefinite cases
        g = rng.standard_normal(dim)
        radius = 0.8
        z = solve_trust_region_subproblem(h, g, radius)
        assert np.linalg.norm(z) <= radius + 1e-9

        def model(pts):
            return pts @ g + 0.5 * np.einsum("ij,jk,ik->i", pts, h, pts)

        samples = rng.standard_normal((60000, dim))
        samples /= np.linalg.norm(samples, axis=1)[:, None]
        radii = radius * rng.uniform(0, 1, 60000) ** (1 / dim)
        interior = samples * radii[:, None]
        boundary = radius * samples
        best = min(model(interior).min(), model(boundary).min())
        value = float(g @ z + 0.5 * z @ h @ z)
        assert value <= best + 1e-4 * max(1.0, abs(best))

    def test_hard_case_pads_to_radius(self):
        h = np.diag([-2.0, 1.0, 3.0])
        g = np.array([0.0, 0.5, -0.3])  # no component on the lowest mode
        radius = 1.0
        z = solve_trust_region_subproblem(h, g, radius)
        assert np.linalg.norm(z) == pytest.approx(radius, rel=1e-8)


class TestTrustRegion:
    def test_radius_update_rule(self):
        cfg = OptimizerConfig(method="trust_region")
        # Rejected or poor step shrinks.
        assert update_trust_radius(0.1, -2.0, False, cfg) == 0.1 * cfg.tr_shrink
        assert update_trust_radius(0.1, 0.1, False, cfg) == 0.1 * cfg.tr_shrink
        # Convincing boundary step expands.
        assert update_trust_radius(0.1, 0.9, True, cfg) == 0.1 * cfg.tr_expand
        # Convincing interior step keeps the radius.
        assert update_trust_radius(0.1, 0.9, False, cfg) == 0.1
        # Middling ratio keeps the radius.
        assert update_trust_radius(0.1, 0.5, True, cfg) == 0.1

    def test_newton_phase_near_minimizer(self):
        p = ko.perturbed_circle(32)
        warm = ko.run_projected_gd(p, OptimizerConfig(max_iter=10))
        result = ko.run_trust_region(warm.polygon, OptimizerConfig(
            method="trust_region", max_iter=20, grad_tol=1e-4,
            tr_newton_gate=0.5))
        assert result.diagnostics["newton_directions"] >= 1
        assert result.converged
        assert result.trace[-1].iteration <= 15
        assert all(r.phi_inf <= 1e-8 for r in result.trace)
        # End-phase contraction: the gradient norm collapses by orders of
        # magnitude within a handful of Newton-assisted steps.
        gnorms = [r.grad_norm for r in result.trace]
        assert gnorms[-1] <= 1e-4 * gnorms[0]
        assert min(b / a for a, b in zip(gnorms, gnorms[1:])) <= 0.1

    def test_closed_gate_uses_gradient_and_momentum_only(self):
        p = ko.coiled_unknot(48, windings=2)
        result = ko.run_trust_region(p, OptimizerConfig(
            method="trust_region", max_iter=8, tr_newton_gate=1e-12))
        assert result.diagnostics["newton_directions"] == 0
        energies = [r.energy for r in result.trace]
        assert energies[-1] < energies[0]


class TestDispatch:
    def test_mode_reconciliation(self):
        # The method alone picks the family: lbfgs always runs penalized.
        p = ko.perturbed_circle(24)
        cfg = OptimizerConfig(method="lbfgs", max_iter=5)
        via_run = ko.run(p, cfg)
        direct = ko.run_lbfgs(p, cfg)
        assert [r.energy for r in via_run.trace] == [r.energy for r in direct.trace]

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(method="adam")

    @pytest.mark.parametrize("field", ("quad_k", "tau_max", "max_iter"))
    def test_out_of_range_setting_rejected(self, field):
        bad = {"quad_k": 0, "tau_max": 0.0, "max_iter": -1}[field]
        with pytest.raises(ValueError, match=field):
            OptimizerConfig(**{field: bad})

    def test_budget_stops_run(self):
        p = ko.coiled_unknot(96, windings=4)
        result = ko.run_projected_gd(p, OptimizerConfig(
            max_iter=10000, grad_tol=1e-14, grad_abs_tol=1e-16,
            time_budget_s=1.5))
        assert result.status == "budget"
        assert result.trace[-1].time_s <= 1.5 + 3.0  # one-iteration overshoot


class TestLoopContract:
    @pytest.mark.parametrize("method", METHODS)
    def test_max_iter_gives_k_plus_one_rows(self, method):
        k = 3
        result = ko.run(ko.coiled_unknot(48, windings=2), OptimizerConfig(
            method=method, max_iter=k, grad_tol=0.0, grad_abs_tol=0.0))
        assert result.status == "max_iter"
        assert [r.iteration for r in result.trace] == list(range(k + 1))

    @pytest.mark.parametrize("method", METHODS)
    def test_zero_budget_gives_one_row(self, method):
        result = ko.run(ko.coiled_unknot(48, windings=2), OptimizerConfig(
            method=method, time_budget_s=0.0))
        assert result.status == "budget"
        assert len(result.trace) == 1


class TestNumericalFailure:
    def test_feasible_run_keeps_partial_trace(self, monkeypatch):
        # One factorization per iterate: the third call is iterate 2's.
        monkeypatch.setattr(optimize, "factorize", fail_on_call(
            optimize.factorize, 3, ko.SingularSystem("injected")))
        snapshots = []
        result = ko.run(ko.coiled_unknot(48, windings=2),
                        OptimizerConfig(max_iter=10),
                        on_iterate=lambda k, poly: snapshots.append(poly))
        assert result.status == "numerical_failure"
        assert result.diagnostics["error"] == "SingularSystem"
        assert [r.iteration for r in result.trace] == [0, 1]
        assert result.polygon is snapshots[-1]

    def test_penalty_run_wraps_singular_metric(self, monkeypatch):
        # One structured metric factorization per iterate, with two Cholesky
        # factorizations each: the fifth call is iterate 2's.  scipy's error
        # must surface as SingularSystem.
        monkeypatch.setattr(scipy.linalg, "cho_factor", fail_on_call(
            scipy.linalg.cho_factor, 5, scipy.linalg.LinAlgError("injected")))
        snapshots = []
        result = ko.run(ko.coiled_unknot(48, windings=2),
                        OptimizerConfig(method="lbfgs", max_iter=10),
                        on_iterate=lambda k, poly: snapshots.append(poly))
        assert result.status == "numerical_failure"
        assert result.diagnostics["error"] == "SingularSystem"
        assert [r.iteration for r in result.trace] == [0, 1]
        assert np.array_equal(result.polygon.vertices, snapshots[-1].vertices)

    def test_error_before_first_row_raises(self, monkeypatch):
        monkeypatch.setattr(optimize, "factorize", fail_on_call(
            optimize.factorize, 1, ko.SingularSystem("injected")))
        with pytest.raises(ko.SingularSystem):
            ko.run(ko.coiled_unknot(48, windings=2), OptimizerConfig(max_iter=10))


class TestStepLimits:
    def test_cut_trials_sum_to_trace_backtracks(self):
        # The lumped-mass flow on the coil meets all but the invalid-polygon
        # cause within 30 iterations.
        result = ko.run_projected_gd(
            ko.coiled_unknot(96), OptimizerConfig(metric=ko.L2, max_iter=30))
        limits = result.diagnostics["step_limits"]
        assert set(limits) == set(optimize.STEP_LIMITS)
        total = sum(r.backtracks for r in result.trace)
        assert limits["restoration"] + limits["invalid"] + limits["armijo"] == total
        assert limits["restoration"] > 0 and limits["armijo"] > 0
        assert 0 < limits["collision"] <= len(result.trace) - 1
