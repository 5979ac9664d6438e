import dataclasses
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import knotopt as ko
from knotopt import optimize
from knotopt.energy import _release
from knotopt.optimize import (METHODS, OptimizerConfig, PenaltyProblem,
                              implicit_step, path_point, pr_plus_direction,
                              steihaug_path, update_trust_radius, _prepare_state)
import pairlist_oracle as oracle
from conftest import dense, fail_on_call, random_embedded_polygon


def audit_no_self_intersection(snapshots):
    for _, polygon in snapshots:
        assert ko.proximity_report(polygon.vertices).min_distance > 0.0


class TestArmijoStep:
    def test_near_stationary_accepts_with_negligible_change(self):
        p = ko.regular_ngon(64)
        state = _prepare_state(p, ko.W32_GEOMETRIC, ko.MIDPOINT)
        targets = ko.ConstraintTargets.from_polygon(p)
        e0 = float(ko.energy(p))
        outcome = ko.armijo_step(
            p, -state.grad, state.fact, targets, quad=ko.MIDPOINT,
            energy_value=e0, slope=-state.grad_norm**2,
            limits=dict.fromkeys(optimize.STEP_LIMITS, 0),
        )
        assert outcome.tau > 0.0
        assert abs(outcome.energy - e0) <= 1e-10

    def test_coil_descent_direction_accepted(self):
        p = ko.coiled_unknot(96, windings=4)
        state = _prepare_state(p, ko.W32_GEOMETRIC, ko.MIDPOINT)
        targets = ko.ConstraintTargets.from_polygon(p)
        e0 = float(ko.energy(p))
        outcome = ko.armijo_step(
            p, -state.grad, state.fact, targets, quad=ko.MIDPOINT,
            energy_value=e0, slope=-state.grad_norm**2,
            limits=dict.fromkeys(optimize.STEP_LIMITS, 0),
        )
        assert outcome.tau > 0.0
        assert outcome.energy < e0

    def test_ascent_direction_rejected(self):
        p = random_embedded_polygon(16, seed=0)
        state = _prepare_state(p, ko.W32_GEOMETRIC, ko.MIDPOINT)
        targets = ko.ConstraintTargets.from_polygon(p)
        with pytest.raises(ValueError):
            ko.armijo_step(
                p, +state.grad, state.fact, targets, quad=ko.MIDPOINT,
                energy_value=float(ko.energy(p)), slope=+state.grad_norm**2,
                limits=dict.fromkeys(optimize.STEP_LIMITS, 0),
            )


class TestProjectedGradientDescent:
    def test_perturbed_circle_reaches_near_minimal_energy(self):
        p = ko.perturbed_circle(64)
        snapshots = []
        result = ko.run(
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

    def test_lumped_mass_flow_is_an_order_of_magnitude_slower(self, monkeypatch):
        # Iterations to the converged energy level of the preconditioned
        # flow; the lumped-mass flow must not get there in ten times as
        # many iterations (its stable steps scale like a third power of
        # the mesh size).
        p = ko.perturbed_circle(64)
        result_w = ko.run(p, OptimizerConfig(max_iter=60))
        target = 4.00002
        it_w = next(r.iteration for r in result_w.trace if r.energy <= target)
        monkeypatch.setattr(optimize, "GRAD_ABS_TOL", 1e-16)
        result_l = ko.run(
            p, OptimizerConfig(metric=ko.L2, max_iter=10 * it_w, grad_tol=1e-14),
        )
        assert min(r.energy for r in result_l.trace) > target

    def test_trefoil_converges_to_nontrivial_stationary_point(self):
        p = ko.torus_knot(2, 3, 120)
        snapshots = []
        result = ko.run(
            p, OptimizerConfig(max_iter=400, grad_tol=1e-3),
            on_iterate=lambda k, poly: snapshots.append((k, poly)),
        )
        assert result.converged
        assert result.final_energy > 4.5
        assert result.trace[-1].grad_norm <= 1e-3 * result.trace[0].grad_norm
        audit_no_self_intersection(snapshots)

    def test_restoration_budget_respected(self):
        p = ko.coiled_unknot(48, windings=2)
        result = ko.run(p, OptimizerConfig(max_iter=25))
        assert all(r.newton_iters <= 5 for r in result.trace)

    def test_determinism(self):
        p = ko.coiled_unknot(48, windings=2)
        cfg = OptimizerConfig(max_iter=15)
        a = ko.run(p, cfg)
        b = ko.run(p, cfg)
        for ra, rb in zip(a.trace, b.trace):
            assert ra.iteration == rb.iteration
            assert ra.energy == rb.energy
            assert ra.grad_norm == rb.grad_norm
            assert ra.step_size == rb.step_size
            assert ra.phi_inf == rb.phi_inf
        assert np.array_equal(a.polygon.vertices, b.polygon.vertices)


class TestImplicitEuler:
    def test_small_step_agrees_with_explicit_to_second_order(self, monkeypatch):
        p = ko.perturbed_circle(16)
        state = _prepare_state(p, ko.L2, ko.MIDPOINT)
        monkeypatch.setattr(optimize, "IMPLICIT_NEWTON_TOL", 1e-12)
        errors = []
        for dt in (2e-3, 1e-3, 5e-4):
            v, _ = implicit_step(state, dt, ko.MIDPOINT, {"gmres_iters_max": 0})
            errors.append(np.linalg.norm(v - (-dt) * state.grad))
        ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
        assert all(2.5 <= r <= 6.0 for r in ratios)

    def test_monotone_decrease(self):
        p = ko.perturbed_circle(24)
        result = ko.run(p, OptimizerConfig(
            method="implicit_euler_l2", max_iter=12))
        energies = [r.energy for r in result.trace]
        assert all(b <= a + 1e-14 for a, b in zip(energies, energies[1:]))
        assert energies[-1] < energies[0]
        assert all(r.phi_inf <= 1e-8 for r in result.trace)

    def test_oversized_step_is_handled_by_shrinking(self, monkeypatch):
        p = ko.perturbed_circle(16)
        monkeypatch.setattr(optimize, "TAU_MAX", 50.0)
        result = ko.run(p, OptimizerConfig(
            method="implicit_euler_l2", max_iter=4))
        assert result.status in ("converged", "max_iter")
        energies = [r.energy for r in result.trace]
        assert energies[-1] <= energies[0]

    def test_collision_bound_cuts_the_time_step(self, monkeypatch):
        # The trial that the plain run accepts is cut once more when its
        # straight path from P is reported to meet a contact at half the
        # step, though its end point is a valid polygon.  With max_iter=1
        # the plain run's last contact query is that of its accepted trial.
        p = ko.perturbed_circle(16)
        config = OptimizerConfig(method="implicit_euler_l2", max_iter=1)
        step_bounds = optimize.collision.step_bounds
        calls, contact_at = [], None

        def spy(vertices, displacement, tau_max):
            calls.append(tau_max)
            if len(calls) == contact_at:
                return 0.5, 1.0 / 3.0
            return step_bounds(vertices, displacement, tau_max)

        monkeypatch.setattr(optimize.collision, "step_bounds", spy)
        plain = ko.run(p, config)
        assert calls and set(calls) == {1.0}
        contact_at = len(calls)
        calls.clear()
        cut = ko.run(p, config)
        assert cut.trace[1].backtracks == plain.trace[1].backtracks + 1 >= 1
        assert cut.trace[1].step_size == 0.25 * plain.trace[1].step_size
        collisions = [run.diagnostics["step_limits"]["collision"] for run in (plain, cut)]
        assert collisions[1] == collisions[0] + 1

    @pytest.mark.parametrize("quad", [ko.MIDPOINT, ko.QuadratureRule.gauss(2)],
                             ids=["midpoint", "gauss2"])
    @pytest.mark.parametrize("dt", [1 / 16, 1 / 4])
    @pytest.mark.parametrize("curve", ["coil96", "trefoil60"])
    def test_matches_dense_newton_reference(self, curve, dt, quad):
        # The Newton iteration with each system solved densely by LU, from
        # the same warm start and with the same residual and stop rules.
        p = {"coil96": ko.coiled_unknot(96),
             "trefoil60": ko.torus_knot(2, 3, 60)}[curve]
        state = _prepare_state(p, ko.L2, quad)
        gram, jac = state.fact.gram, state.fact.jacobian
        rows, m = dense(jac), p.dim

        def residual(v, lam):
            trial = ko.Polygon(p.vertices + v.reshape(p.vertices.shape), validate=False)
            r1 = gram.apply(v) / dt + ko.d_energy(trial, quad) + jac.apply_T(lam)
            return np.concatenate((r1, jac.apply(v))), trial

        v, lam = -dt * state.grad, -state.lam
        res, trial = residual(v, lam)
        res_norm0 = np.linalg.norm(res)
        stall = 0
        for it in range(1, optimize.IMPLICIT_MAX_NEWTON + 1):
            hess = oracle.d2_energy(trial, quad)
            for c in range(m):
                hess[c::m, c::m] += gram.scalar / dt
            kkt = np.block([[hess, rows.T], [rows, np.zeros((len(rows), len(rows)))]])
            delta = np.linalg.solve(kkt, -res)
            v, lam = v + delta[:v.size], lam + delta[v.size:]
            res, trial = residual(v, lam)
            rel = np.linalg.norm(res) / res_norm0
            if rel <= 1e-9:
                break
            stall = stall + 1 if rel > 0.5 else 0
            assert stall < 3
        else:
            pytest.fail("the dense reference did not converge")

        diagnostics = {"gmres_iters_max": 0}
        got, iters = implicit_step(state, dt, quad, diagnostics)
        assert iters == it
        assert np.linalg.norm(got - v) <= 1e-10 * np.linalg.norm(v)
        assert 1 <= diagnostics["gmres_iters_max"] <= optimize.KRYLOV_MAX_ITER

    def test_short_gmres_cuts_the_time_step(self, monkeypatch):
        # With one GMRES iteration per Newton system, Newton does not
        # converge at dt = 1/4 on the coil: the inner solve fails, and a run
        # counts each such cut as newton and goes on with a smaller dt.
        monkeypatch.setattr(optimize, "KRYLOV_MAX_ITER", 1)
        p = ko.coiled_unknot(96)
        state = _prepare_state(p, ko.L2, ko.MIDPOINT)
        with pytest.raises(ko.NewtonInnerFailure):
            implicit_step(state, 1 / 4, ko.MIDPOINT, {"gmres_iters_max": 0})
        result = ko.run(p, OptimizerConfig(method="implicit_euler_l2", max_iter=3))
        limits = result.diagnostics["step_limits"]
        assert limits["newton"] > 0
        assert sum(limits.values()) == sum(r.backtracks for r in result.trace)
        assert result.status == "max_iter"
        assert result.diagnostics["gmres_iters_max"] == 1


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

    def test_lbfgs_solves_quadratic(self, rng, monkeypatch):
        dim = 12
        a = rng.standard_normal((dim, dim))
        matrix = a @ a.T + dim * np.eye(dim)
        b = rng.standard_normal((dim, dim))
        metric = b @ b.T + dim * np.eye(dim)
        problem = QuadraticProblem(matrix, metric)
        x0 = rng.standard_normal(dim)
        monkeypatch.setattr(optimize, "GRAD_ABS_TOL", 0.0)
        cfg = OptimizerConfig(method="lbfgs", max_iter=200, grad_tol=1e-10)
        step = optimize._lbfgs(problem, {})
        result = optimize._drive(optimize._penalty_points(problem, x0, step), cfg,
                                 {}, None)
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
        problem = PenaltyProblem(p, ko.ConstraintTargets.from_polygon(p), config)
        x = 1.02 * p.vertices.ravel()
        _, dual = problem.value_and_dual(x)
        poly = ko.Polygon(x.reshape(p.vertices.shape))
        gram = ko.assemble_gram(poly, metric)
        matrix = np.kron(gram.scalar, np.eye(dim))
        if metric != "l2":
            jac_len = dense(ko.d_phi(poly))[:poly.num_vertices]
            w = problem.targets.lengths / problem.targets.total
            matrix += config.alpha * (jac_len.T * w) @ jac_len
        for rhs in (dual, rng.standard_normal(x.size)):
            ref = scipy.linalg.cho_solve(scipy.linalg.cho_factor(matrix), rhs)
            g = problem.metric_solve(x, rhs)
            assert np.linalg.norm(g - ref) <= 1e-9 * np.linalg.norm(ref)

    @pytest.mark.parametrize("method", ("lbfgs", "ncg"))
    def test_only_lbfgs_keeps_its_first_metric(self, method, monkeypatch):
        # L-BFGS seeds its recursion with the first point's Gram throughout;
        # NCG assembles the Gram of every point it preconditions at.
        calls = []

        def spy(*args, **kwargs):
            calls.append(args[0])
            return ko.assemble_gram(*args, **kwargs)

        monkeypatch.setattr(optimize, "assemble_gram", spy)
        result = ko.run(ko.coiled_unknot(96), OptimizerConfig(method=method, max_iter=200))
        assert result.converged
        assert len(calls) == (1 if method == "lbfgs" else len(result.trace))

    def test_lbfgs_with_kept_metric_is_deterministic(self):
        # The second run builds in arrays the first one freed; the metric it
        # keeps must be its own first point's.
        p = ko.coiled_unknot(96)
        traces = [[dataclasses.replace(r, time_s=0.0) for r in ko.run(
            p, OptimizerConfig(method="lbfgs", max_iter=200)).trace] for _ in range(2)]
        assert len(traces[0]) > 2
        assert traces[0] == traces[1]

    def test_second_lbfgs_point_builds_in_the_first_schur_array(self, rng):
        # When the first point leaves the cache, only its Schur factor is
        # handed on; the kept metric and inverse stay.
        p = ko.coiled_unknot(48, windings=2)
        problem = PenaltyProblem(p, ko.ConstraintTargets.from_polygon(p),
                                 OptimizerConfig(method="lbfgs"))
        x, dual = p.vertices.ravel(), rng.standard_normal(p.vertices.size)
        _release()
        try:
            problem.metric_solve(x, dual)
            kept = problem._kept
            g = problem.metric_solve(1.01 * x, dual)
            fact = problem._point[4]
        finally:
            _release()
        assert fact is not kept and fact._inv is kept._inv
        assert np.shares_memory(fact._arrays[0], kept._arrays[2])
        for array in kept._arrays[:2]:
            assert not np.shares_memory(fact._arrays[0], array)
        assert np.array_equal(g, ko.projected_gradient(
            kept.with_rows(fact.jacobian), dual)[0])

    def test_penalty_run_reports_saddle_residual(self):
        result = ko.run(ko.coiled_unknot(96), OptimizerConfig(
            method="lbfgs", max_iter=20))
        assert result.diagnostics["saddle_residual_max"] <= 1e-10
        assert result.diagnostics["saddle_refinements_max"] >= 0

    def test_lbfgs_descends_on_coil(self):
        p = ko.coiled_unknot(48, windings=2)
        result = ko.run(p, OptimizerConfig(
            method="lbfgs", max_iter=80))
        assert result.final_energy < result.trace[0].energy
        assert result.trace[-1].phi_inf <= 1e-2

    def test_penalty_matches_feasible_energy(self):
        # Cross-method comparison: the penalized minimizer agrees with the
        # constrained one to a fraction of a percent at alpha = 1e3.
        p = ko.coiled_unknot(96, windings=4)
        feasible = ko.run(p, OptimizerConfig(max_iter=200))
        penalized = ko.run(p, OptimizerConfig(
            method="lbfgs", alpha=1e3, max_iter=300))
        assert penalized.trace[-1].phi_inf <= 1e-2
        gap = abs(penalized.final_energy - feasible.final_energy)
        assert gap <= 0.02 * feasible.final_energy

    def test_ncg_descends(self):
        p = ko.perturbed_circle(48)
        result = ko.run(p, OptimizerConfig(
            method="ncg", max_iter=60))
        assert result.final_energy <= 4.01

    def test_nesterov_look_ahead_is_damped_without_contact(self):
        # No contact is near the circle's momentum move, so its contact cap
        # is 1; the look-ahead still takes two thirds of the move.
        p = ko.perturbed_circle(48)
        problem = PenaltyProblem(p, ko.ConstraintTargets.from_polygon(p),
                                 OptimizerConfig(method="nesterov"))
        caps, points = [], []
        step_bound, value_and_dual = problem.step_bound, problem.value_and_dual
        problem.step_bound = lambda x, d: caps.append(step_bound(x, d)) or caps[-1]
        problem.value_and_dual = lambda x: points.append(x) or value_and_dual(x)
        step = optimize._nesterov(problem, {"momentum_resets": 0})
        x0 = p.vertices.ravel()
        f0, dual0 = value_and_dual(x0)
        x1, f1, dual1, _, _ = step(x0, f0, dual0, problem.metric_solve(x0, dual0))
        assert f1 <= f0  # the momentum is kept
        caps.clear()
        points.clear()
        step(x1, f1, dual1, problem.metric_solve(x1, dual1))
        t1 = 0.5 * (1.0 + np.sqrt(5.0))
        mu = (t1 - 1.0) / (0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t1**2)))
        delta = mu * (x1 - x0)
        assert caps[0][0] == 1.0
        assert np.array_equal(points[0], x1 + (2.0 / 3.0) * delta)

    @pytest.mark.parametrize("curve", ["coil96", "circle64"])
    def test_nesterov_converges(self, curve):
        # A restart steps from x, not from the look-ahead that raised the
        # objective, so the method does not alternate between a plain step
        # and an increase until max_iter.
        p = {"coil96": ko.coiled_unknot(96), "circle64": ko.perturbed_circle(64)}[curve]
        result = ko.run(p, OptimizerConfig(method="nesterov", max_iter=500))
        assert result.converged
        assert result.final_energy <= 4.001
        assert result.diagnostics["momentum_resets"] > 0

    def test_nesterov_restart_steps_from_x(self):
        # A look-ahead whose Wolfe step ends above f(x) is dropped: the step
        # is the plain one from x, and the momentum restarts.
        problem = QuadraticProblem(np.diag([1.0, 100.0]), np.eye(2))
        diagnostics = {"momentum_resets": 0}
        step = optimize._nesterov(problem, diagnostics)
        x = np.array([1.0, 1.0])
        f, dual = problem.value_and_dual(x)
        for k in range(20):
            g = problem.metric_solve(x, dual)
            x_new, f_new, dual, t, _ = step(x, f, dual, g)
            assert f_new < f
            if diagnostics["momentum_resets"]:
                assert np.array_equal(x_new, x - t * g)
                break
            x, f = x_new, f_new
        else:
            pytest.fail("no restart in 20 steps")

    def test_nesterov_descends_and_can_reset(self):
        p = ko.perturbed_circle(48)
        result = ko.run(p, OptimizerConfig(
            method="nesterov", max_iter=60))
        assert result.final_energy <= 4.01
        assert result.diagnostics["momentum_resets"] >= 0


class TestTrustRegion:
    def test_radius_update_rule(self):
        # Rejected or poor step shrinks.
        assert update_trust_radius(0.1, -2.0, False) == 0.1 * optimize.TR_SHRINK
        assert update_trust_radius(0.1, 0.1, False) == 0.1 * optimize.TR_SHRINK
        # Convincing boundary step expands.
        assert update_trust_radius(0.1, 0.9, True) == 0.1 * optimize.TR_EXPAND
        # Convincing interior step keeps the radius.
        assert update_trust_radius(0.1, 0.9, False) == 0.1
        # Middling ratio keeps the radius.
        assert update_trust_radius(0.1, 0.5, True) == 0.1

    def test_newton_phase_near_minimizer(self):
        p = ko.perturbed_circle(32)
        warm = ko.run(p, OptimizerConfig(max_iter=10))
        result = ko.run(warm.polygon, OptimizerConfig(
            method="trust_region", max_iter=20, grad_tol=1e-4))
        assert result.converged
        assert result.trace[-1].iteration <= 15
        assert all(r.phi_inf <= 1e-8 for r in result.trace)
        # End-phase contraction: the gradient norm collapses by orders of
        # magnitude within a handful of Newton-assisted steps.
        gnorms = [r.grad_norm for r in result.trace]
        assert gnorms[-1] <= 1e-4 * gnorms[0]
        assert min(b / a for a, b in zip(gnorms, gnorms[1:])) <= 0.1

    @staticmethod
    def small_gradient_state(n):
        """State of the first w32 projected-gradient iterate of the trefoil
        whose gradient is below 1e-2 of the first one."""
        iterates = []
        result = ko.run(ko.torus_knot(2, 3, n), OptimizerConfig(max_iter=200),
                        on_iterate=lambda i, polygon: iterates.append(polygon))
        gnorms = [r.grad_norm for r in result.trace]
        k = next(i for i, g in enumerate(gnorms) if g < 1e-2 * gnorms[0])
        return _prepare_state(iterates[k], ko.W32_GEOMETRIC, ko.MIDPOINT)

    def test_newton_cg_matches_dense_direction(self):
        # At this iterate of the symmetric trefoil the right-hand side has
        # no component on the near-null modes of the projected Hessian, so
        # the dense Newton direction is well defined.  (Near the round
        # circle it is not: a planar rotation has zero curvature by scale
        # invariance, and the dense solve amplifies rounding along it.)
        state = self.small_gradient_state(60)
        segments, _ = steihaug_path(state, ko.hessian(state.polygon, ko.MIDPOINT),
                                    np.inf, 1e-8)
        direction = path_point(segments, np.inf)[0]
        hess, rows = oracle.d2_energy(state.polygon), dense(state.fact.jacobian)
        kkt = np.block([[hess, rows.T], [rows, np.zeros((len(rows), len(rows)))]])
        rhs = np.concatenate((-state.eta, np.zeros(len(rows))))
        reference = np.linalg.solve(kkt, rhs)[:len(hess)]
        assert np.linalg.norm(direction - reference) <= 1e-6 * np.linalg.norm(reference)

    @pytest.mark.parametrize("n", [60, 120, 240])
    def test_newton_cg_iterations_independent_of_n(self, n):
        # Solved to 1e-8, not to the trust region's forcing term: the count
        # of a tight solve stays flat in N.
        state = self.small_gradient_state(n)
        segments, iters = steihaug_path(
            state, ko.hessian(state.polygon, ko.MIDPOINT), np.inf, 1e-8)
        assert segments[-1][2] < np.inf
        assert 1 <= iters <= 20

    def test_path_ends_on_the_boundary_in_the_kernel(self):
        p = ko.torus_knot(2, 3, 60)
        state = _prepare_state(p, ko.W32_GEOMETRIC, ko.MIDPOINT)
        hess = ko.hessian(p, ko.MIDPOINT)
        newton, _ = steihaug_path(state, hess, np.inf, 1e-8)
        # Between the ends of the second and third CG steps.
        radius = 0.5 * sum(path_point(newton[:k], np.inf)[2] for k in (2, 3))
        segments, iters = steihaug_path(state, hess, radius, 1e-8)
        assert iters == len(segments) == 3
        v, model, length = path_point(segments, radius)
        assert np.sqrt(v @ state.fact.gram.apply(v)) == pytest.approx(radius, rel=1e-12)
        assert length == pytest.approx(radius, rel=1e-12)
        assert np.linalg.norm(state.fact.jacobian.apply(v)) <= 1e-9 * np.linalg.norm(v)
        direct = state.eta @ v + 0.5 * v @ hess(v.reshape(1, *p.vertices.shape)).ravel()
        assert model == pytest.approx(direct, rel=1e-9)
        ends = [0.0] + [path_point(segments[:k], np.inf)[1]
                        for k in range(1, len(segments) + 1)]
        assert all(b < a for a, b in zip(ends, ends[1:]))

    def test_one_hessian_operator_per_iterate(self, monkeypatch):
        # Every iterate builds one operator, and CG makes all its products
        # with it, one field each.
        built, paths = [], []
        hessian, path = optimize.hessian, optimize.steihaug_path

        def build(polygon, quad):
            apply, batches = hessian(polygon, quad), []

            def spy(fields):
                batches.append(len(fields))
                return apply(fields)
            built.append((spy, batches))
            return spy

        def cg(state, hess, radius, tol):
            segments, iters = path(state, hess, radius, tol)
            paths.append((hess, iters))
            return segments, iters

        monkeypatch.setattr(optimize, "hessian", build)
        monkeypatch.setattr(optimize, "steihaug_path", cg)
        result = ko.run(ko.torus_knot(2, 3, 60), OptimizerConfig(
            method="trust_region", max_iter=3, grad_tol=0.0))
        assert result.status == "max_iter"
        assert len(built) == len(paths) == len(result.trace) - 1
        for (spy, batches), (hess, iters) in zip(built, paths):
            assert hess is spy
            assert batches == [1] * iters

    def test_negative_first_curvature_gives_no_newton_direction(self, monkeypatch):
        p = ko.coiled_unknot(48, windings=2)
        monkeypatch.setattr(optimize, "hessian", lambda polygon, quad: lambda v: -v)
        state = _prepare_state(p, ko.W32_GEOMETRIC, ko.MIDPOINT)
        segments, iters = steihaug_path(state, lambda v: -v, state.grad_norm, 1e-3)
        assert iters == len(segments) == 1
        assert np.array_equal(segments[0][1], -state.grad)
        assert path_point(segments, np.inf)[2] == pytest.approx(state.grad_norm, rel=1e-12)
        result = ko.run(p, OptimizerConfig(method="trust_region", max_iter=3))
        assert result.status == "max_iter"
        assert result.diagnostics["newton_cg_iters_max"] == 1

    @pytest.mark.parametrize("n", [60, 240])
    def test_first_radius_is_the_first_models_minimizer(self, n):
        # No iteration is spent growing the radius: the first step is the
        # minimizer of the model along the gradient, |g|^3 / <grad, H grad>.
        iterates = []
        result = ko.run(ko.torus_knot(2, 3, n), OptimizerConfig(method="trust_region"),
                        on_iterate=lambda i, polygon: iterates.append(polygon))
        assert result.converged
        assert result.trace[-1].iteration <= 4
        p = iterates[0]
        state = _prepare_state(p, ko.W32_GEOMETRIC, ko.MIDPOINT)
        h_grad = ko.hessian(p, ko.MIDPOINT)(state.grad.reshape(1, *p.vertices.shape))
        minimizer = state.grad_norm**3 / float(state.grad @ h_grad.ravel())
        assert result.trace[1].step_size == pytest.approx(minimizer, rel=1e-8)

    def test_first_radius_without_curvature_is_the_gradient_length(self, monkeypatch):
        # Where the model curves down along the gradient it has no
        # minimizer there; the first radius is a unit gradient step.
        paths, reads = [], []
        path, point = optimize.steihaug_path, optimize.path_point

        def spy_path(state, hess, radius, tol):
            paths.append((state, path(state, hess, radius, tol)))
            return paths[-1][1]

        def spy_point(segments, radius):
            reads.append((segments, radius))
            return point(segments, radius)

        monkeypatch.setattr(optimize, "hessian", lambda polygon, quad: lambda v: -v)
        monkeypatch.setattr(optimize, "steihaug_path", spy_path)
        monkeypatch.setattr(optimize, "path_point", spy_point)
        result = ko.run(ko.coiled_unknot(48, windings=2),
                        OptimizerConfig(method="trust_region", max_iter=1))
        state, (segments, iters) = paths[0]
        assert iters == len(segments) == 1
        assert np.array_equal(segments[0][1], -state.grad)
        assert reads[0][0] is segments
        assert reads[0][1] == result.trace[0].grad_norm
        v, _, length = point(segments, result.trace[0].grad_norm)
        assert length == pytest.approx(state.grad_norm, rel=1e-12)
        assert np.linalg.norm(v + state.grad) <= 1e-9 * np.linalg.norm(state.grad)
        assert result.diagnostics["newton_cg_iters_max"] == 1

    @pytest.mark.parametrize("make", [lambda: ko.torus_knot(2, 3, 60),
                                      lambda: ko.perturbed_circle(64)],
                             ids=["torus60", "circle64"])
    def test_l2_converges(self, make):
        # The forcing term lets the path become a Newton step even in the
        # unpreconditioned metric.
        result = ko.run(make(), OptimizerConfig(method="trust_region", metric="l2",
                                                max_iter=25))
        assert result.status == "converged"


class TestDispatch:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(method="adam")

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="metric"):
            OptimizerConfig(metric="h1")

    @pytest.mark.parametrize("method", ("projgd", "lbfgs"))
    def test_metric_given_by_name(self, method):
        p = ko.perturbed_circle(24)
        by_name = ko.run(p, OptimizerConfig(method=method, metric="w32", max_iter=3))
        by_constant = ko.run(p, OptimizerConfig(method=method, metric=ko.W32_GEOMETRIC,
                                                max_iter=3))
        rows = [[dataclasses.replace(r, time_s=0.0) for r in result.trace]
                for result in (by_name, by_constant)]
        assert len(rows[0]) == 4
        assert rows[0] == rows[1]

    def test_each_method_assembles_its_metric(self, monkeypatch):
        # Every method takes the Gram of its metric as assembled, with no
        # term of its own; implicit Euler's is always l2.
        asked = []

        def spy(polygon, metric, quad=ko.MIDPOINT):
            asked.append(metric)
            return ko.assemble_gram(polygon, metric, quad)

        monkeypatch.setattr(optimize, "assemble_gram", spy)
        p = ko.perturbed_circle(16)
        for method in METHODS:
            for metric in ko.METRICS:
                asked.clear()
                ko.run(p, OptimizerConfig(method=method, metric=metric, max_iter=0))
                penalty = method in optimize.PENALTY_METHODS
                if penalty and metric == ko.L2:
                    assert asked == [], (method, metric)  # solved by division
                    continue
                expected = ko.L2 if method == "implicit_euler_l2" else metric
                assert set(asked) == {expected}, (method, metric)

    @pytest.mark.parametrize("field,bad", [
        ("quad_k", 0), ("max_iter", -1), ("alpha", 0.0), ("alpha", np.nan),
        ("alpha", np.inf), ("grad_tol", np.nan), ("grad_tol", -1e-4),
        ("time_budget_s", np.nan), ("time_budget_s", -1.0), ("max_iter", 2.5),
        ("quad_k", 1.5)],
        ids=["quad_k", "max_iter", "alpha-0", "alpha-nan", "alpha-inf",
             "grad_tol-nan", "grad_tol-negative", "time_budget_s-nan",
             "time_budget_s-negative", "max_iter-fraction", "quad_k-fraction"])
    def test_out_of_range_setting_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            OptimizerConfig(**{field: bad})

    @pytest.mark.parametrize("method", ("projgd", "lbfgs"))
    def test_targets_of_another_length_rejected(self, method, monkeypatch):
        # Rejected before any energy is evaluated, not by a broadcast error
        # from inside the first restoration or penalty evaluation.
        p = ko.coiled_unknot(48, windings=2)
        targets = ko.ConstraintTargets(p.edge_lengths[:-1])
        monkeypatch.setattr(optimize, "energy", fail_on_call(
            optimize.energy, 1, AssertionError("the run started")))
        with pytest.raises(ValueError, match="47 target lengths"):
            ko.run(p, OptimizerConfig(method=method, max_iter=3), targets)

    def test_budget_stops_run(self, monkeypatch):
        p = ko.coiled_unknot(96, windings=4)
        monkeypatch.setattr(optimize, "GRAD_ABS_TOL", 1e-16)
        result = ko.run(p, OptimizerConfig(
            max_iter=10000, grad_tol=1e-14, time_budget_s=1.5))
        assert result.status == "budget"
        assert result.trace[-1].time_s <= 1.5 + 3.0  # one-iteration overshoot


class TestLoopContract:
    @pytest.mark.parametrize("method", METHODS)
    def test_max_iter_gives_k_plus_one_rows(self, method, monkeypatch):
        k = 3
        monkeypatch.setattr(optimize, "GRAD_ABS_TOL", 0.0)
        result = ko.run(ko.coiled_unknot(48, windings=2), OptimizerConfig(
            method=method, max_iter=k, grad_tol=0.0))
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
        # L-BFGS keeps its first metric: iterate 0 takes two Cholesky
        # factorizations (the metric and its Schur complement), each later
        # iterate one (the Schur complement of its rows), so the fourth call
        # is iterate 2's.  scipy's error must surface as SingularSystem.
        monkeypatch.setattr(scipy.linalg, "cho_factor", fail_on_call(
            scipy.linalg.cho_factor, 4, scipy.linalg.LinAlgError("injected")))
        snapshots = []
        result = ko.run(ko.coiled_unknot(48, windings=2),
                        OptimizerConfig(method="lbfgs", max_iter=10),
                        on_iterate=lambda k, poly: snapshots.append(poly))
        assert result.status == "numerical_failure"
        assert result.diagnostics["error"] == "SingularSystem"
        assert [r.iteration for r in result.trace] == [0, 1]
        assert np.array_equal(result.polygon.vertices, snapshots[-1].vertices)

    def test_linesearch_failure_keeps_first_row(self, monkeypatch):
        monkeypatch.setattr(optimize, "armijo_step", fail_on_call(
            optimize.armijo_step, 1, ko.LineSearchFailure("injected")))
        snapshots = []
        result = ko.run(ko.coiled_unknot(48, windings=2),
                        OptimizerConfig(max_iter=10),
                        on_iterate=lambda k, poly: snapshots.append(poly))
        assert result.status == "linesearch_failure"
        assert [r.iteration for r in result.trace] == [0]
        assert result.polygon is snapshots[-1]
        assert "error" not in result.diagnostics

    def test_error_before_first_row_raises(self, monkeypatch):
        monkeypatch.setattr(optimize, "factorize", fail_on_call(
            optimize.factorize, 1, ko.SingularSystem("injected")))
        with pytest.raises(ko.SingularSystem):
            ko.run(ko.coiled_unknot(48, windings=2), OptimizerConfig(max_iter=10))


class TestRestoredTrial:
    def test_pair_within_contact_scale_is_invalid(self):
        # A feasible trial, so no restoration step, whose edges 0 and 4 are
        # 1e-10 of the length apart: it fails validation as contact.
        near = np.array([(0.0, 0.0), (3.0, 0.0), (3.0, 2.0), (2.0, 2.0), (2.0, 1.4e-9),
                         (1.0, 1.4e-9), (1.0, 2.0), (0.0, 2.0)])
        trial = ko.Polygon(near, validate=False)
        targets = ko.ConstraintTargets.from_polygon(trial)
        near -= ko.phi(trial, targets).barycenter / trial.total_length
        assert ko.phi(near, targets).is_feasible(targets.total)
        base = ko.regular_ngon(8)
        fact = ko.factorize(ko.assemble_gram(base, ko.L2), ko.d_phi(base))
        assert optimize._restored_trial(near, targets, fact, ko.MIDPOINT) == ("invalid", None)


class TestStepLimits:
    def test_cut_trials_sum_to_trace_backtracks(self):
        # The lumped-mass flow on the coil meets all but the invalid-polygon
        # cause within 30 iterations.
        result = ko.run(
            ko.coiled_unknot(96), OptimizerConfig(metric=ko.L2, max_iter=30))
        limits = result.diagnostics["step_limits"]
        assert set(limits) == set(optimize.STEP_LIMITS)
        total = sum(r.backtracks for r in result.trace)
        assert limits["restoration"] + limits["invalid"] + limits["armijo"] == total
        assert limits["restoration"] > 0 and limits["armijo"] > 0
        assert 0 < limits["collision"] <= len(result.trace) - 1

    def test_implicit_euler_cuts_sum_to_trace_backtracks(self):
        # On the coil the inner solve fails once and restorations fail
        # within 25 iterations.
        result = ko.run(ko.coiled_unknot(96), OptimizerConfig(
            method="implicit_euler_l2", max_iter=25))
        limits = result.diagnostics["step_limits"]
        assert set(limits) == set(optimize.IMPLICIT_STEP_LIMITS)
        assert sum(limits.values()) == sum(r.backtracks for r in result.trace)
        assert limits["newton"] > 0 and limits["restoration"] > 0

    def test_wolfe_rejections_sum_to_trace_trials(self):
        # A penalty run's trace holds each step's trial count in its
        # backtracks column: the rejected trials and the accepted one.
        for method in ("lbfgs", "ncg", "nesterov"):
            result = ko.run(ko.coiled_unknot(96), OptimizerConfig(
                method=method, metric=ko.L2, max_iter=20))
            limits = result.diagnostics["step_limits"]
            assert set(limits) == set(optimize.WOLFE_STEP_LIMITS)
            steps = len(result.trace) - 1
            total = sum(r.backtracks for r in result.trace)
            assert limits["invalid"] + limits["armijo"] + limits["curvature"] + steps == total
            assert limits["armijo"] > 0 and 0 < limits["collision"] <= steps

    def test_wolfe_fallback_counts_its_accepted_trial_once(self):
        # f(x) = x, admissible only for x >= 0.5: along d = -1 from x = 1
        # the curvature condition never holds, and the bisection between
        # curvature failures and invalid points ends on the fallback.
        class Ramp:
            def step_bound(self, x, d):
                return 0.75, 0.75

            def value_and_dual(self, x):
                return (float(x[0]), np.ones(1)) if x[0] >= 0.5 else (np.inf, None)

        limits = dict.fromkeys(optimize.WOLFE_STEP_LIMITS, 0)
        trials = optimize.weak_wolfe(Ramp(), np.ones(1), 1.0, np.ones(1), -np.ones(1),
                                     limits)[3]
        assert limits["collision"] == 1 and limits["armijo"] == 0
        assert limits["invalid"] > 0 and limits["curvature"] > 0
        assert limits["invalid"] + limits["curvature"] + 1 == trials

    def test_trust_region_cuts_sum_to_trace_backtracks(self, monkeypatch):
        # The L2 runs cut on failed restorations; a linear model (no
        # curvature) overshoots and cuts on the acceptance ratio.
        linear = lambda polygon, quad: np.zeros_like
        seen = dict.fromkeys(optimize.TR_STEP_LIMITS, 0)
        for p in (ko.torus_knot(2, 3, 60), ko.coiled_unknot(48, windings=2)):
            for metric, products in ((ko.W32_GEOMETRIC, ko.hessian),
                                     (ko.L2, ko.hessian),
                                     (ko.W32_GEOMETRIC, linear)):
                monkeypatch.setattr(optimize, "hessian", products)
                result = ko.run(p, OptimizerConfig(
                    method="trust_region", metric=metric, max_iter=20))
                limits = result.diagnostics["step_limits"]
                assert set(limits) == set(optimize.TR_STEP_LIMITS)
                total = sum(r.backtracks for r in result.trace)
                assert limits["restoration"] + limits["invalid"] + limits["ratio"] == total
                for cause, count in limits.items():
                    seen[cause] += count
        assert seen["restoration"] > 0 and seen["ratio"] > 0

    def test_trust_region_counts_collision_scaled_trials(self, monkeypatch):
        monkeypatch.setattr(optimize.collision, "first_collision_step",
                            lambda vertices, direction, tau_max: 0.5)
        result = ko.run(ko.torus_knot(2, 3, 60), OptimizerConfig(
            method="trust_region", max_iter=5))
        limits = result.diagnostics["step_limits"]
        trials = len(result.trace) - 1 + sum(r.backtracks for r in result.trace)
        assert limits["collision"] == trials > 0


_FAULTS_SCRIPT = """
import resource
import knotopt as ko
faults = []
def note(iteration, polygon):
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt)
result = ko.run(ko.coiled_unknot(384), ko.OptimizerConfig(method="lbfgs"),
                on_iterate=note)
print(result.status, *faults)
"""


class TestIterateArrays:
    """Each iterate builds its Gram and factorization in the last one's arrays."""

    @pytest.mark.skipif(sys.platform != "linux",
                        reason="counts minor page faults as Linux reports them")
    def test_iterates_fault_in_no_fresh_pages(self):
        # A fresh process, so that no earlier test has shaped its heap.  The
        # Gram, factorization and block tables of a coil384 L-BFGS iterate
        # used to fault in about 3 200 pages each time.
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(sys.path))
        proc = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        status, *faults = proc.stdout.split()
        per_iterate = np.diff([int(f) for f in faults])
        assert status == "converged" and len(per_iterate) >= 8
        assert per_iterate[3:].max() < 300, per_iterate

    def test_run_holds_no_table_afterwards(self):
        # The retired arrays are freed when run returns; what stays is the
        # thread's block scratch, sized by the first run.
        p = ko.coiled_unknot(384)
        config = OptimizerConfig(method="lbfgs", max_iter=3)
        ko.run(p, config)
        tracemalloc.start()
        try:
            ko.run(p, config)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 0.25 * 384 ** 2 * 8, held
