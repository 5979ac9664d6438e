"""Step-size control and the optimizer suite.

Feasible methods (projected gradient, implicit Euler, trust region) keep
the edge-length and barycenter constraints satisfied after every accepted
iteration: each trial point of the collision-bounded Armijo backtracking is
first pulled back onto the constraint set, then tested for sufficient
decrease.  Infeasible methods (nonlinear CG, L-BFGS, Nesterov) minimize the
penalized objective

    E_alpha = E + alpha * sum_I (l0_I / L0) * log(l_I / l0_I)^2

with gradients computed in the metric augmented by the penalty's
Gauss-Newton term ``alpha J_len^T diag(w) J_len`` (not for the lumped-mass
metric).  That term enters the saddle solver as the rows
``sqrt(alpha w) J_len`` with compliance 1, so the augmented metric is never
formed.  Steps use a weak Wolfe line search truncated by collision
detection.

Every method is a step function with its own memory.  One generator per
family produces the accepted iterates by calling it, and one loop,
``_drive``, records the trace, calls ``on_iterate`` and decides the status:

  * ``converged``: the gradient norm reached the tolerance, or the method
    found no direction left to move in;
  * ``max_iter``: ``max_iter`` steps were taken;
  * ``budget``: the wall-clock budget ran out;
  * ``linesearch_failure``: no acceptable step was found;
  * ``numerical_failure``: any other package error after the first trace
    row.  The partial trace and the polygon of the last row are kept, and
    the exception's class name is stored in ``diagnostics["error"]``.

An error before the first trace row raises.  All methods are
deterministic: identical configuration and input produce an identical
iterate sequence and trace (wall-clock columns aside).
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import collision
from .constraint import (ConstraintRows, ConstraintTargets, d_phi, phi,
                         restore_feasibility)
from .curve import Polygon
from .energy import MIDPOINT, QuadratureRule, d2_energy, d_energy, energy
from .errors import (KnotOptError, LineSearchFailure, NewtonInnerFailure,
                     SingularSystem)
from .metric import MetricKind, W32_GEOMETRIC, assemble_gram
from .saddle import factorize, project_tangent, projected_gradient

FEASIBLE_METHODS = ("projgd", "implicit_euler_l2", "trust_region")
PENALTY_METHODS = ("ncg", "lbfgs", "nesterov")
METHODS = FEASIBLE_METHODS + PENALTY_METHODS

_TAU_UNDERFLOW = 1e-14

STEP_LIMITS = ("collision", "restoration", "invalid", "armijo")


@dataclass(frozen=True)
class OptimizerConfig:
    method: str = "projgd"
    metric: MetricKind = W32_GEOMETRIC
    alpha: float = 1e3
    max_iter: int = 500
    grad_tol: float = 1e-4          # relative to the initial gradient norm
    grad_abs_tol: float = 1e-9      # absolute floor for near-stationary input
    armijo_c: float = 0.5
    backtrack_factor: float = 0.5
    tau_max: float = 1.0
    feas_tol: float = 1e-8
    restore_max_iter: int = 5
    quad_k: int = 1
    lbfgs_history: int = 30
    wolfe_c1: float = 1e-4
    wolfe_c2: float = 0.9
    tr_radius0: float = 0.1
    tr_expand: float = 2.0
    tr_shrink: float = 0.25
    tr_accept: float = 0.01
    tr_ratio_high: float = 0.75
    tr_ratio_low: float = 0.25
    tr_newton_gate: float = 1e-2    # relative to the initial gradient norm
    time_budget_s: float | None = None

    def quad(self) -> QuadratureRule:
        return MIDPOINT if self.quad_k == 1 else QuadratureRule.gauss(self.quad_k)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not 0.0 < self.armijo_c < 1.0:
            raise ValueError("armijo_c must lie in (0, 1)")
        if not 0.0 < self.backtrack_factor < 1.0:
            raise ValueError("backtrack_factor must lie in (0, 1)")
        if self.alpha <= 0.0:
            raise ValueError("alpha must be positive")
        if self.quad_k < 1:
            raise ValueError("quad_k must be at least 1")
        if self.tau_max <= 0.0:
            raise ValueError("tau_max must be positive")
        if self.max_iter < 0:
            raise ValueError("max_iter must be non-negative")


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    time_s: float
    energy: float
    grad_norm: float
    step_size: float
    phi_inf: float
    backtracks: int
    newton_iters: int


@dataclass
class OptimizeResult:
    polygon: Polygon | None
    trace: list[TraceRecord]
    status: str
    diagnostics: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def final_energy(self) -> float:
        return self.trace[-1].energy


@dataclass(frozen=True)
class StepOutcome:
    polygon: Polygon
    tau: float
    energy: float
    backtracks: int
    newton_iters: int


def _feasible_metric(config: OptimizerConfig) -> MetricKind:
    # The rank-m barycenter term is redundant once the barycenter
    # constraint is enforced.
    return config.metric.with_barycenter(False)


def _penalty_metric(config: OptimizerConfig) -> MetricKind:
    # Without the constraint, the w32 seminorms annihilate constants; the
    # barycenter term restores definiteness.
    if config.metric.family == "w32":
        return config.metric.with_barycenter(True)
    if config.metric.family == "l2":  # definite already; solved by division
        return config.metric.with_barycenter(False)
    return config.metric


def _drive(points, config: OptimizerConfig, diagnostics: dict, on_iterate,
           polygon_of=lambda point: point) -> OptimizeResult:
    """The loop shared by every method.

    ``points`` yields ``(point, row)`` for each accepted iterate, ``row``
    holding the trace columns after ``time_s``; pulling the next pair takes
    one step, and the generator ends when the method finds no direction
    left.  ``polygon_of`` maps a point to its polygon.
    """
    t0 = time.perf_counter()
    trace: list[TraceRecord] = []
    point = None
    status = "converged"
    try:
        for iteration, (point, row) in enumerate(points):
            energy_value, grad_norm, step, phi_inf, backtracks, newton_iters = row
            trace.append(TraceRecord(
                iteration, time.perf_counter() - t0, float(energy_value),
                float(grad_norm), float(step), float(phi_inf),
                int(backtracks), int(newton_iters),
            ))
            if on_iterate is not None:
                on_iterate(iteration, polygon_of(point))
            if grad_norm <= max(config.grad_tol * trace[0].grad_norm,
                                config.grad_abs_tol):
                break
            if iteration == config.max_iter:
                status = "max_iter"
                break
            budget = config.time_budget_s
            if budget is not None and time.perf_counter() - t0 > budget:
                status = "budget"
                break
    except KnotOptError as exc:
        if not trace:
            raise
        if isinstance(exc, LineSearchFailure):
            status = "linesearch_failure"
        else:
            status = "numerical_failure"
            diagnostics["error"] = type(exc).__name__
    return OptimizeResult(polygon_of(point), trace, status, diagnostics)


def _new_diagnostics() -> dict:
    return {"max_tangent_defect": 0.0, "newton_directions": 0,
            "momentum_resets": 0}


# ---------------------------------------------------------------------------
# Feasible machinery


@dataclass
class _FeasibleState:
    polygon: Polygon
    gram: object
    fact: object
    eta: np.ndarray
    grad: np.ndarray
    grad_norm: float


def _prepare_state(polygon: Polygon, metric_kind: MetricKind,
                   quad: QuadratureRule) -> _FeasibleState:
    gram = assemble_gram(polygon, metric_kind, quad)
    fact = factorize(gram, d_phi(polygon))
    eta = d_energy(polygon, quad)
    grad, _ = projected_gradient(fact, eta)
    grad_norm = float(np.sqrt(max(eta @ grad, 0.0)))
    return _FeasibleState(polygon, gram, fact, eta, grad, grad_norm)


def _restore_to_polygon(vertices, targets, fact, config):
    """Restoration plus embeddedness validation; raises on failure."""
    restored, iters = restore_feasibility(
        vertices, targets, fact, tol=config.feas_tol,
        max_iter=config.restore_max_iter,
    )
    return Polygon(restored), iters


def _feasible_points(polygon: Polygon, targets: ConstraintTargets,
                     config: OptimizerConfig, metric_kind: MetricKind, step,
                     diagnostics: dict):
    """Accepted iterates of a constraint-preserving method.

    An infeasible input is first restored onto the constraint set.  At
    each iterate the metric, the saddle factorization and the projected
    gradient are rebuilt, then ``step(state, energy, targets,
    diagnostics)`` returns the next :class:`StepOutcome`, or ``None`` when
    no direction is left.  The largest refinement count and final relative
    residual of the solves on these factorizations are kept in
    ``diagnostics`` as ``saddle_refinements_max`` and ``saddle_residual_max``.
    """
    quad = config.quad()
    if not phi(polygon, targets).is_feasible(targets.total, config.feas_tol):
        gram = assemble_gram(polygon, metric_kind, quad)
        fact = factorize(gram, d_phi(polygon))
        restored, _ = restore_feasibility(
            polygon.vertices, targets, fact, tol=config.feas_tol, max_iter=20
        )
        _note_solves(diagnostics, fact)
        polygon = Polygon(restored)
    outcome = StepOutcome(polygon, 0.0, float(energy(polygon, quad)), 0, 0)
    while outcome is not None:
        polygon = outcome.polygon
        state = _prepare_state(polygon, metric_kind, quad)
        _note_solves(diagnostics, state.fact)
        nu = np.linalg.norm(state.grad)
        if nu > 0.0:
            defect = float(np.linalg.norm(state.fact.jacobian.apply(state.grad)) / nu)
            diagnostics["max_tangent_defect"] = max(
                diagnostics["max_tangent_defect"], defect)
        yield polygon, (outcome.energy, state.grad_norm, outcome.tau,
                        phi(polygon, targets).max_violation(targets.total),
                        outcome.backtracks, outcome.newton_iters)
        try:
            outcome = step(state, outcome.energy, targets, diagnostics)
        finally:
            _note_solves(diagnostics, state.fact)


def _note_solves(diagnostics: dict, fact) -> None:
    """Fold a projection factorization's solve statistics into diagnostics."""
    diagnostics["saddle_refinements_max"] = max(
        diagnostics["saddle_refinements_max"], fact.max_refinements)
    diagnostics["saddle_residual_max"] = max(
        diagnostics["saddle_residual_max"], fact.max_residual)


def _run_feasible(polygon, config, targets, on_iterate, metric_kind, step,
                  **diagnostics_extra):
    if targets is None:
        targets = ConstraintTargets.from_polygon(polygon)
    diagnostics = _new_diagnostics()
    diagnostics.update(saddle_refinements_max=0, saddle_residual_max=0.0,
                       **diagnostics_extra)
    points = _feasible_points(polygon, targets, config, metric_kind, step,
                              diagnostics)
    return _drive(points, config, diagnostics, on_iterate)


def armijo_step(polygon: Polygon, direction: np.ndarray, fact, targets,
                config: OptimizerConfig, *, quad: QuadratureRule,
                energy_value: float | None = None,
                slope: float | None = None,
                limits: dict | None = None) -> StepOutcome:
    """Collision-bounded backtracking with feasibility restoration.

    Starts from two thirds of the first possible contact step, shrinks on
    restoration failure, self-intersection, or insufficient decrease, and
    returns the first trial satisfying
    ``E(Q) <= E(P) + armijo_c * tau * slope``.  ``limits`` counts the
    ``STEP_LIMITS``: ``collision`` if the contact bound cut the first trial
    below ``tau_max``, then per cut trial ``restoration`` (it failed),
    ``invalid`` (self-intersection, degenerate edge, coincident points) or
    ``armijo`` (insufficient decrease).
    """
    u = np.asarray(direction, dtype=float).ravel()
    if energy_value is None:
        energy_value = float(energy(polygon, quad))
    if slope is None:
        slope = float(d_energy(polygon, quad) @ u)
    if not slope < 0.0:
        raise ValueError(f"direction is not a descent direction (slope {slope:.3e})")
    limits = dict.fromkeys(STEP_LIMITS, 0) if limits is None else limits

    shape = polygon.vertices.shape
    tau0 = collision.initial_step(polygon.vertices, u.reshape(shape), config.tau_max)
    limits["collision"] += int(tau0 < config.tau_max)
    tau = tau0
    backtracks = 0
    while tau > _TAU_UNDERFLOW * tau0:
        trial = polygon.vertices + tau * u.reshape(shape)
        cause = "restoration"
        try:
            restored, newton_iters = restore_feasibility(
                trial, targets, fact, tol=config.feas_tol,
                max_iter=config.restore_max_iter,
            )
            cause = "invalid"
            candidate = Polygon(restored)
            trial_energy = float(energy(candidate, quad))
            cause = "armijo"
        except KnotOptError:
            pass
        if cause == "armijo" and \
                trial_energy <= energy_value + config.armijo_c * tau * slope:
            return StepOutcome(candidate, tau, trial_energy, backtracks, newton_iters)
        limits[cause] += 1
        tau *= config.backtrack_factor
        backtracks += 1
    raise LineSearchFailure(
        f"step underflow below {_TAU_UNDERFLOW:.0e} * {tau0:.3e}"
    )


def run_projected_gd(polygon: Polygon, config: OptimizerConfig,
                     targets: ConstraintTargets | None = None,
                     on_iterate=None) -> OptimizeResult:
    """Explicit projected gradient flow in the configured metric.

    ``diagnostics["step_limits"]`` sums the ``armijo_step`` limits.
    """
    quad = config.quad()

    def step(state, energy_value, targets, diagnostics):
        return armijo_step(
            state.polygon, -state.grad, state.fact, targets, config,
            quad=quad, energy_value=energy_value, slope=-state.grad_norm**2,
            limits=diagnostics["step_limits"],
        )

    return _run_feasible(polygon, config, targets, on_iterate,
                         _feasible_metric(config), step,
                         step_limits=dict.fromkeys(STEP_LIMITS, 0))


# ---------------------------------------------------------------------------
# Implicit Euler for the lumped-mass flow


def implicit_step(polygon: Polygon, dt: float, gram, fact, targets,
                  quad: QuadratureRule, *, newton_tol: float = 1e-9,
                  max_newton: int = 20):
    """Solve the backward step equation on the base tangent space.

    Finds ``v`` with ``G v / dt + DE(P + v) + J^T lam = 0`` and ``J v = 0``
    by Newton's method (refactorizing the linearization each inner
    iteration, which is what makes backtracking on ``dt`` expensive).
    Returns ``(v, inner_iterations)``.
    """
    jac = fact.jacobian
    eta = d_energy(polygon, quad)
    g0, lam0 = projected_gradient(fact, eta)
    v = -dt * g0
    lam = -lam0
    shape = polygon.vertices.shape
    nv = v.shape[0]

    def residual(v, lam):
        trial = Polygon(polygon.vertices + v.reshape(shape), validate=False)
        r1 = fact.gram_apply(v) / dt + d_energy(trial, quad) + jac.apply_T(lam)
        return np.concatenate((r1, jac.apply(v))), trial

    try:
        res, trial = residual(v, lam)
    except KnotOptError as exc:
        raise NewtonInnerFailure("warm start left the admissible set") from exc
    res_norm0 = max(np.linalg.norm(res), np.finfo(float).tiny)
    metric = np.kron(gram.scalar, np.eye(gram.dim)) / dt
    stall = 0
    for it in range(1, max_newton + 1):
        hess = d2_energy(trial, quad)
        core = metric + hess
        try:
            kkt = factorize(core, jac)
            delta = kkt.solve(-res)
        except SingularSystem as exc:
            raise NewtonInnerFailure("inner linearization singular") from exc
        v = v + delta[:nv]
        lam = lam + delta[nv:]
        try:
            res, trial = residual(v, lam)
        except KnotOptError as exc:
            raise NewtonInnerFailure("iterate left the admissible set") from exc
        rel = np.linalg.norm(res) / res_norm0
        if rel <= newton_tol:
            return v, it
        stall = stall + 1 if rel > 0.5 else 0
        if stall >= 3:
            raise NewtonInnerFailure(f"residual stalled at relative {rel:.3e}")
    raise NewtonInnerFailure(f"no convergence in {max_newton} inner iterations")


def run_implicit_euler_l2(polygon: Polygon, config: OptimizerConfig,
                          targets: ConstraintTargets | None = None,
                          on_iterate=None) -> OptimizeResult:
    """Backward Euler steps of the lumped-mass flow with Armijo control."""
    quad = config.quad()
    dt = config.tau_max

    def step(state, energy_value, targets, diagnostics):
        nonlocal dt
        vertices = state.polygon.vertices
        backtracks = 0
        while dt > _TAU_UNDERFLOW * config.tau_max:
            try:
                v, newton_iters = implicit_step(
                    state.polygon, dt, state.gram, state.fact, targets, quad
                )
                slope = float(state.eta @ v)
                if not slope < 0.0:
                    raise NewtonInnerFailure("implicit step is not a descent step")
                candidate, restore_iters = _restore_to_polygon(
                    vertices + v.reshape(vertices.shape), targets, state.fact,
                    config,
                )
                trial_energy = float(energy(candidate, quad))
                if trial_energy <= energy_value + config.armijo_c * slope:
                    outcome = StepOutcome(candidate, dt, trial_energy, backtracks,
                                          newton_iters + restore_iters)
                    dt = min(config.tau_max, 2.0 * dt)
                    return outcome
            except KnotOptError:
                pass
            dt *= 0.25
            backtracks += 1
        raise LineSearchFailure(f"time step underflow after {backtracks} cuts")

    return _run_feasible(polygon, config, targets, on_iterate,
                         MetricKind("l2"), step)


# ---------------------------------------------------------------------------
# Penalty (infeasible) machinery


class PenaltyProblem:
    """Penalized objective with metric-preconditioned gradients.

    The preconditioner ``M = S (x) I_m + R^T R`` adds the penalty's
    Gauss-Newton term, with ``R = sqrt(alpha w) J_len``, and is solved as
    the primal block of ``[[S (x) I_m, R^T], [R, -I]]`` without being
    formed.  The lumped-mass metric takes no term, so ``M`` is the diagonal
    ``diag(mass) (x) I_m`` and is solved by division.  The last point
    evaluated is cached as ``(key, polygon, energy, d_phi rows,
    factorization)``; the dual and the rows of ``R`` share the rows.
    """

    def __init__(self, reference: Polygon, targets: ConstraintTargets | None,
                 config: OptimizerConfig):
        if targets is None:
            targets = ConstraintTargets.from_polygon(reference)
        self.shape = reference.vertices.shape
        self.targets = targets
        self.weights = targets.lengths / targets.total
        self.config = config
        self.quad = config.quad()
        self.metric_kind = _penalty_metric(config)
        # The augmentation couples gradients to the penalty's Gauss-Newton
        # curvature; it hurt the plain lumped-mass metric, so skip it there.
        self.augment = config.metric.family != "l2"
        self._point = None
        self.solve_stats = {"saddle_refinements_max": 0, "saddle_residual_max": 0.0}

    def _evaluate(self, x):
        """The cache entry of ``x``, replacing the cache for a new point."""
        key = np.asarray(x).tobytes()
        if self._point is None or self._point[0] != key:
            poly = Polygon(np.asarray(x, dtype=float).reshape(self.shape))
            self._point = (key, poly, float(energy(poly, self.quad)), d_phi(poly), None)
        return self._point

    def _log_lengths(self, x):
        v = np.asarray(x, dtype=float).reshape(self.shape)
        lengths = np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1)
        return np.log(lengths / self.targets.lengths)

    def value_and_dual(self, x):
        try:
            _, poly, energy_value, rows, _ = self._evaluate(x)
        except KnotOptError:
            return np.inf, None
        r, w = self._log_lengths(x), self.weights
        f = energy_value + self.config.alpha * float(w @ r**2)
        dual = d_energy(poly, self.quad) + 2.0 * self.config.alpha * (
            ConstraintRows(rows.coef).apply_T(w * r)
        )
        return f, dual

    def metric_solve(self, x, dual) -> np.ndarray:
        """Solve ``M g = dual`` with the preconditioning metric at ``x``."""
        key, poly, energy_value, rows, fact = self._evaluate(x)
        if not self.augment:
            return (dual.reshape(self.shape) / rows.mass[:, None]).ravel()
        if fact is None:
            scale = np.sqrt(self.config.alpha * self.weights)
            fact = factorize(assemble_gram(poly, self.metric_kind, self.quad),
                             ConstraintRows(scale[:, None] * rows.coef), compliance=1.0)
            self._point = (key, poly, energy_value, rows, fact)
        g = fact.solve(np.concatenate((dual, np.zeros(fact.n_dual))))[:fact.n_primal]
        _note_solves(self.solve_stats, fact)
        return g

    def step_bound(self, x, d):
        """(step cap, initial trial step) along direction d.

        The contact search extends past tau_max so that an unobstructed
        direction starts at the full cap; both values stay below the
        certified contact-free horizon.
        """
        tau_star = collision.first_collision_step(
            np.asarray(x).reshape(self.shape),
            np.asarray(d).reshape(self.shape),
            1.5 * self.config.tau_max,
        )
        cap = min(self.config.tau_max, tau_star)
        return cap, min(self.config.tau_max,
                        collision.INITIAL_STEP_FACTOR * tau_star)

    # Trace hooks; driver loops stay agnostic of the geometry.
    def trace_energy(self, x) -> float:
        return self._evaluate(x)[2]

    def trace_phi_inf(self, x) -> float:
        # Only the penalized block (edge lengths) is reported here; the
        # barycenter is unconstrained in the penalty methods.
        return float(np.abs(self._log_lengths(x)).max())

    def final_polygon(self, x) -> Polygon:
        return self._evaluate(x)[1]


def weak_wolfe(problem, x, f0, dual0, d, t_init, t_cap, config,
               max_trials: int = 40):
    """Bisection search for a weak Wolfe step, capped by the contact bound.

    Falls back on the best sufficient-decrease point when the curvature
    condition cannot be met within the trial budget.
    """
    slope0 = float(dual0 @ d)
    if not slope0 < 0.0:
        raise LineSearchFailure(f"not a descent direction (slope {slope0:.3e})")
    lo, hi = 0.0, t_cap
    t = min(t_init, t_cap)
    best = None
    trials = 0
    for _ in range(max_trials):
        trials += 1
        f_t, dual_t = problem.value_and_dual(x + t * d)
        if not np.isfinite(f_t) or f_t > f0 + config.wolfe_c1 * t * slope0:
            hi = t
        elif float(dual_t @ d) < config.wolfe_c2 * slope0:
            lo = t
            best = (t, f_t, dual_t)
        else:
            return t, f_t, dual_t, trials
        t = 0.5 * (lo + hi)
        if t <= _TAU_UNDERFLOW or hi - lo <= 1e-12 * max(hi, 1.0):
            break
    if best is not None:
        return best[0], best[1], best[2], trials
    raise LineSearchFailure("no sufficient-decrease step found")


def _penalty_points(problem, x0, step, diagnostics: dict):
    """Accepted iterates of a penalty method, from an admissible start.

    At each iterate the dual is preconditioned by the metric; then
    ``step(x, f, dual, g, diagnostics)`` returns the next
    ``(x, f, dual, step_size, trials)``.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, dual = problem.value_and_dual(x)
    if dual is None:
        raise KnotOptError("initial point is not admissible")
    t = trials = 0
    while True:
        g = problem.metric_solve(x, dual)
        grad_norm = float(np.sqrt(max(dual @ g, 0.0)))
        yield x, (problem.trace_energy(x), grad_norm, t,
                  problem.trace_phi_inf(x), trials, 0)
        x, f, dual, t, trials = step(x, f, dual, g, diagnostics)


def _run_penalty(problem, x0, config, on_iterate, step):
    """Drive a penalty method; the problem's ``solve_stats``, if any, join the diagnostics."""
    diagnostics = _new_diagnostics()
    result = _drive(_penalty_points(problem, x0, step, diagnostics), config,
                    diagnostics, on_iterate, problem.final_polygon)
    result.diagnostics.update(getattr(problem, "solve_stats", {}))
    return result


def lbfgs_loop(problem, x0, config: OptimizerConfig,
               on_iterate=None) -> OptimizeResult:
    """Driver for the two-loop recursion; works on any problem object."""
    memory: list[tuple[np.ndarray, np.ndarray, float]] = []

    def step(x, f, dual, g, diagnostics):
        q = dual.copy()
        alphas = []
        for s, y, rho in reversed(memory):
            a = rho * float(s @ q)
            q = q - a * y
            alphas.append(a)
        r = problem.metric_solve(x, q)
        for (s, y, rho), a in zip(memory, reversed(alphas)):
            b = rho * float(y @ r)
            r = r + (a - b) * s
        d = -r
        if float(dual @ d) >= 0.0:
            d = -g
            memory.clear()

        tau_star, t_init = problem.step_bound(x, d)
        t, f_new, dual_new, trials = weak_wolfe(
            problem, x, f, dual, d, t_init, tau_star, config
        )
        s_vec = t * d
        y_vec = dual_new - dual
        ys = float(y_vec @ s_vec)
        if ys > 1e-12 * np.linalg.norm(y_vec) * np.linalg.norm(s_vec):
            memory.append((s_vec, y_vec, 1.0 / ys))
            if len(memory) > config.lbfgs_history:
                memory.pop(0)
        return x + s_vec, f_new, dual_new, t, trials

    return _run_penalty(problem, x0, config, on_iterate, step)


def run_lbfgs(polygon: Polygon, config: OptimizerConfig,
              targets: ConstraintTargets | None = None,
              on_iterate=None) -> OptimizeResult:
    """Limited-memory quasi-Newton on the penalized objective.

    The two-loop recursion is seeded with the inverse of the metric at the
    current iterate instead of a scalar initial Hessian guess.
    """
    problem = PenaltyProblem(polygon, targets, config)
    return lbfgs_loop(problem, polygon.vertices.ravel(), config, on_iterate)


def pr_plus_direction(g, dual, g_prev, dual_prev, d_prev):
    """Conjugate direction with the update coefficient clamped at zero.

    Returns ``(direction, beta)``; a non-positive raw coefficient or a
    non-descent combination falls back to the preconditioned steepest
    descent direction ``-g``.
    """
    beta = max(0.0, float(dual @ (g - g_prev)) / float(dual_prev @ g_prev))
    d = -g + beta * d_prev
    if float(dual @ d) >= 0.0:
        return -g, 0.0
    return d, beta


def run_ncg_pr_plus(polygon: Polygon, config: OptimizerConfig,
                    targets: ConstraintTargets | None = None,
                    on_iterate=None) -> OptimizeResult:
    """Nonlinear conjugate gradient with the clamped PR update.

    A negative raw update coefficient resets the direction to the
    preconditioned steepest descent direction.
    """
    problem = PenaltyProblem(polygon, targets, config)
    previous = None  # (g, dual, d) of the last step

    def step(x, f, dual, g, diagnostics):
        nonlocal previous
        d = -g if previous is None else pr_plus_direction(g, dual, *previous)[0]
        tau_star, t_init = problem.step_bound(x, d)
        t, f_new, dual_new, trials = weak_wolfe(
            problem, x, f, dual, d, t_init, tau_star, config
        )
        previous = (g, dual, d)
        return x + t * d, f_new, dual_new, t, trials

    return _run_penalty(problem, polygon.vertices.ravel(), config, on_iterate,
                        step)


def run_nesterov(polygon: Polygon, config: OptimizerConfig,
                 targets: ConstraintTargets | None = None,
                 on_iterate=None) -> OptimizeResult:
    """Accelerated gradient with collision-truncated extrapolation.

    Momentum resets to zero whenever the objective increases; both the
    look-ahead move and the gradient step are bounded by collision
    detection.
    """
    problem = PenaltyProblem(polygon, targets, config)
    x_prev = polygon.vertices.ravel()
    t_seq = 1.0

    def step(x, f, dual, g, diagnostics):
        nonlocal x_prev, t_seq
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_seq**2))
        mu = (t_seq - 1.0) / t_next

        # Look-ahead point, truncated so the extrapolation cannot cross a
        # self-contact.
        delta = mu * (x - x_prev)
        y = x
        if np.linalg.norm(delta) > 0.0:
            scale = min(1.0, collision.INITIAL_STEP_FACTOR *
                        collision.first_collision_step(
                            x.reshape(problem.shape),
                            delta.reshape(problem.shape), 1.0))
            y = x + scale * delta
        f_y, dual_y = problem.value_and_dual(y)
        for _ in range(60):
            if dual_y is not None:
                break
            y = 0.5 * (x + y)
            f_y, dual_y = problem.value_and_dual(y)
        if dual_y is None:
            raise LineSearchFailure("no admissible look-ahead point")

        d = -problem.metric_solve(y, dual_y)
        tau_star, t_init = problem.step_bound(y, d)
        t, f_new, dual_new, trials = weak_wolfe(
            problem, y, f_y, dual_y, d, t_init, tau_star, config
        )
        x_prev = x
        if f_new > f:
            t_seq = 1.0
            diagnostics["momentum_resets"] += 1
        else:
            t_seq = t_next
        return y + t * d, f_new, dual_new, t, trials

    return _run_penalty(problem, polygon.vertices.ravel(), config, on_iterate,
                        step)


# ---------------------------------------------------------------------------
# Trust region over a low-dimensional subspace


def solve_trust_region_subproblem(hess: np.ndarray, grad: np.ndarray,
                                  radius: float) -> np.ndarray:
    """Exact minimizer of ``g.z + z.H z / 2`` on a small Euclidean ball."""
    w, q = np.linalg.eigh(hess)
    gq = q.T @ grad

    if w.min() > 0.0:
        z = -gq / w
        if np.linalg.norm(z) <= radius:
            return q @ z

    lam0 = max(0.0, -float(w.min()))

    def norm_at(lam):
        denom = w + lam
        safe = np.abs(denom) > 1e-300
        return np.linalg.norm(np.where(safe, gq / np.where(safe, denom, 1.0), 0.0))

    # Hard case: no gradient component on the lowest eigenspace and the
    # limiting solution lies inside the ball; pad along that eigenvector.
    degenerate = np.abs(w + lam0) <= 1e-12 * max(1.0, float(np.abs(w).max()))
    if lam0 > 0.0 and np.all(
        np.abs(gq[degenerate]) <= 1e-12 * max(1.0, float(np.linalg.norm(gq)))
    ):
        denom = np.where(degenerate, 1.0, w + lam0)
        z = np.where(degenerate, 0.0, -gq / denom)
        miss = radius**2 - float(z @ z)
        if miss >= 0.0:
            direction = np.zeros_like(gq)
            direction[int(np.argmax(degenerate))] = 1.0
            return q @ (z + np.sqrt(miss) * direction)

    lo = lam0
    hi = lam0 + max(1.0, float(np.linalg.norm(gq)) / radius)
    while norm_at(hi) > radius:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if norm_at(mid) > radius:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * max(1.0, hi):
            break
    lam = hi
    denom = w + lam
    z = -gq / np.where(np.abs(denom) > 1e-300, denom, 1e-300)
    norm = float(np.linalg.norm(z))
    if norm > radius > 0.0:
        z *= radius / norm
    return q @ z


def update_trust_radius(radius: float, ratio: float, hit_boundary: bool,
                        config: OptimizerConfig) -> float:
    """Radius rule: expand on convincing boundary steps, shrink on poor ones."""
    if ratio > config.tr_ratio_high and hit_boundary:
        return radius * config.tr_expand
    if ratio < config.tr_ratio_low:
        return radius * config.tr_shrink
    return radius


def _gram_orthonormalize(vectors, gram, drop_tol=1e-10):
    """Modified Gram-Schmidt in the metric inner product."""
    basis = []
    ref = None
    for v in vectors:
        if v is None:
            continue
        u = np.asarray(v, dtype=float).copy()
        for _ in range(2):
            for b in basis:
                u = u - float(b @ gram.apply(u)) * b
        norm = float(np.sqrt(max(u @ gram.apply(u), 0.0)))
        if ref is None:
            ref = norm
        if norm > drop_tol * max(ref, 1.0):
            basis.append(u / norm)
    return basis


def run_trust_region(polygon: Polygon, config: OptimizerConfig,
                     targets: ConstraintTargets | None = None,
                     on_iterate=None) -> OptimizeResult:
    """Subspace trust region: gradient, momentum, and a gated Newton direction.

    The model is minimized exactly inside a metric ball over the span of
    the current projected gradient, the previous gradient projected onto
    the current tangent space, and (once the gradient is short enough) the
    projected Newton direction.  Candidates are restored to feasibility
    before the acceptance ratio is evaluated.
    """
    quad = config.quad()
    radius = config.tr_radius0
    prev_grad = newton_gate = None

    def step(state, energy_value, targets, diagnostics):
        nonlocal radius, prev_grad, newton_gate
        if newton_gate is None:
            newton_gate = config.tr_newton_gate * state.grad_norm
        hess = d2_energy(state.polygon, quad)
        candidates = [state.grad]
        if prev_grad is not None:
            candidates.append(project_tangent(state.fact, prev_grad))
        if state.grad_norm < newton_gate:
            try:
                newton_fact = factorize(hess, state.fact.jacobian)
                newton_dir, _ = projected_gradient(newton_fact, -state.eta)
                candidates.append(newton_dir)
                diagnostics["newton_directions"] += 1
            except SingularSystem:
                pass
        basis = _gram_orthonormalize(candidates, state.gram)
        prev_grad = state.grad
        if not basis:
            return None
        bmat = np.column_stack(basis)
        grad_sub = bmat.T @ state.eta
        hess_sub = bmat.T @ hess @ bmat

        backtracks = 0
        vertices = state.polygon.vertices
        while radius > 1e-12 * config.tr_radius0:
            z = solve_trust_region_subproblem(hess_sub, grad_sub, radius)
            v = bmat @ z
            if np.linalg.norm(v) == 0.0:
                break
            tau_star = collision.first_collision_step(
                vertices, v.reshape(vertices.shape), 1.0
            )
            if tau_star < 1.0:
                z = z * (collision.INITIAL_STEP_FACTOR * tau_star)
                v = bmat @ z
            predicted = -(float(grad_sub @ z) + 0.5 * float(z @ hess_sub @ z))
            if predicted <= 0.0:
                radius *= config.tr_shrink
                backtracks += 1
                continue
            try:
                candidate, newton_iters = _restore_to_polygon(
                    vertices + v.reshape(vertices.shape), targets, state.fact,
                    config,
                )
                trial_energy = float(energy(candidate, quad))
            except KnotOptError:
                radius *= config.tr_shrink
                backtracks += 1
                continue
            ratio = (energy_value - trial_energy) / predicted
            if ratio >= config.tr_accept:
                radius = update_trust_radius(
                    radius, ratio, np.linalg.norm(z) >= 0.99 * radius, config
                )
                return StepOutcome(candidate, float(np.linalg.norm(z)),
                                   trial_energy, backtracks, newton_iters)
            radius = update_trust_radius(radius, ratio, False, config)
            backtracks += 1
        raise LineSearchFailure(f"no acceptable step after {backtracks} trials")

    return _run_feasible(polygon, config, targets, on_iterate,
                         _feasible_metric(config), step)


# ---------------------------------------------------------------------------


_RUNNERS = {
    "projgd": run_projected_gd,
    "implicit_euler_l2": run_implicit_euler_l2,
    "trust_region": run_trust_region,
    "ncg": run_ncg_pr_plus,
    "lbfgs": run_lbfgs,
    "nesterov": run_nesterov,
}


def run(polygon: Polygon, config: OptimizerConfig,
        targets: ConstraintTargets | None = None,
        on_iterate=None) -> OptimizeResult:
    """Run the optimizer named by ``config.method``."""
    return _RUNNERS[config.method](polygon, config, targets, on_iterate)
