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
formed.  The metric itself is the feasible methods' Gram: every Gram of
``assemble_gram`` is definite on the constant fields, which no constraint
fixes here.  The rows are always the current point's.  Nonlinear CG and
Nesterov take the current point's metric too; L-BFGS keeps the first
point's metric and its inverse for the whole run, so each later point
factorizes only the Schur complement of its rows (a fixed seed for the
two-loop recursion, whose curvature pairs supply what it lacks).  Steps use
a weak Wolfe line search truncated by collision detection; Nesterov's
momentum restarts whenever its look-ahead step would raise the objective.

``run`` is the one entry point, and ``config.method`` picks the method.
Each method is a step builder in ``_STEPS``: it adds its own keys to the
run's diagnostics and returns a step function with its own memory.  ``run``
picks the family and builds the shared diagnostics and the family's
generator of accepted iterates, which calls the step.  One loop,
``_drive``, records the trace, calls ``on_iterate`` and decides the status:

  * ``converged``: the gradient norm reached the tolerance;
  * ``max_iter``: ``max_iter`` steps were taken;
  * ``budget``: the wall-clock budget ran out;
  * ``linesearch_failure``: no acceptable step was found;
  * ``numerical_failure``: any other package error after the first trace
    row.  The partial trace and the polygon of the last row are kept, and
    the exception's class name is stored in ``diagnostics["error"]``.

An error before the first trace row raises.  All methods are
deterministic: identical configuration and input produce an identical
iterate sequence and trace (wall-clock columns aside).

Buffers: ``_feasible_points`` and ``PenaltyProblem``, the two places that
replace an iterate, retire the dead iterate's factorization
(``saddle._retire``), so the next Gram and factorization are built in the
N x N arrays that it owned.  L-BFGS's kept Gram and inverse are never
retired: from each of its points, the first included, only the Schur factor
is handed on.  ``run`` frees the retired arrays, and with its problem
the kept metric, when it returns, so no N x N array outlives it.

``OptimizerConfig`` holds only what a caller chooses.  The step control is
fixed by module constants: ``ARMIJO_C``, ``BACKTRACK_FACTOR`` and
``TAU_MAX`` for the Armijo search and implicit Euler, ``WOLFE_C1``,
``WOLFE_C2`` and ``LBFGS_HISTORY`` for the penalty methods, the ``TR_*``
radius rule (from a first radius that the first model sets) and the floor
``TR_CG_TOL`` of the trust region's CG forcing term,
``IMPLICIT_MAX_NEWTON`` and ``IMPLICIT_NEWTON_TOL`` for implicit Euler's
Newton loop, the cap ``KRYLOV_MAX_ITER`` of the trust region's CG and of
implicit Euler's GMRES, and ``GRAD_ABS_TOL``, the absolute floor of the
gradient stop test.
Restoration runs with the defaults of :func:`restore_feasibility`.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from . import collision
from .constraint import (ConstraintRows, ConstraintTargets, d_phi, phi,
                         restore_feasibility)
from .curve import Polygon
from .energy import QuadratureRule, _release, d_energy, energy, hessian
from .errors import KnotOptError, LineSearchFailure, NewtonInnerFailure
from .metric import METRICS, GramOperator, assemble_gram
from .saddle import SOLVE_TOL, _retire, factorize, projected_gradient

FEASIBLE_METHODS = ("projgd", "implicit_euler_l2", "trust_region")
PENALTY_METHODS = ("ncg", "lbfgs", "nesterov")
METHODS = FEASIBLE_METHODS + PENALTY_METHODS

_TAU_UNDERFLOW = 1e-14
GRAD_ABS_TOL = 1e-9      # absolute gradient floor for near-stationary input
TAU_MAX = 1.0            # largest trial step, and implicit Euler's largest dt
ARMIJO_C = 0.5
BACKTRACK_FACTOR = 0.5
WOLFE_C1 = 1e-4
WOLFE_C2 = 0.9
WOLFE_MAX_TRIALS = 40
LBFGS_HISTORY = 30
TR_EXPAND = 2.0
TR_SHRINK = 0.25
TR_ACCEPT = 0.01
TR_RATIO_HIGH = 0.75
TR_RATIO_LOW = 0.25
TR_CG_TOL = 1e-3         # floor of the trust region's CG forcing term
KRYLOV_MAX_ITER = 50     # CG iterations per path, GMRES's per Newton system
IMPLICIT_MAX_NEWTON = 20
IMPLICIT_NEWTON_TOL = 1e-9  # Newton residual, relative to the warm start's

STEP_LIMITS = ("collision", "restoration", "invalid", "armijo")
IMPLICIT_STEP_LIMITS = ("newton",) + STEP_LIMITS
TR_STEP_LIMITS = ("collision", "restoration", "invalid", "ratio")
WOLFE_STEP_LIMITS = ("collision", "invalid", "armijo", "curvature")


@dataclass(frozen=True)
class OptimizerConfig:
    method: str = "projgd"
    metric: str = "w32"
    alpha: float = 1e3
    max_iter: int = 500
    grad_tol: float = 1e-4          # relative to the initial gradient norm
    quad_k: int = 1
    time_budget_s: float | None = None

    def quad(self) -> QuadratureRule:
        return QuadratureRule.gauss(self.quad_k)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if not (np.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError("alpha must be positive and finite")
        if not self.grad_tol >= 0.0:
            raise ValueError("grad_tol must be non-negative")
        if self.time_budget_s is not None and not self.time_budget_s >= 0.0:
            raise ValueError("time_budget_s must be non-negative")
        if not isinstance(self.quad_k, (int, np.integer)) or self.quad_k < 1:
            raise ValueError("quad_k must be an integer, at least 1")
        if not isinstance(self.max_iter, (int, np.integer)) or self.max_iter < 0:
            raise ValueError("max_iter must be a non-negative integer")


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


def _drive(points, config: OptimizerConfig, diagnostics: dict, on_iterate) -> OptimizeResult:
    """The loop shared by every method.

    ``points`` yields ``(polygon, row)`` for each accepted iterate, ``row``
    holding the trace columns after ``time_s``; pulling the next pair takes
    one step.
    """
    t0 = time.perf_counter()
    trace: list[TraceRecord] = []
    polygon = None
    status = "converged"
    try:
        for iteration, (polygon, row) in enumerate(points):
            energy_value, grad_norm, step, phi_inf, backtracks, newton_iters = row
            trace.append(TraceRecord(
                iteration, time.perf_counter() - t0, float(energy_value),
                float(grad_norm), float(step), float(phi_inf),
                int(backtracks), int(newton_iters),
            ))
            if on_iterate is not None:
                on_iterate(iteration, polygon)
            if grad_norm <= max(config.grad_tol * trace[0].grad_norm,
                                GRAD_ABS_TOL):
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
    return OptimizeResult(polygon, trace, status, diagnostics)


# ---------------------------------------------------------------------------
# Feasible machinery


@dataclass
class _FeasibleState:
    polygon: Polygon
    fact: object
    eta: np.ndarray
    grad: np.ndarray
    lam: np.ndarray
    grad_norm: float


def _prepare_state(polygon: Polygon, metric: str,
                   quad: QuadratureRule) -> _FeasibleState:
    fact = factorize(assemble_gram(polygon, metric, quad), d_phi(polygon))
    eta = d_energy(polygon, quad)
    grad, lam = projected_gradient(fact, eta)
    grad_norm = float(np.sqrt(max(eta @ grad, 0.0)))
    return _FeasibleState(polygon, fact, eta, grad, lam, grad_norm)


def _restored_trial(vertices, targets, fact, quad):
    """Restore, validate and evaluate a trial point.

    Returns ``(None, (polygon, energy, restoration iterations))``, or
    ``(cause, None)`` when the trial fails: ``restoration`` if restoration
    failed, ``invalid`` for a self-intersection, a degenerate edge or
    coincident points.
    """
    try:
        restored, iters = restore_feasibility(vertices, targets, fact)
    except KnotOptError:
        return "restoration", None
    try:
        polygon = Polygon(restored)
        return None, (polygon, float(energy(polygon, quad)), iters)
    except KnotOptError:
        return "invalid", None


def _feasible_points(polygon: Polygon, targets: ConstraintTargets,
                     config: OptimizerConfig, metric: str, step,
                     diagnostics: dict):
    """Accepted iterates of a constraint-preserving method.

    An infeasible input is first restored onto the constraint set.  At
    each iterate the metric, the saddle factorization and the projected
    gradient are rebuilt, then ``step(state, energy, targets)`` returns the
    next :class:`StepOutcome`.  The largest refinement count and final
    relative residual of the solves on these factorizations are kept in
    ``diagnostics`` as ``saddle_refinements_max`` and ``saddle_residual_max``.
    """
    quad = config.quad()
    if not phi(polygon, targets).is_feasible(targets.total):
        fact = factorize(assemble_gram(polygon, metric, quad), d_phi(polygon))
        restored, _ = restore_feasibility(polygon.vertices, targets, fact,
                                          max_iter=20)
        _note_solves(diagnostics, fact)
        _retire(fact)
        polygon = Polygon(restored)
    outcome = StepOutcome(polygon, 0.0, float(energy(polygon, quad)), 0, 0)
    while True:
        polygon = outcome.polygon
        state = _prepare_state(polygon, metric, quad)
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
            outcome = step(state, outcome.energy, targets)
        finally:
            _note_solves(diagnostics, state.fact)
        _retire(state.fact)


def _note_solves(diagnostics: dict, fact) -> None:
    """Fold a projection factorization's solve statistics into diagnostics."""
    diagnostics["saddle_refinements_max"] = max(
        diagnostics["saddle_refinements_max"], fact.max_refinements)
    diagnostics["saddle_residual_max"] = max(
        diagnostics["saddle_residual_max"], fact.max_residual)


def armijo_step(polygon: Polygon, direction: np.ndarray, fact, targets, *,
                quad: QuadratureRule, energy_value: float, slope: float,
                limits: dict) -> StepOutcome:
    """Collision-bounded backtracking with feasibility restoration.

    Starts from two thirds of the first possible contact step, shrinks on
    restoration failure, self-intersection, or insufficient decrease, and
    returns the first trial satisfying
    ``E(Q) <= E(P) + ARMIJO_C * tau * slope`` (``energy_value`` is ``E(P)``,
    ``slope`` that of ``E`` along ``direction``), cutting ``tau`` by
    ``BACKTRACK_FACTOR`` per trial.  ``limits`` counts the
    ``STEP_LIMITS``: ``collision`` if the contact bound cut the first trial
    below ``TAU_MAX``, then per cut trial ``restoration`` (it failed),
    ``invalid`` (self-intersection, degenerate edge, coincident points) or
    ``armijo`` (insufficient decrease).
    """
    u = np.asarray(direction, dtype=float).ravel()
    if not slope < 0.0:
        raise ValueError(f"direction is not a descent direction (slope {slope:.3e})")

    shape = polygon.vertices.shape
    tau0 = collision.step_bounds(polygon.vertices, u.reshape(shape), TAU_MAX)[1]
    limits["collision"] += int(tau0 < TAU_MAX)
    tau = tau0
    backtracks = 0
    while tau > _TAU_UNDERFLOW * tau0:
        cause, trial = _restored_trial(polygon.vertices + tau * u.reshape(shape),
                                       targets, fact, quad)
        if cause is None:
            candidate, trial_energy, newton_iters = trial
            if trial_energy <= energy_value + ARMIJO_C * tau * slope:
                return StepOutcome(candidate, tau, trial_energy, backtracks,
                                   newton_iters)
            cause = "armijo"
        limits[cause] += 1
        tau *= BACKTRACK_FACTOR
        backtracks += 1
    raise LineSearchFailure(
        f"step underflow below {_TAU_UNDERFLOW:.0e} * {tau0:.3e}"
    )


def _projected_gd(config: OptimizerConfig, diagnostics: dict):
    """Explicit projected gradient flow in the configured metric.

    ``diagnostics["step_limits"]`` sums the ``armijo_step`` limits.
    """
    quad = config.quad()
    limits = diagnostics["step_limits"] = dict.fromkeys(STEP_LIMITS, 0)

    def step(state, energy_value, targets):
        return armijo_step(
            state.polygon, -state.grad, state.fact, targets, quad=quad,
            energy_value=energy_value, slope=-state.grad_norm**2, limits=limits,
        )

    return config.metric, step


# ---------------------------------------------------------------------------
# Implicit Euler for the lumped-mass flow


def implicit_step(state: _FeasibleState, dt: float, quad: QuadratureRule,
                  diagnostics: dict):
    """Solve the backward step equation on the base tangent space.

    Finds ``v`` with ``G v / dt + DE(P + v) + J^T lam = 0`` and ``J v = 0``
    by Newton's method from the state's explicit step ``(-dt grad, -lam)``.
    Each Newton system ``[[G / dt + H, J^T], [J, 0]]``, which may be
    indefinite, gets one GMRES cycle (Saad & Schultz 1986) of at most
    ``KRYLOV_MAX_ITER`` iterations on the trial's
    :func:`~knotopt.energy.hessian` products, preconditioned by the saddle
    factorization of ``G / dt`` plus the W^{3/2} metric at ``P`` (Gould,
    Hribar & Nocedal 2001).  Newton stops once the residual falls to
    ``IMPLICIT_NEWTON_TOL`` times the warm start's.  The largest GMRES
    count goes to ``diagnostics["gmres_iters_max"]``.  Returns ``(v,
    inner_iterations)``.
    """
    from scipy.sparse.linalg import LinearOperator, gmres

    gram, jac = state.fact.gram, state.fact.jacobian
    v = -dt * state.grad
    lam = -state.lam
    vertices = state.polygon.vertices
    w32 = assemble_gram(state.polygon, "w32", quad).scalar
    fact = factorize(GramOperator(gram.scalar / dt + w32, gram.dim), jac)
    size = v.size + jac.shape[0]
    precondition = LinearOperator((size, size), matvec=fact.solve)

    def residual(v, lam, what):
        try:
            trial = Polygon(vertices + v.reshape(vertices.shape), validate=False)
            r1 = gram.apply(v) / dt + d_energy(trial, quad) + jac.apply_T(lam)
            return np.concatenate((r1, jac.apply(v))), trial
        except KnotOptError as exc:
            raise NewtonInnerFailure(f"{what} left the admissible set") from exc

    res, trial = residual(v, lam, "warm start")
    res_norm0 = max(np.linalg.norm(res), np.finfo(float).tiny)
    stall = 0
    for it in range(1, IMPLICIT_MAX_NEWTON + 1):
        hess = hessian(trial, quad)

        def newton_block(x):
            u = x[:v.size]
            hu = hess(u.reshape(1, *vertices.shape)).ravel() + gram.apply(u) / dt
            return np.concatenate((hu + jac.apply_T(x[v.size:]), jac.apply(u)))

        # GMRES's info is not checked: it judges the preconditioned
        # residual, and the Newton residual below judges every update.
        residuals = []
        delta, _ = gmres(LinearOperator((size, size), matvec=newton_block), -res,
                         rtol=SOLVE_TOL, restart=KRYLOV_MAX_ITER, maxiter=1,
                         M=precondition, callback=residuals.append,
                         callback_type="pr_norm")
        diagnostics["gmres_iters_max"] = max(diagnostics["gmres_iters_max"],
                                             len(residuals))
        del hess
        v, lam = v + delta[:v.size], lam + delta[v.size:]
        res, trial = residual(v, lam, "iterate")
        rel = np.linalg.norm(res) / res_norm0
        if rel <= IMPLICIT_NEWTON_TOL:
            return v, it
        stall = stall + 1 if rel > 0.5 else 0
        if stall >= 3:
            raise NewtonInnerFailure(f"residual stalled at relative {rel:.3e}")
    raise NewtonInnerFailure(f"no convergence in {IMPLICIT_MAX_NEWTON} inner iterations")


def _implicit_euler_l2(config: OptimizerConfig, diagnostics: dict):
    """Backward Euler steps of the lumped-mass flow with Armijo control.

    ``diagnostics["step_limits"]`` counts each cut of ``dt`` by its cause in
    ``IMPLICIT_STEP_LIMITS``: ``newton`` (the inner solve failed or ``v`` is
    no descent step), ``collision`` (the path to P + v meets a contact),
    ``restoration``, ``invalid`` or ``armijo``; they sum to ``backtracks``.
    ``diagnostics["gmres_iters_max"]`` is the largest GMRES count of any
    Newton system, ``KRYLOV_MAX_ITER`` when some system hit the cap.
    """
    quad = config.quad()
    dt = TAU_MAX
    limits = diagnostics["step_limits"] = dict.fromkeys(IMPLICIT_STEP_LIMITS, 0)
    diagnostics["gmres_iters_max"] = 0

    def step(state, energy_value, targets):
        nonlocal dt
        vertices = state.polygon.vertices
        backtracks = 0
        while dt > _TAU_UNDERFLOW * TAU_MAX:
            try:
                v, newton_iters = implicit_step(state, dt, quad, diagnostics)
                slope = float(state.eta @ v)
            except KnotOptError:
                slope = np.nan
            if not slope < 0.0:
                cause = "newton"
            elif collision.step_bounds(vertices, v.reshape(vertices.shape), 1.0)[0] < 1.0:
                cause = "collision"
            else:
                cause, trial = _restored_trial(vertices + v.reshape(vertices.shape),
                                               targets, state.fact, quad)
                if cause is None and trial[1] <= energy_value + ARMIJO_C * slope:
                    candidate, trial_energy, restore_iters = trial
                    outcome = StepOutcome(candidate, dt, trial_energy, backtracks,
                                          newton_iters + restore_iters)
                    dt = min(TAU_MAX, 2.0 * dt)
                    return outcome
                cause = cause or "armijo"
            limits[cause] += 1
            dt *= 0.25
            backtracks += 1
        raise LineSearchFailure(f"time step underflow after {backtracks} cuts")

    return "l2", step


# ---------------------------------------------------------------------------
# Penalty (infeasible) machinery


class PenaltyProblem:
    """Penalized objective with metric-preconditioned gradients.

    The preconditioner ``M = S (x) I_m + R^T R`` adds the penalty's
    Gauss-Newton term, with ``R = sqrt(alpha w) J_len``, and is solved as
    the primal block of ``[[S (x) I_m, R^T], [R, -I]]`` without being
    formed.  ``R`` is always the current point's.  ``S`` is the current
    point's Gram for ``ncg`` and ``nesterov``; ``lbfgs`` keeps the first
    point's ``S`` and its inverse for the whole run, since any fixed
    definite seed serves its two-loop recursion, and at every later point
    factorizes only the Schur complement of ``R``
    (:meth:`~knotopt.saddle.SaddleFactorization.with_rows`).  The
    lumped-mass metric takes no term, so ``M`` is the diagonal
    ``diag(mass) (x) I_m`` and is solved by division.  The last point
    evaluated is cached as ``(key, polygon, energy, d_phi rows,
    factorization)``; the dual and the rows of ``R`` share the rows.
    """

    def __init__(self, reference: Polygon, targets: ConstraintTargets,
                 config: OptimizerConfig):
        self.shape = reference.vertices.shape
        self.targets = targets
        self.weights = targets.lengths / targets.total
        self.config = config
        self.quad = config.quad()
        # The augmentation couples gradients to the penalty's Gauss-Newton
        # curvature; it hurt the plain lumped-mass metric, so skip it there.
        self.augment = config.metric != "l2"
        self._kept = None  # L-BFGS's first factorization
        self._point = None
        self.solve_stats = {"saddle_refinements_max": 0, "saddle_residual_max": 0.0}

    def _evaluate(self, x):
        """The cache entry of ``x``, replacing the cache for a new point."""
        key = np.asarray(x).tobytes()
        if self._point is None or self._point[0] != key:
            poly = Polygon(np.asarray(x, dtype=float).reshape(self.shape))
            point = (key, poly, float(energy(poly, self.quad)), d_phi(poly), None)
            old = None if self._point is None else self._point[4]
            if old is not None:
                # L-BFGS's kept metric and inverse outlive their point;
                # only the Schur factor goes on.
                _retire(old, keep_metric=old is self._kept)
            self._point = point
        return self._point

    def value_and_dual(self, x):
        try:
            _, poly, energy_value, rows, _ = self._evaluate(x)
        except KnotOptError:
            return np.inf, None
        r, w = phi(poly, self.targets).residual, self.weights
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
            penalty_rows = ConstraintRows(scale[:, None] * rows.coef)
            if self._kept is not None:
                fact = self._kept.with_rows(penalty_rows)
            else:
                gram = assemble_gram(poly, self.config.metric, self.quad)
                fact = factorize(gram, penalty_rows, compliance=1.0)
                # A kept metric doubled NCG's iterations on the coils.
                if self.config.method == "lbfgs":
                    self._kept = fact
            self._point = (key, poly, energy_value, rows, fact)
        g = projected_gradient(fact, dual)[0]
        _note_solves(self.solve_stats, fact)
        return g

    def step_bound(self, x, d):
        """(step cap, first trial step) along d; see :func:`collision.step_bounds`."""
        return collision.step_bounds(np.asarray(x).reshape(self.shape),
                                     np.asarray(d).reshape(self.shape), TAU_MAX)

    # Trace hooks; driver loops stay agnostic of the geometry.
    def trace_energy(self, x) -> float:
        return self._evaluate(x)[2]

    def trace_phi_inf(self, x) -> float:
        # Only the penalized block (edge lengths) is reported here; the
        # barycenter is unconstrained in the penalty methods.
        return float(np.abs(phi(self.final_polygon(x), self.targets).residual).max())

    def final_polygon(self, x) -> Polygon:
        return self._evaluate(x)[1]


def weak_wolfe(problem, x, f0, dual0, d, limits):
    """Bisection search for a weak Wolfe step, capped by the contact bound.

    The cap and the first trial come from ``problem.step_bound(x, d)``.
    Sufficient decrease uses ``WOLFE_C1`` and the curvature condition
    ``WOLFE_C2``.

    Falls back on the best sufficient-decrease point when the curvature
    condition cannot be met within ``WOLFE_MAX_TRIALS`` trials.  ``limits``
    counts the ``WOLFE_STEP_LIMITS``: ``collision`` if the contact cap is
    below ``TAU_MAX``, then per rejected trial ``invalid`` (infinite
    objective), ``armijo`` (insufficient decrease) or ``curvature``.
    """
    t_cap, t = problem.step_bound(x, d)
    limits["collision"] += int(t_cap < TAU_MAX)
    slope0 = float(dual0 @ d)
    if not slope0 < 0.0:
        raise LineSearchFailure(f"not a descent direction (slope {slope0:.3e})")
    lo, hi = 0.0, t_cap
    best = None
    trials = 0
    for _ in range(WOLFE_MAX_TRIALS):
        trials += 1
        f_t, dual_t = problem.value_and_dual(x + t * d)
        if not np.isfinite(f_t) or f_t > f0 + WOLFE_C1 * t * slope0:
            hi = t
            limits["armijo" if np.isfinite(f_t) else "invalid"] += 1
        elif float(dual_t @ d) < WOLFE_C2 * slope0:
            lo = t
            best = (t, f_t, dual_t)
            limits["curvature"] += 1
        else:
            return t, f_t, dual_t, trials
        t = 0.5 * (lo + hi)
        if t <= _TAU_UNDERFLOW or hi - lo <= 1e-12 * max(hi, 1.0):
            break
    if best is not None:
        limits["curvature"] -= 1  # the fallback accepts that trial
        return best[0], best[1], best[2], trials
    raise LineSearchFailure("no sufficient-decrease step found")


def _penalty_points(problem, x0, step):
    """Accepted iterates of a penalty method, from an admissible start.

    At each iterate the dual is preconditioned by the metric; then
    ``step(x, f, dual, g)`` returns the next ``(x, f, dual, step_size,
    trials)``.  Each iterate is yielded as its polygon, which the metric
    solve has just put in the problem's point cache.
    """
    x = np.asarray(x0, dtype=float).copy()
    f, dual = problem.value_and_dual(x)
    if dual is None:
        raise KnotOptError("initial point is not admissible")
    t = trials = 0
    while True:
        g = problem.metric_solve(x, dual)
        grad_norm = float(np.sqrt(max(dual @ g, 0.0)))
        yield problem.final_polygon(x), (problem.trace_energy(x), grad_norm, t,
                                         problem.trace_phi_inf(x), trials, 0)
        x, f, dual, t, trials = step(x, f, dual, g)


def _lbfgs(problem, diagnostics: dict):
    """Limited-memory quasi-Newton on the penalized objective.

    The two-loop recursion is seeded with ``problem.metric_solve`` at the
    current iterate instead of a scalar initial Hessian guess; for a
    :class:`PenaltyProblem` that is the first point's metric plus the
    current point's Gauss-Newton term.  It works on any problem object.
    """
    memory: list[tuple[np.ndarray, np.ndarray, float]] = []
    limits = diagnostics["step_limits"] = dict.fromkeys(WOLFE_STEP_LIMITS, 0)

    def step(x, f, dual, g):
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

        t, f_new, dual_new, trials = weak_wolfe(problem, x, f, dual, d, limits)
        s_vec = t * d
        y_vec = dual_new - dual
        ys = float(y_vec @ s_vec)
        if ys > 1e-12 * np.linalg.norm(y_vec) * np.linalg.norm(s_vec):
            memory.append((s_vec, y_vec, 1.0 / ys))
            if len(memory) > LBFGS_HISTORY:
                memory.pop(0)
        return x + s_vec, f_new, dual_new, t, trials

    return step


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


def _ncg_pr_plus(problem, diagnostics: dict):
    """Nonlinear conjugate gradient with the clamped PR update.

    A negative raw update coefficient resets the direction to the
    preconditioned steepest descent direction.
    """
    previous = None  # (g, dual, d) of the last step
    limits = diagnostics["step_limits"] = dict.fromkeys(WOLFE_STEP_LIMITS, 0)

    def step(x, f, dual, g):
        nonlocal previous
        d = -g if previous is None else pr_plus_direction(g, dual, *previous)[0]
        t, f_new, dual_new, trials = weak_wolfe(problem, x, f, dual, d, limits)
        previous = (g, dual, d)
        return x + t * d, f_new, dual_new, t, trials

    return step


def _nesterov(problem, diagnostics: dict):
    """Accelerated gradient with a damped, collision-bounded extrapolation.

    The look-ahead ``y`` takes ``INITIAL_STEP_FACTOR * cap`` of the momentum
    move ``mu (x - x_prev)``, ``cap`` its contact cap from
    ``problem.step_bound``: two thirds of the move even with no contact
    near.  When the Wolfe step from ``y`` ends above ``f(x)``, or ``y`` is
    not admissible, the momentum restarts (a function-value restart,
    O'Donoghue & Candes 2015): it is dropped, ``momentum_resets`` counts
    one, and the step is the plain one from ``x`` along ``-g``.  Its trials
    then include the look-ahead's, the dropped end counted as ``armijo``
    and an inadmissible ``y`` as ``invalid``.
    """
    x_prev = None
    t_seq = 1.0
    limits = diagnostics["step_limits"] = dict.fromkeys(WOLFE_STEP_LIMITS, 0)

    def step(x, f, dual, g):
        nonlocal x_prev, t_seq
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_seq**2))
        # The first step, and the one after a restart, has no momentum.
        delta = 0.0 * x if x_prev is None else (t_seq - 1.0) / t_next * (x - x_prev)
        x_prev, t_seq = x, t_next
        ahead = 0
        if np.linalg.norm(delta) > 0.0:
            cap = problem.step_bound(x, delta)[0]
            y = x + collision.INITIAL_STEP_FACTOR * cap * delta
            f_y, dual_y = problem.value_and_dual(y)
            if dual_y is None:
                limits["invalid"] += 1
                ahead = 1
            else:
                d = -problem.metric_solve(y, dual_y)
                t, f_new, dual_new, ahead = weak_wolfe(problem, y, f_y, dual_y, d, limits)
                if f_new <= f:
                    return y + t * d, f_new, dual_new, t, ahead
                limits["armijo"] += 1
            diagnostics["momentum_resets"] += 1
            x_prev, t_seq = None, 1.0
        t, f_new, dual_new, trials = weak_wolfe(problem, x, f, dual, -g, limits)
        return x - t * g, f_new, dual_new, t, ahead + trials

    return step


# ---------------------------------------------------------------------------
# Trust region along the Steihaug-Toint path


def _crossing(norm, radius: float) -> float:
    """The ``t >= 0`` where a segment's metric norm reaches ``radius``."""
    if radius == np.inf:
        return np.inf
    gap = max(radius**2 - norm[2], 0.0)
    half = 0.5 * norm[1]
    return gap / (half + np.sqrt(half**2 + norm[0] * gap))


def steihaug_path(state, hess, radius: float, tol: float):
    """The Steihaug-Toint path of projected preconditioned CG.

    Runs CG on ``H x + J^T lam = -eta``, ``J x = 0`` from ``x = 0`` with the
    products of ``hess``, the iterate's :func:`~knotopt.energy.hessian`
    operator, and the constraint preconditioner ``[[G, J^T], [J, 0]]``
    (Gould, Hribar & Nocedal 2001): each preconditioned residual is the
    projected gradient of the residual on the iterate's own saddle
    factorization, so the path stays in the constraint kernel, and its
    metric norm grows along it (Steihaug 1983).  The path stops where that
    norm reaches ``radius``, at the first direction of non-positive
    curvature (it then runs on along that direction to ``radius``), once
    the residual's dual norm falls to ``tol`` times the gradient norm, or
    after ``KRYLOV_MAX_ITER`` iterations.  That norm is taken as the metric
    norm of the projected residual, not as its product with the residual:
    the product also carries the multipliers times the rounding of ``J g``,
    which near a stationary point can exceed the tolerance.  Returns
    ``(segments, iterations)``, the iterations being Hessian products.  A segment
    ``(x, p, end, model, norm)`` holds the points ``x + t p``,
    ``0 <= t <= end``, and the coefficients ``(c2, c1, c0)`` of
    ``c2 t^2 + c1 t + c0`` for the model ``m(v) = eta.v + v.H v / 2``,
    which falls along the path, and for the squared metric norm there.
    """
    shape = (1,) + state.polygon.vertices.shape
    x = np.zeros_like(state.eta)
    r, g, rg = state.eta, state.grad, state.grad_norm**2
    p, value, size = -g, 0.0, 0.0
    segments = []
    for it in range(1, KRYLOV_MAX_ITER + 1):
        hp = hess(p.reshape(shape)).ravel()
        gp = state.fact.gram.apply(p)
        curvature = float(p @ hp)
        model = (0.5 * curvature, float(r @ p), value)
        norm = (float(p @ gp), 2.0 * float(x @ gp), size)
        step = rg / curvature if curvature > 0.0 else np.inf
        end = min(step, _crossing(norm, radius))
        segments.append((x, p, end, model, norm))
        if end < step or step == np.inf:
            break
        x, r = x + step * p, r + step * hp
        value, size = np.polyval(model, step), np.polyval(norm, step)
        g, _ = projected_gradient(state.fact, r)
        rg, rg_prev = float(g @ state.fact.gram.apply(g)), rg
        if rg <= (tol * state.grad_norm) ** 2:
            break
        p = -g + (rg / rg_prev) * p
    return segments, it


def path_point(segments, radius: float):
    """The point ``v`` of a Steihaug path at metric norm ``radius``, or its
    end; returns ``(v, m(v), metric norm of v)``."""
    for x, p, end, model, norm in segments:
        t = min(end, _crossing(norm, radius))
        if t < end:
            break
    return x + t * p, np.polyval(model, t), float(np.sqrt(np.polyval(norm, t)))


def update_trust_radius(radius: float, ratio: float, hit_boundary: bool) -> float:
    """Radius rule: expand on convincing boundary steps, shrink on poor ones."""
    if ratio > TR_RATIO_HIGH and hit_boundary:
        return radius * TR_EXPAND
    if ratio < TR_RATIO_LOW:
        return radius * TR_SHRINK
    return radius


def _trust_region(config: OptimizerConfig, diagnostics: dict):
    """Trust region along the Steihaug-Toint path of projected CG.

    Each step is the point of :func:`steihaug_path` at the trust radius, on
    one :func:`~knotopt.energy.hessian` operator per iterate.  CG stops at
    the forcing term ``max(TR_CG_TOL, |g| / |g0|)`` (Eisenstat & Walker
    1996), ``g0`` the first iterate's gradient: the path is short while the
    gradient is long and a Newton step near a minimizer.  The first radius
    is the length of the first CG step, the first model's minimizer along
    the gradient (Sartenaer 1997), or the gradient's metric length where
    the model curves down; later radii follow :func:`update_trust_radius`.
    A rejected trial shrinks the radius to ``TR_SHRINK`` times the shorter
    of the radius and the step tried, and reads the same path again.
    Candidates are restored to feasibility before the acceptance ratio is
    evaluated.

    ``diagnostics["newton_cg_iters_max"]`` is the largest CG count of one
    path, and ``diagnostics["step_limits"]`` counts the
    ``TR_STEP_LIMITS``: trials whose model step the contact bound scaled
    (``collision``), then per cut trial ``restoration`` (it failed),
    ``invalid`` (self-intersection, degenerate edge, coincident points) or
    ``ratio`` (poor acceptance ratio or no predicted decrease).  The cuts
    sum to the trace's ``backtracks``.
    """
    quad = config.quad()
    radius = first_radius = first_grad_norm = None
    limits = diagnostics["step_limits"] = dict.fromkeys(TR_STEP_LIMITS, 0)
    diagnostics["newton_cg_iters_max"] = 0

    def step(state, energy_value, targets):
        nonlocal radius, first_radius, first_grad_norm
        if first_grad_norm is None:
            first_grad_norm = state.grad_norm
        tol = max(TR_CG_TOL, state.grad_norm / first_grad_norm)
        segments, cg_iters = steihaug_path(state, hessian(state.polygon, quad),
                                           np.inf if radius is None else radius, tol)
        diagnostics["newton_cg_iters_max"] = max(
            diagnostics["newton_cg_iters_max"], cg_iters)
        if radius is None:
            # The first segment runs along the gradient: start from the
            # model's minimizer there, or from the gradient's metric length
            # (a unit gradient step) where the model curves down.
            end = segments[0][2]
            radius = first_radius = state.grad_norm * (end if end < np.inf else 1.0)

        vertices = state.polygon.vertices
        backtracks = 0
        while radius > 1e-12 * first_radius:
            v, model, length = path_point(segments, radius)
            cap, scale = collision.step_bounds(vertices, v.reshape(vertices.shape), 1.0)
            if cap < 1.0:
                # The model is quadratic along v.
                slope = float(state.eta @ v)
                v, length = scale * v, scale * length
                model = scale * slope + scale**2 * (model - slope)
                limits["collision"] += 1
            cause = "ratio"
            if model < 0.0:
                cause, trial = _restored_trial(vertices + v.reshape(vertices.shape),
                                               targets, state.fact, quad)
            if cause is None:
                candidate, trial_energy, newton_iters = trial
                ratio = (energy_value - trial_energy) / -model
                if ratio >= TR_ACCEPT:
                    radius = update_trust_radius(radius, ratio,
                                                 length >= 0.99 * radius)
                    return StepOutcome(candidate, length, trial_energy,
                                       backtracks, newton_iters)
                cause = "ratio"
            # Every cut shrinks: a rejected ratio lies below TR_RATIO_LOW.
            radius = TR_SHRINK * min(radius, length)
            limits[cause] += 1
            backtracks += 1
        raise LineSearchFailure(f"no acceptable step after {backtracks} trials")

    return config.metric, step


# ---------------------------------------------------------------------------


# A feasible method's builder takes (config, diagnostics) and returns (metric,
# step); a penalty method's takes (problem, diagnostics) and returns step.
_STEPS = {
    "projgd": _projected_gd,
    "implicit_euler_l2": _implicit_euler_l2,
    "trust_region": _trust_region,
    "ncg": _ncg_pr_plus,
    "lbfgs": _lbfgs,
    "nesterov": _nesterov,
}


def run(polygon: Polygon, config: OptimizerConfig,
        targets: ConstraintTargets | None = None,
        on_iterate=None) -> OptimizeResult:
    """Run the optimizer named by ``config.method`` from ``polygon``.

    ``targets`` defaults to the edge lengths and barycenter of ``polygon``,
    and given targets must have one length per edge (else ``ValueError``);
    ``on_iterate(iteration, polygon)`` is called at every accepted iterate.
    """
    if targets is None:
        targets = ConstraintTargets.from_polygon(polygon)
    elif len(targets.lengths) != polygon.num_vertices:
        raise ValueError(f"{len(targets.lengths)} target lengths for a polygon "
                         f"of {polygon.num_vertices} edges")
    diagnostics = {"max_tangent_defect": 0.0, "momentum_resets": 0}
    build = _STEPS[config.method]
    try:
        if config.method in FEASIBLE_METHODS:
            diagnostics.update(saddle_refinements_max=0, saddle_residual_max=0.0)
            metric, step = build(config, diagnostics)
            points = _feasible_points(polygon, targets, config, metric, step,
                                      diagnostics)
            return _drive(points, config, diagnostics, on_iterate)
        problem = PenaltyProblem(polygon, targets, config)
        points = _penalty_points(problem, polygon.vertices.ravel(),
                                 build(problem, diagnostics))
        result = _drive(points, config, diagnostics, on_iterate)
        result.diagnostics.update(problem.solve_stats)
        return result
    finally:
        _release()
