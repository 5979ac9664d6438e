"""Acceptance suite: one test per criterion, one printed line per criterion.

Each test prints ``ACCEPTANCE <k> PASS/FAIL`` before asserting, so a plain
``pytest -v -s tests/test_acceptance.py`` yields a line-per-criterion
report.  Tolerances are pinned here and calibrated by the oracle runs
documented alongside each test.
"""

import numpy as np
import pytest

import knotopt as ko
from knotopt import cli, optimize
from knotopt.optimize import OptimizerConfig
from conftest import dense, dense_hessian, random_embedded_polygon, seminorm


def _report(number: int, description: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {verdict}: {description} {detail}".rstrip())
    assert ok, f"criterion {number} failed: {description} {detail}"


def test_criterion_01_circle_ground_truth():
    """Regular polygons: energy defect small at N=256 and non-increasing.

    Oracle: the integrand vanishes identically on the round circle; for
    regular polygons the one-node rule evaluates at edge midpoints, which
    lie on a circle whose tangents are the edge directions, so the exact
    defect is zero for every N and the measured defect is pure floating
    point accumulation.  The monotonicity check therefore carries a
    roundoff allowance proportional to the number of accumulated terms; a
    two-node rule (genuine discretization error) is checked for strict
    monotone decrease as corroboration.
    """
    sizes = (32, 64, 128, 256, 512)
    defects = [abs(float(ko.energy(ko.regular_ngon(n))) - 4.0) for n in sizes]
    allowance = [64 * n * np.finfo(float).eps * 4.0 for n in sizes]
    ok_close = defects[sizes.index(256)] <= 0.05
    ok_monotone = all(
        defects[i + 1] <= defects[i] + allowance[i + 1] for i in range(len(sizes) - 1)
    )
    two_node = [
        float(ko.energy(ko.regular_ngon(n), ko.QuadratureRule.gauss(2))) - 4.0
        for n in sizes
    ]
    ok_two_node = all(
        0.0 < two_node[i + 1] < two_node[i] for i in range(len(sizes) - 1)
    )
    _report(1, "circle ground truth", ok_close and ok_monotone and ok_two_node,
            f"(defect at N=256: {defects[3]:.2e})")


def test_criterion_02_square_identity():
    """One-node energy of the unit square is exactly four."""
    value = float(ko.energy(ko.Polygon([(0, 0), (1, 0), (1, 1), (0, 1)])))
    _report(2, "unit square energy == 4.0", value == 4.0, f"(value {value!r})")


def test_criterion_03_derivative_correctness():
    """Analytic first and second derivatives against finite differences.

    The difference oracle is Richardson-extrapolated (fourth order) so its
    truncation error sits well below the certified 1e-6 / 1e-5 bounds even
    on strongly perturbed polygons.
    """

    def energy_at(flat, shape):
        return float(ko.energy(ko.Polygon(flat.reshape(shape), validate=False)))

    def dual_at(flat, shape):
        return ko.d_energy(ko.Polygon(flat.reshape(shape), validate=False))

    def fourth_order(fn, flat, shape, direction, step):
        return (
            8.0 * (fn(flat + step * direction, shape) - fn(flat - step * direction, shape))
            - (fn(flat + 2 * step * direction, shape) - fn(flat - 2 * step * direction, shape))
        ) / (12.0 * step)

    worst_grad = 0.0
    worst_hess = 0.0
    worst_product = 0.0
    for seed in range(20):
        n = 8 + (seed * 5) % 17  # sizes 8..24
        dim = 2 if seed % 2 == 0 else 3
        p = random_embedded_polygon(n, dim=dim, seed=seed)
        step = 1e-5 * p.total_length
        flat = p.vertices.ravel()
        shape = p.vertices.shape
        grad = ko.d_energy(p)
        fd = np.zeros_like(grad)
        for k in range(flat.size):
            basis = np.zeros_like(flat)
            basis[k] = 1.0
            fd[k] = fourth_order(energy_at, flat, shape, basis, step)
        worst_grad = max(worst_grad, np.linalg.norm(grad - fd) / np.linalg.norm(fd))

        rng = np.random.default_rng(seed)
        w = rng.standard_normal(flat.size)
        w /= np.linalg.norm(w)
        hv = dense_hessian(p) @ w
        hv_fd = fourth_order(dual_at, flat, shape, w, step)
        worst_hess = max(worst_hess, np.linalg.norm(hv - hv_fd) / np.linalg.norm(hv_fd))
        hv = ko.hessian(p, ko.MIDPOINT)(w.reshape((1,) + shape)).ravel()
        worst_product = max(worst_product,
                             np.linalg.norm(hv - hv_fd) / np.linalg.norm(hv_fd))
    ok = worst_grad <= 1e-6 and worst_hess <= 1e-5 and worst_product <= 1e-5
    _report(3, "gradient/Hessian vs finite differences", ok,
            f"(grad {worst_grad:.2e}, hess {worst_hess:.2e}, "
            f"product {worst_product:.2e})")


def test_criterion_04_metric_well_posedness():
    """Symmetry, definiteness on the constraint kernel, exact scaling."""
    ok = True
    detail = ""
    for seed in range(10):
        n = 12 + (seed * 3) % 21  # sizes 12..32
        p = random_embedded_polygon(n, dim=2 if seed % 2 else 3, seed=100 + seed)
        g = dense(ko.assemble_gram(p, ko.W32_GEOMETRIC))
        sym = np.abs(g - g.T).max()
        if sym > 1e-13 * np.abs(g).max():
            ok, detail = False, f"(symmetry defect {sym:.2e} at seed {seed})"
            break
        jac = dense(ko.d_phi(p))
        _, _, vt = np.linalg.svd(jac)
        kernel = vt[jac.shape[0]:].T
        min_eig = np.linalg.eigvalsh(kernel.T @ g @ kernel).min()
        if min_eig <= 0.0:
            ok, detail = False, f"(projected eigenvalue {min_eig:.2e})"
            break
        g1 = seminorm(p, ko.W32_PURE)
        g2 = seminorm(ko.Polygon(2.0 * p.vertices), ko.W32_PURE)
        if not np.array_equal(4.0 * dense(g2), dense(g1)):
            ok, detail = False, "(principal scaling not exact)"
            break
    _report(4, "metric symmetry/definiteness/scaling", ok, detail)


def test_criterion_05_kkt_contracts():
    """Projection, pseudoinverse, and projector solve contracts."""
    rng = np.random.default_rng(0)
    p = random_embedded_polygon(16, dim=3, seed=200)
    gram = ko.assemble_gram(p, ko.W32_GEOMETRIC)
    fact = ko.factorize(gram, ko.d_phi(p))
    jac = dense(ko.d_phi(p))
    eta = ko.d_energy(p)
    u, _ = ko.projected_gradient(fact, eta)
    ok_tangent = np.linalg.norm(jac @ u) <= 1e-10 * np.linalg.norm(u)

    p6 = random_embedded_polygon(6, seed=201)
    g6 = ko.assemble_gram(p6, ko.W32_GEOMETRIC)
    j6 = dense(ko.d_phi(p6))
    u6, _ = ko.projected_gradient(ko.factorize(g6, ko.d_phi(p6)), ko.d_energy(p6))
    ginv = np.linalg.inv(dense(g6))
    schur = j6 @ ginv @ j6.T
    ref = ginv @ ko.d_energy(p6) - ginv @ j6.T @ np.linalg.solve(
        schur, j6 @ ginv @ ko.d_energy(p6)
    )
    ok_schur = np.linalg.norm(u6 - ref) <= 1e-9 * np.linalg.norm(ref)

    w = rng.standard_normal(fact.n_primal)
    once = ko.project_tangent(fact, w)
    twice = ko.project_tangent(fact, once)
    ok_idem = np.linalg.norm(twice - once) <= 1e-10 * np.linalg.norm(once)

    xi = jac @ rng.standard_normal(fact.n_primal)
    upi = ko.pseudoinverse_apply(fact, xi)
    ok_pinv = np.linalg.norm(jac @ upi - xi) <= 1e-10 * np.linalg.norm(xi)

    ok = ok_tangent and ok_schur and ok_idem and ok_pinv
    _report(5, "KKT solve contracts", ok,
            f"(tangent {ok_tangent}, schur {ok_schur}, idempotent {ok_idem}, "
            f"pinv {ok_pinv})")


def test_criterion_06_feasibility_along_runs():
    """Constraint violation and restoration budget on the test corpus."""
    corpus = [
        ko.perturbed_circle(32),
        ko.coiled_unknot(48, windings=2),
        ko.torus_knot(2, 3, 60),
    ]
    ok = True
    detail = ""
    for polygon in corpus:
        result = ko.run(polygon, OptimizerConfig(max_iter=20))
        if not all(r.phi_inf <= 1e-8 for r in result.trace):
            ok, detail = False, "(violation above 1e-8)"
            break
        if not all(r.newton_iters <= 5 for r in result.trace):
            ok, detail = False, "(restoration above 5 iterations)"
            break
        targets = ko.ConstraintTargets(polygon.edge_lengths.copy())
        final_state = ko.phi(result.polygon, targets)
        if final_state.max_violation(targets.total) > 1e-8:
            ok, detail = False, "(final point infeasible)"
            break
    _report(6, "feasibility after accepted iterations", ok, detail)


def test_criterion_07_descent_and_isotopy_audit():
    """Strict descent with zero collision events on coil and trefoil."""
    coil = ko.coiled_unknot(96, windings=4)
    coil_snaps = []
    coil_run = ko.run(
        coil, OptimizerConfig(max_iter=1000),
        on_iterate=lambda k, poly: coil_snaps.append(poly),
    )
    coil_energies = [r.energy for r in coil_run.trace]
    coil_hits = [k for k, r in enumerate(coil_run.trace) if r.energy <= 4.1]
    coil_collisions = sum(
        1 for poly in coil_snaps
        if ko.proximity_report(poly.vertices).min_distance <= 0.0
    )

    trefoil = ko.torus_knot(2, 3, 120)
    tre_snaps = []
    tre_run = ko.run(
        trefoil, OptimizerConfig(max_iter=600, grad_tol=1e-3),
        on_iterate=lambda k, poly: tre_snaps.append(poly),
    )
    tre_energies = [r.energy for r in tre_run.trace]
    tre_collisions = sum(
        1 for poly in tre_snaps
        if ko.proximity_report(poly.vertices).min_distance <= 0.0
    )

    ok = (
        all(b < a for a, b in zip(coil_energies, coil_energies[1:]))
        and bool(coil_hits) and coil_hits[0] <= 1000
        and coil_collisions == 0
        and all(b < a for a, b in zip(tre_energies, tre_energies[1:]))
        and tre_run.final_energy > 4.5
        and tre_collisions == 0
    )
    _report(7, "descent + isotopy audit", ok,
            f"(coil reaches 4.1 at iteration {coil_hits[0] if coil_hits else None}, "
            f"trefoil energy {tre_run.final_energy:.2f})")


def test_criterion_08_mesh_insensitivity(monkeypatch):
    """Iteration counts stay flat under refinement; lumped-mass steps shrink
    like a mesh-dependent power between two and four."""
    iterations = {}
    for n in (64, 256):
        result = ko.run(ko.perturbed_circle(n), OptimizerConfig(max_iter=120))
        iterations[n] = next(
            r.iteration for r in result.trace if r.energy <= 4.05
        )
    hi, lo = max(iterations.values()), min(iterations.values())
    ok_flat = hi / lo < 2.0

    medians = {}
    monkeypatch.setattr(optimize, "GRAD_ABS_TOL", 1e-16)
    for n in (48, 96, 192):
        result = ko.run(
            ko.perturbed_circle(n),
            OptimizerConfig(metric=ko.L2, max_iter=30, grad_tol=1e-14),
        )
        medians[n] = np.median([r.step_size for r in result.trace[1:]])
    h = np.array([1.0 / n for n in (48, 96, 192)])
    tau = np.array([medians[n] for n in (48, 96, 192)])
    slope = np.polyfit(np.log(h), np.log(tau), 1)[0]
    ok_slope = 2.0 <= slope <= 4.0
    _report(8, "mesh insensitivity", ok_flat and ok_slope,
            f"(iterations {iterations}, step slope {slope:.2f})")


def test_criterion_09_benchmark_ordering(tmp_path):
    """Equal wall-clock budgets: the geometric metric beats the lumped
    mass metric for every method on the coiled unknot."""
    curve_file = tmp_path / "coil192.txt"
    cli.write_curve(curve_file, ko.coiled_unknot(192, windings=4))
    out_dir = tmp_path / "bench"
    code = cli.main([
        "bench", "--inputs", str(curve_file),
        "--methods", "projgd,lbfgs,ncg", "--metrics", "w32,l2",
        "--budget-s", "6", "--out-dir", str(out_dir),
    ])
    assert code == 0
    rows = (out_dir / "summary.csv").read_text().strip().splitlines()[1:]
    finals = {}
    for row in rows:
        cell, energy_str, *_ = row.split(",")
        finals[cell] = float(energy_str)
    ok = True
    pairs = {}
    for method in ("projgd", "lbfgs", "ncg"):
        w32 = finals[f"coil192__{method}__w32"]
        l2 = finals[f"coil192__{method}__l2"]
        pairs[method] = (w32, l2)
        ok = ok and w32 < l2
    _report(9, "benchmark ordering at equal budget", ok, f"({pairs})")


def test_criterion_10_determinism(tmp_path):
    """Identical configuration and seed give byte-identical traces."""
    curve_file = tmp_path / "coil.txt"
    cli.write_curve(curve_file, ko.coiled_unknot(96, windings=4))
    texts = []
    snaps = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        code = cli.main([
            "run", "--input", str(curve_file), "--out-dir", str(out_dir),
            "--max-iter", "12", "--seed", "3", "--snapshot-every", "5",
        ])
        assert code == 0
        texts.append((out_dir / "trace.csv").read_text())
        snaps.append(sorted(
            (q.name, q.read_text()) for q in out_dir.glob("snap_*.txt")
        ))

    def strip_time(text):
        rows = []
        for line in text.strip().splitlines():
            cells = line.split(",")
            del cells[1]
            rows.append(",".join(cells))
        return "\n".join(rows)

    ok = strip_time(texts[0]) == strip_time(texts[1]) and snaps[0] == snaps[1]
    _report(10, "byte-identical traces (time column aside)", ok)
