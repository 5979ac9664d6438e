"""One job of the knotopt benchmark, run in a fresh process.

``run.py`` starts this script with BLAS pinned to one thread through the
environment; it refuses to run otherwise.  Jobs:

* ``gen``: write the workload's input curve for a seed;
* ``setup``: time import, ``cli.read_curve`` and ``ConstraintTargets``;
* ``solve``: the same set-up, then one timed ``knotopt.run`` call, with
  spans recorded when ``--trace`` is given;
* ``sweep``: per-call time of each layer function on coiled unknots of
  three sizes, fitted to a power of N;
* ``big``: factorize plus projected gradient once on the largest coil.

Each job prints one JSON object as its last line of standard output.
"""

import argparse
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

from workloads import JITTER, TINY_N, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SWEEP_N = (192, 384, 768)
TINY_SWEEP_N = (48, 96, 192)
BIG_N = 1536
TINY_BIG_N = 192


def _import_knotopt():
    sys.path.insert(0, str(ROOT / "src"))
    import knotopt
    from knotopt import cli
    if Path(knotopt.__file__).resolve().parent != ROOT / "src" / "knotopt":
        raise ImportError(f"knotopt imported from {knotopt.__file__}, "
                          f"not from this checkout")
    return knotopt, cli


def _setup(input_path):
    """The set-up a command-line run pays: import, parse, validate, targets."""
    start = time.perf_counter()
    ko, cli = _import_knotopt()
    polygon = cli.read_curve(input_path)
    targets = ko.ConstraintTargets.from_polygon(polygon)
    return ko, cli, polygon, targets, time.perf_counter() - start


def _base_curve(ko, workload, n):
    if workload.curve == "coil":
        return ko.coiled_unknot(n, 4)
    return ko.torus_knot(2, 3, n)


def job_gen(args):
    import numpy as np
    ko, cli = _import_knotopt()
    workload = WORKLOADS[args.workload]
    base = _base_curve(ko, workload, TINY_N if args.tiny else workload.n)
    v = base.vertices
    if workload.perturb:
        rng = np.random.default_rng(abs(args.seed))
        q, r = np.linalg.qr(rng.standard_normal((3, 3)))
        q = q * np.sign(np.diag(r))
        if np.linalg.det(q) < 0.0:
            q[:, 0] = -q[:, 0]
        dirs = rng.standard_normal(v.shape)
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        size = JITTER * base.edge_lengths.mean() * rng.uniform(0.0, 1.0, (len(v), 1))
        v = v @ q.T + size * dirs
        # Re-centre the length-weighted barycenter so the input is feasible.
        nxt = np.roll(v, -1, axis=0)
        lengths = np.linalg.norm(nxt - v, axis=1)
        v = v - 0.5 * ((nxt + v) * lengths[:, None]).sum(axis=0) / lengths.sum()
    cli.write_curve(args.out, v, comment=f"{workload.name} seed {args.seed}")
    return {"versions": _versions()}


def _versions():
    import numpy
    import scipy
    out = {"python": sys.version.split()[0], "numpy": numpy.__version__,
           "scipy": scipy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["blas"] = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        out["blas"] = "unknown"
    return out


def job_setup(args):
    *_, setup_s = _setup(args.input)
    return {"setup_s": setup_s}


def _trace_digest(trace) -> str:
    """Hash of every trace column except the wall clock."""
    h = hashlib.sha256()
    for record in trace:
        row = sorted((k, v) for k, v in vars(record).items() if k != "time_s")
        h.update(repr(row).encode())
    return h.hexdigest()


def job_solve(args):
    import numpy as np
    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        _import_knotopt()
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    ko, _, polygon, targets, setup_s = _setup(args.input)
    config = ko.OptimizerConfig(method=workload.method,
                                metric=ko.parse_metric(workload.metric),
                                max_iter=workload.max_iter)
    start = time.perf_counter()
    result = ko.run(polygon, config, targets=targets)
    solve_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Checks, outside the timed interval.  OpenBLAS starts its worker
    # threads by the first BLAS call, so one pinned thread means one task.
    np.dot(np.ones((64, 64)), np.ones((64, 64)))
    threads = len(os.listdir("/proc/self/task"))
    try:
        ko.Polygon(result.polygon.vertices)
        revalidated = True
    except ko.KnotOptError:
        revalidated = False
    times = [r.time_s for r in result.trace]
    out = {
        "setup_s": setup_s,
        "solve_s": solve_s,
        "iter_ms": [1000.0 * (b - a) for a, b in zip(times, times[1:])],
        "iters": result.trace[-1].iteration,
        "status": result.status,
        "energy": float(result.final_energy),
        "phi_inf_max": max(r.phi_inf for r in result.trace),
        "revalidated": revalidated,
        "threads": threads,
        "peak_rss_mb": rss_mb,
        "digest": _trace_digest(result.trace),
    }
    if tracer is not None:
        out["layers"] = tracer.report()
    return out


def _best_time(fn, reps):
    best = math.inf
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _layer_calls(ko, n):
    """Callables for one size, each one public layer function."""
    import numpy as np
    p = ko.coiled_unknot(n, 4)
    gram = ko.assemble_gram(p, ko.W32_GEOMETRIC)
    jac = ko.d_phi(p)
    fact = ko.factorize(gram, jac)
    eta = ko.d_energy(p)
    grad, _ = ko.projected_gradient(fact, eta)
    u = -grad.reshape(p.vertices.shape)
    u *= p.edge_lengths.mean() / np.abs(u).max()
    rhs = np.concatenate((eta, np.zeros(jac.shape[0])))
    # A displacement off the constraint set that restoration needs two
    # iterations for at every size.
    rng = np.random.default_rng(0)
    trial = p.vertices + 1e-3 * p.edge_lengths.mean() * rng.standard_normal(u.shape)
    targets = ko.ConstraintTargets.from_polygon(p)
    return {
        "curve.Polygon": lambda: ko.Polygon(p.vertices),
        "energy.energy": lambda: ko.energy(p),
        "energy.d_energy": lambda: ko.d_energy(p),
        "energy.d2_energy": lambda: ko.d2_energy(p),
        "metric.assemble_gram": lambda: ko.assemble_gram(p, ko.W32_GEOMETRIC),
        "constraint.d_phi": lambda: ko.d_phi(p),
        "saddle.factorize": lambda: ko.factorize(gram, jac),
        "saddle.solve": lambda: fact.solve(rhs),
        "collision.first_collision_step":
            lambda: ko.first_collision_step(p.vertices, u, 1.5),
        "constraint.restore_feasibility":
            lambda: ko.restore_feasibility(trial, targets, fact),
    }


SWEEP_FUNCTIONS = ("curve.Polygon", "energy.energy", "energy.d_energy",
                   "energy.d2_energy", "metric.assemble_gram",
                   "constraint.d_phi", "saddle.factorize", "saddle.solve",
                   "collision.first_collision_step",
                   "constraint.restore_feasibility")


def job_sweep(args):
    ko, _ = _import_knotopt()
    sizes = TINY_SWEEP_N if args.tiny else SWEEP_N
    samples = {name: [] for name in SWEEP_FUNCTIONS}
    for n in sizes:
        try:
            calls = _layer_calls(ko, n)
        except (AttributeError, TypeError):
            traceback.print_exc()
            calls = {}
        for name in SWEEP_FUNCTIONS:
            try:
                samples[name].append(_best_time(calls[name], 1 if n == sizes[-1] else 2))
            except (KeyError, AttributeError, TypeError):
                samples[name].append(None)
    out = {}
    for name, times in samples.items():
        if None in times:
            out[f"{name}.n_exponent"] = -1
            continue
        x = [math.log(n) for n in sizes]
        y = [math.log(t) for t in times]
        mx, my = sum(x) / len(x), sum(y) / len(y)
        out[f"{name}.n_exponent"] = (
            sum((a - mx) * (b - my) for a, b in zip(x, y))
            / sum((a - mx) ** 2 for a in x))
    return out


def job_big(args):
    ko, _ = _import_knotopt()
    n = TINY_BIG_N if args.tiny else BIG_N
    try:
        p = ko.coiled_unknot(n, 4)
        fact = ko.factorize(ko.assemble_gram(p, ko.W32_GEOMETRIC), ko.d_phi(p))
        ko.projected_gradient(fact, ko.d_energy(p))
        failed = 0
    except (AttributeError, TypeError):
        traceback.print_exc()
        failed = -1
    except (ko.KnotOptError, MemoryError) as exc:
        print(f"N={n}: {type(exc).__name__}: {exc}", file=sys.stderr)
        failed = 1
    return {"saddle.n1536.fail": failed}


JOBS = {"gen": job_gen, "setup": job_setup, "solve": job_solve,
        "sweep": job_sweep, "big": job_big}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("job", choices=sorted(JOBS))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--input")
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    unpinned = [v for v in THREAD_VARS if os.environ.get(v) != "1"]
    if unpinned:
        print(f"error: {', '.join(unpinned)} must be 1 before numpy is imported",
              file=sys.stderr)
        return 3
    try:
        result = JOBS[args.job](args)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
