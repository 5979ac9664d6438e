"""Command-line front end: curve file I/O, runs, benchmarks, checks.

Curve files are plain text: a ``polyline <N> <m>`` header followed by N
lines of m coordinates; ``#`` starts a comment.  Serialization uses
shortest round-trip decimal representations, so parse(serialize(P))
reproduces the vertex array bit-exactly.  Traces are CSV with one row per
accepted iteration.

Subcommands: ``run`` (optimize one curve), ``generate`` (write a curve from
one of the parametric families), ``bench`` (grid of methods x metrics x
inputs under a wall-clock budget per cell), ``check`` (validate a curve
file and report its invariants).  Exit codes: 0 ok (status ``converged``,
``max_iter`` or ``budget``), 1 numerical failure (status
``linesearch_failure`` or ``numerical_failure``, or an error before the
first iteration), 2 usage or parse error.
"""

import argparse
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import collision, curve, optimize
from .constraint import ConstraintTargets, phi
from .curve import Polygon
from .energy import d_energy, energy
from .errors import KnotOptError
from .metric import parse_metric
from .optimize import METHODS, OptimizerConfig

TRACE_HEADER = "iter,time_s,energy,grad_norm,step_size,phi_inf,backtracks,newton_iters"


class CurveParseError(KnotOptError):
    pass


# ---------------------------------------------------------------------------
# Curve files


def serialize_curve(polygon_or_vertices, comment: str | None = None) -> str:
    v = np.asarray(getattr(polygon_or_vertices, "vertices", polygon_or_vertices))
    lines = []
    if comment:
        lines.extend(f"# {line}" for line in comment.splitlines())
    n, m = v.shape
    lines.append(f"polyline {n} {m}")
    for row in v:
        lines.append(" ".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def parse_curve(text: str) -> np.ndarray:
    header = None
    rows = []
    expected = (0, 0)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if header is None:
            if parts[0] != "polyline" or len(parts) != 3:
                raise CurveParseError(
                    f"parse error at line {lineno}: expected 'polyline <N> <m>'"
                )
            try:
                expected = (int(parts[1]), int(parts[2]))
            except ValueError:
                raise CurveParseError(
                    f"parse error at line {lineno}: malformed header counts"
                ) from None
            if expected[0] < 1 or expected[1] < 2:
                raise CurveParseError(
                    f"parse error at line {lineno}: header needs N >= 1 and m >= 2"
                )
            header = lineno
            continue
        if len(parts) != expected[1]:
            raise CurveParseError(
                f"parse error at line {lineno}: expected {expected[1]} "
                f"coordinates, got {len(parts)}"
            )
        try:
            rows.append([float(x) for x in parts])
        except ValueError:
            raise CurveParseError(
                f"parse error at line {lineno}: non-numeric coordinate"
            ) from None
        if not all(map(math.isfinite, rows[-1])):
            raise CurveParseError(
                f"parse error at line {lineno}: non-finite coordinate"
            )
    if header is None:
        raise CurveParseError("parse error at line 1: missing 'polyline' header")
    if len(rows) != expected[0]:
        raise CurveParseError(
            f"parse error at line {header}: header promises {expected[0]} "
            f"vertices, file has {len(rows)}"
        )
    return np.array(rows, dtype=float)


def read_curve(path) -> Polygon:
    return Polygon(parse_curve(Path(path).read_text()))


def write_curve(path, polygon_or_vertices, comment: str | None = None):
    Path(path).write_text(serialize_curve(polygon_or_vertices, comment))


# ---------------------------------------------------------------------------
# Trace files


def trace_row(record) -> str:
    return ",".join((
        str(record.iteration),
        f"{record.time_s:.6f}",
        repr(record.energy),
        repr(record.grad_norm),
        repr(record.step_size),
        repr(record.phi_inf),
        str(record.backtracks),
        str(record.newton_iters),
    ))


def write_trace(path, trace):
    lines = [TRACE_HEADER]
    lines.extend(trace_row(r) for r in trace)
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Run configuration


@dataclass(frozen=True)
class RunConfig:
    input: str = ""
    method: str = OptimizerConfig.method
    metric: str = OptimizerConfig.metric.name
    alpha: float = OptimizerConfig.alpha
    max_iter: int = OptimizerConfig.max_iter
    grad_tol: float = OptimizerConfig.grad_tol
    quad_k: int = OptimizerConfig.quad_k
    seed: int = 0           # accepted; no effect, methods are deterministic
    snapshot_every: int = 0
    out_dir: str = "."
    budget_s: float = 0.0
    single_thread: bool = False

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(
            method=self.method,
            metric=parse_metric(self.metric),
            alpha=self.alpha,
            max_iter=self.max_iter,
            grad_tol=self.grad_tol,
            quad_k=self.quad_k,
            time_budget_s=self.budget_s or None,
        )


def _parse_bool(text: str) -> bool:
    return text.lower() in ("1", "true", "yes")


_CONFIG_PARSERS = {f.name: _parse_bool if f.type is bool else f.type
                   for f in fields(RunConfig)}


def parse_config_file(path) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CurveParseError(f"parse error at line {lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_PARSERS:
            raise CurveParseError(f"parse error at line {lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_PARSERS[key](value.strip())
        except ValueError:
            raise CurveParseError(
                f"parse error at line {lineno}: bad value for {key!r}"
            ) from None
    return values


def _build_run_config(args) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = replace(cfg, **parse_config_file(args.config))
    overrides = {}
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = value
    return replace(cfg, **overrides)


def _limit_threads() -> bool:
    """Pin the BLAS pool to one thread; False (with a message) if impossible."""
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        print("ERROR usage: --single-thread needs threadpoolctl; without it, "
              "set OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 "
              "in the environment instead", file=sys.stderr)
        return False
    threadpool_limits(limits=1)
    return True


# ---------------------------------------------------------------------------
# Subcommands


def _snapshot_writer(out_dir: Path, every: int):
    if every <= 0:
        return None

    def writer(iteration, polygon):
        if iteration % every == 0:
            write_curve(out_dir / f"snap_{iteration:06d}.txt", polygon)

    return writer


def cmd_run(args) -> int:
    cfg = _build_run_config(args)
    if cfg.single_thread and not _limit_threads():
        return 2
    if not cfg.input:
        print("ERROR usage: run requires an input curve file", file=sys.stderr)
        return 2
    try:
        config = cfg.optimizer_config()
    except ValueError as exc:
        print(f"ERROR usage: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        polygon = read_curve(cfg.input)
    except (CurveParseError, OSError) as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except KnotOptError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    try:
        result = optimize.run(
            polygon, config,
            on_iterate=_snapshot_writer(out_dir, cfg.snapshot_every),
        )
    except KnotOptError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    write_trace(out_dir / "trace.csv", result.trace)
    write_curve(out_dir / "final.txt", result.polygon,
                comment=f"status {result.status}")
    if "error" in result.diagnostics:
        print(f"ERROR {result.diagnostics['error']}: stopped after iteration "
              f"{result.trace[-1].iteration}", file=sys.stderr)
    print(f"status {result.status} iterations {result.trace[-1].iteration} "
          f"energy {result.final_energy!r}")
    return 0 if result.status in ("converged", "max_iter", "budget") else 1


_GENERATORS = {
    "ngon": lambda a: curve.regular_ngon(a.n, a.radius, a.dim),
    "torus-knot": lambda a: curve.torus_knot(a.p, a.q, a.n, a.big_radius,
                                             a.small_radius),
    "coil": lambda a: curve.coiled_unknot(a.n, a.windings, a.aspect),
    "perturbed-circle": lambda a: curve.perturbed_circle(a.n, a.amplitude,
                                                         seed=a.seed),
}


def cmd_generate(args) -> int:
    try:
        polygon = _GENERATORS[args.kind](args)
    except ValueError as exc:
        print(f"ERROR usage: {exc}", file=sys.stderr)
        return 2
    except KnotOptError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    write_curve(args.out, polygon, comment=f"generated {args.kind}")
    print(f"wrote {args.out}: N={polygon.num_vertices} m={polygon.dim} "
          f"L={polygon.total_length!r}")
    return 0


def cmd_bench(args) -> int:
    if args.single_thread and not _limit_threads():
        return 2
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    metrics = [m.strip() for m in args.metrics.split(",") if m.strip()]
    inputs = [p.strip() for p in args.inputs.split(",") if p.strip()]
    try:
        configs = {(method, name): OptimizerConfig(
            method=method, metric=parse_metric(name), max_iter=args.max_iter,
            grad_tol=args.grad_tol, time_budget_s=args.budget_s,
        ) for method in methods for name in metrics}
    except ValueError as exc:
        print(f"ERROR usage: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    summary = ["cell,final_energy,iterations,seconds,status"]
    for input_path in inputs:
        try:
            polygon = read_curve(input_path)
        except (CurveParseError, OSError, KnotOptError) as exc:
            print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        stem = Path(input_path).stem
        for method in methods:
            for metric_name in metrics:
                cell = f"{stem}__{method}__{metric_name}"
                try:
                    result = optimize.run(polygon, configs[method, metric_name])
                    write_trace(out_dir / f"{cell}.csv", result.trace)
                    last = result.trace[-1]
                    summary.append(
                        f"{cell},{last.energy!r},{last.iteration},"
                        f"{last.time_s:.3f},{result.status}"
                    )
                except KnotOptError as exc:
                    summary.append(f"{cell},nan,0,0.000,error:{type(exc).__name__}")
    (out_dir / "summary.csv").write_text("\n".join(summary) + "\n")
    print("\n".join(summary))
    return 0


def cmd_check(args) -> int:
    try:
        polygon = read_curve(args.input)
    except (CurveParseError, OSError) as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except KnotOptError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    try:
        e = float(energy(polygon))
        grad = d_energy(polygon)
        targets = ConstraintTargets.from_polygon(polygon)
        state = phi(polygon, targets)
        gap = collision.min_nonadjacent_distance(polygon.vertices)
        translation_sum = np.abs(
            grad.reshape(polygon.num_vertices, polygon.dim).sum(axis=0)
        ).max()
        ok = (
            np.isfinite(e)
            and np.all(np.isfinite(grad))
            and gap > 0.0
            and translation_sum <= 1e-8 * max(1.0, np.abs(grad).max())
        )
    except KnotOptError as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"N {polygon.num_vertices} m {polygon.dim} "
          f"length {polygon.total_length!r} energy {e!r} "
          f"min_pair_distance {gap!r} "
          f"barycenter_inf {float(np.abs(state.barycenter).max())!r}")
    if not ok:
        print("ERROR CheckFailed: invariant violation", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotopt",
        description="Minimize the self-repulsion energy of closed polygonal curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="optimize a curve file")
    run_p.add_argument("--config", help="key=value configuration file")
    run_p.add_argument("--input")
    run_p.add_argument("--method", choices=METHODS)
    run_p.add_argument("--metric")
    run_p.add_argument("--alpha", type=float)
    run_p.add_argument("--max-iter", dest="max_iter", type=int)
    run_p.add_argument("--grad-tol", dest="grad_tol", type=float)
    run_p.add_argument("--quad-k", dest="quad_k", type=int)
    run_p.add_argument("--seed", type=int, help="accepted; has no effect")
    run_p.add_argument("--snapshot-every", dest="snapshot_every", type=int)
    run_p.add_argument("--out-dir", dest="out_dir")
    run_p.add_argument("--budget-s", dest="budget_s", type=float)
    run_p.add_argument("--single-thread", dest="single_thread",
                       action="store_const", const=True)
    run_p.set_defaults(func=cmd_run)

    gen_p = sub.add_parser("generate", help="write a parametric curve file")
    gen_sub = gen_p.add_subparsers(dest="kind", required=True)
    ngon = gen_sub.add_parser("ngon")
    ngon.add_argument("--n", type=int, required=True)
    ngon.add_argument("--radius", type=float, default=1.0)
    ngon.add_argument("--dim", type=int, default=2)
    tk = gen_sub.add_parser("torus-knot")
    tk.add_argument("--p", type=int, default=2)
    tk.add_argument("--q", type=int, default=3)
    tk.add_argument("--n", type=int, required=True)
    tk.add_argument("--big-radius", dest="big_radius", type=float, default=2.0)
    tk.add_argument("--small-radius", dest="small_radius", type=float, default=1.0)
    coil = gen_sub.add_parser("coil")
    coil.add_argument("--n", type=int, required=True)
    coil.add_argument("--windings", type=int, default=4)
    coil.add_argument("--aspect", type=float, default=3.0)
    pc = gen_sub.add_parser("perturbed-circle")
    pc.add_argument("--n", type=int, required=True)
    pc.add_argument("--amplitude", type=float, default=0.05)
    pc.add_argument("--seed", type=int, default=0)
    for sp in (ngon, tk, coil, pc):
        sp.add_argument("--out", required=True)
    gen_p.set_defaults(func=cmd_generate)

    bench_p = sub.add_parser("bench", help="method x metric grid under a budget")
    bench_p.add_argument("--inputs", required=True,
                         help="comma-separated curve files")
    bench_p.add_argument("--methods", required=True)
    bench_p.add_argument("--metrics", required=True)
    bench_p.add_argument("--budget-s", dest="budget_s", type=float, required=True)
    bench_p.add_argument("--max-iter", dest="max_iter", type=int, default=100000)
    bench_p.add_argument("--grad-tol", dest="grad_tol", type=float, default=1e-8)
    bench_p.add_argument("--seed", type=int, default=0,
                         help="accepted; has no effect")
    bench_p.add_argument("--out-dir", dest="out_dir", default=".")
    bench_p.add_argument("--single-thread", dest="single_thread",
                         action="store_true")
    bench_p.set_defaults(func=cmd_bench)

    check_p = sub.add_parser("check", help="validate a curve file")
    check_p.add_argument("--input", required=True)
    check_p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
