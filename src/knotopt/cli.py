"""Command-line front end: curve file I/O, runs, benchmarks, checks.

Curve files are plain text: a ``polyline <N> <m>`` header followed by N
lines of m coordinates; ``#`` starts a comment.  Serialization uses
shortest round-trip decimal representations, so parse(serialize(P))
reproduces the vertex array bit-exactly.  Traces are CSV with one row per
accepted iteration.

Subcommands: ``run`` (optimize one curve), ``generate`` (write a curve from
one of the parametric families), ``bench`` (grid of methods x metrics x
inputs under a wall-clock budget per cell), ``check`` (validate a curve
file and report its invariants).  Each ``cmd_*`` function is the check step
of its subcommand: it parses the settings, builds every optimizer
configuration, and reads every input curve or builds the generated one.  It
returns the act step, which creates the output directory, runs and writes,
so a rejected setting or input leaves nothing behind.  :func:`main` alone
turns an exception into an ``ERROR <kind>: <message>`` line and an exit
code: 0 ok (status ``converged``, ``max_iter`` or ``budget``); 1 a
:class:`KnotOptError` in either step (the curve is not embedded or cannot
be built, a check fails, an error before the first iteration) or status
``linesearch_failure`` or ``numerical_failure``; 2 a ``ValueError`` in the
check step (``ERROR usage: ...``), a file that cannot be read, decoded or
parsed (:class:`CurveParseError`), or a flag that argparse rejects.  A ``ValueError`` in the act
step is a fault of the program, not of its use, and propagates.
"""

import argparse
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import collision, curve, optimize
from .constraint import ConstraintTargets, phi
from .curve import Polygon
from .energy import d_energy, energy
from .errors import KnotOptError
from .metric import parse_metric
from .optimize import OptimizerConfig

TRACE_HEADER = "iter,time_s,energy,grad_norm,step_size,phi_inf,backtracks,newton_iters"


class CurveParseError(KnotOptError):
    pass


class CheckFailed(KnotOptError):
    pass


def _parse_error(lineno: int, what: str) -> CurveParseError:
    return CurveParseError(f"parse error at line {lineno}: {what}")


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
                raise _parse_error(lineno, "expected 'polyline <N> <m>'")
            try:
                expected = (int(parts[1]), int(parts[2]))
            except ValueError:
                raise _parse_error(lineno, "malformed header counts") from None
            if expected[0] < 1 or expected[1] < 2:
                raise _parse_error(lineno, "header needs N >= 1 and m >= 2")
            header = lineno
            continue
        if len(parts) != expected[1]:
            raise _parse_error(lineno, f"expected {expected[1]} coordinates, "
                                       f"got {len(parts)}")
        try:
            rows.append([float(x) for x in parts])
        except ValueError:
            raise _parse_error(lineno, "non-numeric coordinate") from None
        if not all(map(math.isfinite, rows[-1])):
            raise _parse_error(lineno, "non-finite coordinate")
    if header is None:
        raise _parse_error(1, "missing 'polyline' header")
    if len(rows) != expected[0]:
        raise _parse_error(header, f"header promises {expected[0]} vertices, "
                                   f"file has {len(rows)}")
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
    """The settings of ``run``; each field is both a flag and a config key."""

    input: str = ""
    method: str = OptimizerConfig.method
    metric: str = OptimizerConfig.metric
    alpha: float = OptimizerConfig.alpha
    max_iter: int = OptimizerConfig.max_iter
    grad_tol: float = OptimizerConfig.grad_tol
    quad_k: int = OptimizerConfig.quad_k
    # Methods are deterministic, so the seed is only accepted.
    seed: int = field(default=0, metadata={"help": "accepted; has no effect"})
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
    if text.lower() not in ("1", "0", "true", "false", "yes", "no"):
        raise ValueError(f"not a boolean: {text!r}")
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
            raise _parse_error(lineno, "expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_PARSERS:
            raise _parse_error(lineno, f"unknown key {key!r}")
        try:
            values[key] = _CONFIG_PARSERS[key](value.strip())
        except ValueError:
            raise _parse_error(lineno, f"bad value for {key!r}") from None
    return values


def _build_run_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        cfg = replace(cfg, **parse_config_file(args.config))
    return replace(cfg, **{f.name: getattr(args, f.name) for f in fields(RunConfig)
                           if getattr(args, f.name) is not None})


def _limit_threads():
    """Pin the BLAS pool to one thread; a usage error if that is impossible."""
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        raise ValueError(
            "--single-thread needs threadpoolctl; without it, set OMP_NUM_THREADS=1 "
            "OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1 in the environment instead"
        ) from None
    threadpool_limits(limits=1)


# ---------------------------------------------------------------------------
# Subcommands: each checks everything, then returns its act step


def cmd_run(args):
    cfg = _build_run_config(args)
    if cfg.single_thread:
        _limit_threads()
    if not cfg.input:
        raise ValueError("run requires an input curve file")
    if cfg.snapshot_every < 0:
        raise ValueError("snapshot_every must be non-negative")
    config = cfg.optimizer_config()
    polygon = read_curve(cfg.input)
    out_dir = Path(cfg.out_dir)

    def snapshot(iteration, current):
        if iteration % cfg.snapshot_every == 0:
            write_curve(out_dir / f"snap_{iteration:06d}.txt", current)

    def act() -> int:
        out_dir.mkdir(parents=True, exist_ok=True)
        result = optimize.run(polygon, config, on_iterate=(
            snapshot if cfg.snapshot_every > 0 else None))
        write_trace(out_dir / "trace.csv", result.trace)
        write_curve(out_dir / "final.txt", result.polygon,
                    comment=f"status {result.status}")
        if "error" in result.diagnostics:
            print(f"ERROR {result.diagnostics['error']}: stopped after iteration "
                  f"{result.trace[-1].iteration}", file=sys.stderr)
        print(f"status {result.status} iterations {result.trace[-1].iteration} "
              f"energy {result.final_energy!r}")
        return 0 if result.status in ("converged", "max_iter", "budget") else 1

    return act


_GENERATORS = {
    "ngon": lambda a: curve.regular_ngon(a.n, a.radius, a.dim),
    "torus-knot": lambda a: curve.torus_knot(a.p, a.q, a.n, a.big_radius,
                                             a.small_radius),
    "coil": lambda a: curve.coiled_unknot(a.n, a.windings, a.aspect),
    "perturbed-circle": lambda a: curve.perturbed_circle(a.n, a.amplitude,
                                                         seed=a.seed),
}


def cmd_generate(args):
    polygon = _GENERATORS[args.kind](args)

    def act() -> int:
        write_curve(args.out, polygon, comment=f"generated {args.kind}")
        print(f"wrote {args.out}: N={polygon.num_vertices} m={polygon.dim} "
              f"L={polygon.total_length!r}")
        return 0

    return act


def _csv_list(text: str) -> list:
    return [item.strip() for item in text.split(",") if item.strip()]


def cmd_bench(args):
    if args.single_thread:
        _limit_threads()
    methods = _csv_list(args.methods)
    metrics = [parse_metric(name) for name in _csv_list(args.metrics)]
    configs = {(method, name): OptimizerConfig(
        method=method, metric=name, max_iter=args.max_iter,
        grad_tol=args.grad_tol, time_budget_s=args.budget_s,
    ) for method in methods for name in metrics}
    paths = _csv_list(args.inputs)
    stems = [Path(p).stem for p in paths]
    for what, names in (("input file stems", stems), ("methods", methods),
                        ("metrics", metrics)):
        if not names or len(set(names)) < len(names):
            raise ValueError(f"{what} must be given, each once, since they name "
                             f"the cells: got {', '.join(names) or 'none'}")
    polygons = {stem: read_curve(p) for stem, p in zip(stems, paths)}

    def act() -> int:
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        summary = ["cell,final_energy,iterations,seconds,status"]
        for stem, polygon in polygons.items():
            for method in methods:
                for metric_name in metrics:
                    cell = f"{stem}__{method}__{metric_name}"
                    try:
                        result = optimize.run(polygon, configs[method, metric_name])
                    except KnotOptError as exc:
                        summary.append(f"{cell},nan,0,0.000,error:{type(exc).__name__}")
                        continue
                    write_trace(out_dir / f"{cell}.csv", result.trace)
                    last = result.trace[-1]
                    summary.append(f"{cell},{last.energy!r},{last.iteration},"
                                   f"{last.time_s:.3f},{result.status}")
        (out_dir / "summary.csv").write_text("\n".join(summary) + "\n")
        print("\n".join(summary))
        return 0

    return act


def cmd_check(args):
    polygon = read_curve(args.input)

    def act() -> int:
        e = float(energy(polygon))
        grad = d_energy(polygon)
        state = phi(polygon, ConstraintTargets.from_polygon(polygon))
        gap = collision.proximity_report(polygon.vertices).min_distance
        translation_sum = np.abs(
            grad.reshape(polygon.num_vertices, polygon.dim).sum(axis=0)
        ).max()
        print(f"N {polygon.num_vertices} m {polygon.dim} "
              f"length {polygon.total_length!r} energy {e!r} "
              f"min_pair_distance {gap!r} "
              f"barycenter_inf {float(np.abs(state.barycenter).max())!r}")
        if not (np.isfinite(e) and np.all(np.isfinite(grad)) and gap > 0.0
                and translation_sum <= 1e-8 * max(1.0, np.abs(grad).max())):
            raise CheckFailed("invariant violation")
        return 0

    return act


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knotopt",
        description="Minimize the self-repulsion energy of closed polygonal curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="optimize a curve file")
    run_p.add_argument("--config", help="key=value configuration file")
    for f in fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.type is bool:
            run_p.add_argument(flag, action="store_const", const=True)
        else:
            run_p.add_argument(flag, type=f.type, help=f.metadata.get("help"))
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
    tk.add_argument("--big-radius", type=float, default=2.0)
    tk.add_argument("--small-radius", type=float, default=1.0)
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
    bench_p.add_argument("--budget-s", type=float, required=True)
    bench_p.add_argument("--max-iter", type=int, default=100000)
    bench_p.add_argument("--grad-tol", type=float, default=1e-8)
    bench_p.add_argument("--seed", type=int, default=0,
                         help="accepted; has no effect")
    bench_p.add_argument("--out-dir", default=".")
    bench_p.add_argument("--single-thread", action="store_true")
    bench_p.set_defaults(func=cmd_bench)

    check_p = sub.add_parser("check", help="validate a curve file")
    check_p.add_argument("--input", required=True)
    check_p.set_defaults(func=cmd_check)

    return parser


# A file that cannot be read, decoded or parsed is, like a bad setting, the
# caller's to fix: exit 2.
_INPUT_ERRORS = (CurveParseError, OSError, UnicodeDecodeError)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    act = None
    try:
        act = args.func(args)
        return act()
    except (KnotOptError, *_INPUT_ERRORS) as exc:
        print(f"ERROR {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _INPUT_ERRORS) else 1
    except ValueError as exc:
        if act is not None:
            raise  # raised while acting: a fault of the program, not of its use
        print(f"ERROR usage: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
