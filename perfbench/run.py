"""Benchmark of knotopt: solver workloads timed end to end and traced by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory of a checkout; the package is imported from the
checkout's ``src``.  Each solve runs in a fresh child process (a closed
loop: one ``knotopt.run`` call at a time, one thread, BLAS pinned through
the environment before numpy is imported), so every solve pays what a
command-line run pays.  Solves repeat on the seed's input for about
``--seconds``; the end-to-end metrics are means, medians and percentiles
over them.

With ``--trace 1`` the run alternates untraced and traced solves, then
sweeps the layer functions over N and attempts the largest coil once; it
prints the per-layer metrics, each the median over traced children of what
one child recorded over its set-up and its solve.  Every solve is checked, outside its timed
interval, for status, final energy, feasibility, embeddedness, BLAS
pinning and trace determinism; a solve failing any check counts in
``failed``.  Generated inputs and a ``BENCH_*.json`` record with the
machine, library versions and git revision go to ``.perfbench/``.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
``--tiny`` shrinks every curve to the self-test size.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import SWEEP_FUNCTIONS
from tracer import Tracer
from workloads import PHI_TOL, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

END_TO_END = {"solve_s": "s", "iter_ms.mean": "ms", "iter_ms.p90": "ms",
              "iters": "count", "peak_rss_mb": "MB", "setup_s": "s"}


def _layer_unit(name):
    if name.endswith("self_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("accept_ratio"):
        return "1"
    return "count"


# A tracer that saw no calls reports every per-layer name it has.
PER_LAYER = {name: _layer_unit(name) for name in Tracer().report()}
PER_LAYER.update({f"{name}.n_exponent": "1" for name in SWEEP_FUNCTIONS})
PER_LAYER.update({"saddle.n1536.fail": "count", "trace.overhead_frac": "1",
                  "fail_rate": "1"})

SETUP_SAMPLES = 5
# Every run ends well inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0
CHILD_ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")


class ChildFailed(Exception):
    def __init__(self, message, wall=0.0):
        super().__init__(message)
        self.wall = wall


class Clock:
    def __init__(self):
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def left(self) -> float:
        return RUN_DEADLINE_S - self.elapsed()


def child(clock, *args):
    """Run one child job; return its JSON result and its wall time."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *map(str, args)],
            cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
            timeout=max(clock.left(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{args[0]} timed out",
                          time.perf_counter() - start) from exc
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise ChildFailed(f"{args[0]} exited with code {proc.returncode}", wall)
    if proc.stderr:
        sys.stderr.write(proc.stderr[-2000:])
    return json.loads(proc.stdout.strip().splitlines()[-1]), wall


def check_solve(workload, result, reference_digest, tiny) -> list[str]:
    """Every correctness check of one timed solve; empty when it passed."""
    problems = []
    if result["status"] != workload.status:
        problems.append(f"status {result['status']}, expected {workload.status}")
    ref = workload.tiny_energy if tiny else workload.energy
    if abs(result["energy"] - ref) > workload.energy_rtol * abs(ref):
        problems.append(f"final energy {result['energy']!r}, reference {ref!r} "
                        f"(rtol {workload.energy_rtol:g})")
    if workload.feasible and result["phi_inf_max"] > PHI_TOL:
        problems.append(f"phi_inf {result['phi_inf_max']:.3e} > {PHI_TOL:g}")
    if not result["revalidated"]:
        problems.append("final vertices fail Polygon validation")
    if result["threads"] != 1:
        problems.append(f"{result['threads']} threads: BLAS is not pinned")
    if result["digest"] != reference_digest:
        problems.append("trace differs from the first solve of this seed")
    return problems


class Solves:
    """Timed solves of one run, with their checks."""

    def __init__(self, workload, input_path, tiny):
        self.workload = workload
        self.input_path = input_path
        self.tiny = tiny
        self.results = []
        self.problems = []

    def run(self, clock, trace=False) -> float:
        """One solve in a fresh child; returns its wall time."""
        args = ["solve", "--workload", self.workload.name, "--input", self.input_path]
        args += ["--trace"] * trace + ["--tiny"] * self.tiny
        try:
            result, wall = child(clock, *args)
        except ChildFailed as exc:
            self.problems.append([str(exc)])
            return exc.wall
        digest = self.results[0]["digest"] if self.results else result["digest"]
        result["traced"] = trace
        self.results.append(result)
        self.problems.append(check_solve(self.workload, result, digest, self.tiny))
        return wall

    @property
    def attempted(self):
        return len(self.problems)

    @property
    def failed(self):
        return sum(bool(p) for p in self.problems)

    def untraced(self):
        return [r for r in self.results if not r["traced"]]


def end_to_end(solves, setups):
    """The end-to-end metrics of the untraced solves, and notes on them.

    Solve and iteration times fall in clusters: a shared machine's speed
    shifts between two levels, about 1.6x apart, for ten seconds or so at a
    time, and the L2 flow's iterations are either cheap or collision-bound.
    A median jumps between clusters from run to run, while a mean moves
    only with the share of time spent in each, so ``solve_s`` and
    ``iter_ms.mean`` are means.  Unlike ``solve_s / iters``,
    ``iter_ms.mean`` leaves out the work ``run`` does before its first
    iteration.
    """
    untraced = solves.untraced()
    iter_ms = [t for r in untraced for t in r["iter_ms"]]
    deciles = statistics.quantiles(iter_ms, n=10, method="inclusive")
    values = {
        "solve_s": statistics.mean(r["solve_s"] for r in untraced),
        "iter_ms.mean": statistics.mean(iter_ms),
        "iter_ms.p90": deciles[8],
        "iters": statistics.median(r["iters"] for r in untraced),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "setup_s": statistics.median(setups),
    }
    notes = {
        "solve_s": f"mean of {len(untraced)} solves",
        "iter_ms.mean": f"{len(iter_ms)} iterations pooled over {len(untraced)} solves",
        "iter_ms.p90": f"{len(iter_ms)} iterations, "
                       f"{sum(t > deciles[8] for t in iter_ms)} above",
        "setup_s": f"median of {len(setups)} fresh processes",
    }
    return values, notes


def per_layer(solves, sweep, big):
    traced = [r["layers"] for r in solves.results if r["traced"]]
    values = {name: statistics.median(layers[name] for layers in traced)
              for name in traced[0]}
    values.update(sweep)
    values.update(big)
    values["trace.overhead_frac"] = (
        statistics.median(r["solve_s"] for r in solves.results if r["traced"])
        / statistics.median(r["solve_s"] for r in solves.untraced()))
    values["fail_rate"] = solves.failed / solves.attempted
    return values


def machine_info(versions):
    info = {"nproc": os.cpu_count(), **versions}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        info["cpu"] = "unknown"
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches.append(f"L{level} {kind} {size}")
    info["caches"] = caches
    info["git_revision"] = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        if proc.returncode == 0:
            info["git_revision"] = proc.stdout.strip()
    return info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "knotopt" / "__init__.py").is_file():
        print(f"error: no knotopt package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    clock = Clock()
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    tag = f"{workload.name}_seed{args.seed}" + ("_tiny" if args.tiny else "")
    input_path = WORK / f"input_{tag}.txt"
    tiny = ["--tiny"] * args.tiny
    try:
        gen, _ = child(clock, "gen", "--workload", workload.name,
                       "--seed", args.seed, "--out", input_path, *tiny)
        solves = Solves(workload, input_path, args.tiny)
        if args.trace:
            # Untraced and traced solves alternate, so both see the same
            # machine; the ratio of their medians is the tracing overhead.
            while True:
                started = clock.elapsed()
                solves.run(clock)
                solves.run(clock, trace=True)
                pair = clock.elapsed() - started
                if clock.elapsed() + pair > min(args.seconds, clock.left() - 60.0):
                    break
            sweep, _ = child(clock, "sweep", *tiny)
            big, _ = child(clock, "big", *tiny)
            values, notes = per_layer(solves, sweep, big), {}
            units = PER_LAYER
        else:
            while True:
                wall = solves.run(clock)
                if solves.attempted >= 2 and (
                        clock.elapsed() + wall > min(args.seconds, clock.left() - 20.0)):
                    break
            setups = [r["setup_s"] for r in solves.results]
            while len(setups) < SETUP_SAMPLES:
                setup, _ = child(clock, "setup", "--input", input_path)
                setups.append(setup["setup_s"])
            values, notes = end_to_end(solves, setups)
            units = END_TO_END
    except (ChildFailed, statistics.StatisticsError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {units[name]}{note}")
    for i, problems in enumerate(solves.problems):
        for problem in problems:
            print(f"solve {i}: FAILED {problem}")
    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "tiny": args.tiny,
        "machine": machine_info(gen["versions"]),
        "solves": solves.results,
        "problems": solves.problems,
        "metrics": values,
    }
    (WORK / f"BENCH_{tag}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": solves.failed == 0,
        "attempted": solves.attempted,
        "failed": solves.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
