"""Outside-in span tracer for the knotopt package.

Each traced function is replaced by a wrapper at every module attribute of
the package that holds it (so ``optimize.energy`` and ``energy.energy`` are
both covered), and methods are replaced on their class.  A span records
calls, self time (its duration minus the time of spans opened inside it)
and the calls that raised.  A target that a later version of the package
renamed or removed, or a result that no longer has the shape a value is
read from, is reported as absent (value -1) instead of failing the run.

Untraced runs never install the tracer.
"""

import functools
import importlib
import sys
import time


def _array_bytes(obj) -> int:
    """Bytes held by the numpy arrays among an object's attributes."""
    return sum(v.nbytes for v in vars(obj).values()
               if type(v).__module__ == "numpy" and hasattr(v, "nbytes"))


# Values read from a span's results: (value, read(result), "sum" | "max").
_RESTORE_ITERS = (("constraint.restore_feasibility.iters", lambda r: r[1], "sum"),)
_ARMIJO = (("optimize.linesearch.trials", lambda r: r.backtracks + 1, "sum"),)
_WOLFE = (("optimize.linesearch.trials", lambda r: r[3], "sum"),)
_GRAM = (("metric.gram_bytes", _array_bytes, "max"),)
_KKT = (("saddle.kkt_bytes", _array_bytes, "max"),)

# (span, owner, attribute, values).  The owner is a module or a class given
# by its dotted path.  Two targets may share one span.
TARGETS = (
    ("curve.Polygon", "knotopt.curve.Polygon", "__init__", ()),
    ("energy.energy", "knotopt.energy", "energy", ()),
    ("energy.d_energy", "knotopt.energy", "d_energy", ()),
    ("energy.d2_energy", "knotopt.energy", "d2_energy", ()),
    ("metric.assemble_gram", "knotopt.metric", "assemble_gram", _GRAM),
    ("constraint.phi", "knotopt.constraint", "phi", ()),
    ("constraint.d_phi", "knotopt.constraint", "d_phi", ()),
    ("constraint.restore_feasibility", "knotopt.constraint",
     "restore_feasibility", _RESTORE_ITERS),
    ("saddle.factorize", "knotopt.saddle", "factorize", _KKT),
    ("saddle.solve", "knotopt.saddle.SaddleFactorization", "solve", ()),
    ("collision.first_collision_step", "knotopt.collision",
     "first_collision_step", ()),
    ("collision.min_nonadjacent_distance", "knotopt.collision",
     "min_nonadjacent_distance", ()),
    ("optimize.linesearch", "knotopt.optimize", "armijo_step", _ARMIJO),
    ("optimize.linesearch", "knotopt.optimize", "weak_wolfe", _WOLFE),
    ("optimize.metric_solve", "knotopt.optimize.PenaltyProblem",
     "metric_solve", ()),
    ("optimize.driver", "knotopt.optimize", "run", ()),
    ("cli.read_curve", "knotopt.cli", "read_curve", ()),
)

# Spans of functions that signal failure by raising report a ``fail`` count.
FAILING_SPANS = ("curve.Polygon", "constraint.phi",
                 "constraint.restore_feasibility", "saddle.factorize",
                 "saddle.solve", "collision.first_collision_step",
                 "optimize.linesearch")

LU_SOLVES = "saddle.lu_solves"


def _resolve(path):
    """Import the longest module prefix of a dotted path, then getattr."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise ImportError(path)


def _rebind(original, wrapper, extra=()):
    """Replace ``original`` at every knotopt module attribute holding it."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "knotopt"
                                     or name.startswith("knotopt."))]
    for module in list(extra) + modules:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)


class Tracer:
    def __init__(self):
        self.spans = {t[0]: {"calls": 0, "self_s": 0.0, "fail": 0}
                      for t in TARGETS}
        self.values = {v[0]: 0 for *_, values in TARGETS for v in values}
        self.values[LU_SOLVES] = 0
        self.absent = set()
        self._stack = []

    def _wrap(self, span, fn, values):
        stats = self.spans[span]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                elapsed = time.perf_counter() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += elapsed
                stats["calls"] += 1
                stats["self_s"] += elapsed - frame[0]
                stats["fail"] += not ok
            for name, read, combine in values:
                try:
                    amount = read(result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    self.absent.add(name)
                    continue
                if combine == "sum":
                    self.values[name] += amount
                else:
                    self.values[name] = max(self.values[name], amount)
            return result

        return wrapper

    def _count(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.values[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Re-bind every target; record the ones that no longer exist."""
        found = set()
        for span, owner_path, attr, values in TARGETS:
            try:
                owner = _resolve(owner_path)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.update(v[0] for v in values)
                continue
            found.add(span)
            wrapper = self._wrap(span, original, values)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
            else:
                _rebind(original, wrapper)
        self.absent.update(set(self.spans) - found)
        import scipy.linalg
        _rebind(scipy.linalg.lu_solve,
                self._count(LU_SOLVES, scipy.linalg.lu_solve),
                extra=(scipy.linalg,))

    def report(self) -> dict:
        """Per-layer values; -1 marks a target or value that is absent."""
        out = {}
        for span, stats in self.spans.items():
            keys = ("calls", "self_s") + (("fail",) if span in FAILING_SPANS else ())
            for key in keys:
                out[f"{span}.{key}"] = -1 if span in self.absent else stats[key]
        for name, value in self.values.items():
            out[name] = -1 if name in self.absent else value
        # Every line search that returns accepts one step.  The ratio is
        # not applicable (-1) when none ran, as in the trust region.
        accepted = out["optimize.linesearch.calls"] - out["optimize.linesearch.fail"]
        trials = out["optimize.linesearch.trials"]
        out["optimize.linesearch.accept_ratio"] = (
            accepted / trials if trials > 0 and "optimize.linesearch" not in self.absent
            else -1)
        out["trace.absent"] = len(self.absent)
        return out
