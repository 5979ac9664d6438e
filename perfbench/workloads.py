"""Workload table of the knotopt benchmark.

Each workload is one curve, one optimizer configuration and the reference
outcome every timed run is checked against.  The references and timings
below were measured at the commit that introduced the benchmark, on a
2-core Intel Xeon virtual machine (numpy 2.4.6, OpenBLAS 0.3.31), with
BLAS pinned to one thread.

Why these four:

* ``coil384-projgd-w32`` is the headline pipeline (projected gradient in
  the geometric W^{3/2} metric); its time splits between the dense saddle
  LU, Gram assembly, the energy differential and the collision bound.
* ``coil384-lbfgs-w32`` runs the same curve through penalized L-BFGS, which
  never touches the saddle solver or restoration: a saddle-only change must
  show no effect here.  It is bound by the metric Cholesky solve and by
  ``Polygon`` validation in the Wolfe trials.
* ``trefoil240-tr-w32`` is the trust-region driver on a knotted curve; the
  Hessian ``d2_energy`` dominates and the Newton gate drives the general
  (indefinite) factorization path.
* ``coil192-projgd-l2`` is the unpreconditioned L2 flow capped at 30
  accepted iterations.  Collision advancement dominates and saddle solves
  (restoration, backtracking) outnumber factorizations.

The three preconditioned workloads take their input rotated and jittered
from the seed.  The L2 flow is chaotic in its input: rounding-level changes
flip backtracking decisions, and over five rotation-only seeds its solve
time ranged from 5.4 s to 8.0 s (8.5 s to 14.3 s with 1 % jitter), a spread
no regression bound could absorb.  Its input is therefore the generator
output itself, and the seed does not change it.
"""

from dataclasses import dataclass

FEASIBLE_METHODS = ("projgd", "implicit_euler_l2", "trust_region")

# Largest jitter of a vertex, as a share of the mean edge length.
JITTER = 0.01

# A feasible iterate satisfies the constraints to this level.
PHI_TOL = 1e-8


@dataclass(frozen=True)
class Workload:
    name: str
    curve: str              # "coil" (4 windings) or "trefoil" (2, 3 torus knot)
    n: int
    method: str
    metric: str
    max_iter: int
    perturb: bool           # rotate and jitter the input from the seed
    status: str             # expected stop status
    energy: float           # reference final energy at full size
    energy_rtol: float
    tiny_energy: float      # reference final energy at the self-test size

    @property
    def feasible(self) -> bool:
        return self.method in FEASIBLE_METHODS


# Converged runs ended within 1e-7 relative of their reference on all of the
# 20 seeds tried, far inside the 1e-5 tolerance.  The capped L2 flow ends at a
# fixed energy on its fixed input, but a change that only alters rounding
# moves it along another trajectory: rotated copies of its input ended
# between 31.6 and 32.2, hence the 3 % tolerance.
WORKLOADS = {w.name: w for w in (
    Workload("coil384-projgd-w32", "coil", 384, "projgd", "w32", 500, True,
             "converged", 4.000001, 1e-5, 4.0000237),
    Workload("coil384-lbfgs-w32", "coil", 384, "lbfgs", "w32", 500, True,
             "converged", 4.0000005, 1e-5, 4.0000235),
    Workload("trefoil240-tr-w32", "trefoil", 240, "trust_region", "w32", 500, True,
             "converged", 74.451869, 1e-5, 74.662463),
    Workload("coil192-projgd-l2", "coil", 192, "projgd", "l2", 30, False,
             "max_iter", 31.90084849033044, 0.03, 27.859773549852207),
)}

# Self-test size: every curve shrinks to this many vertices.
TINY_N = 96
