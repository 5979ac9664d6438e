"""Sobolev-preconditioned minimization of a repulsive knot energy.

Library for minimizing the self-repulsion energy of closed embedded
polygonal curves under edge-length and barycenter constraints.  Projected
gradients are computed against a family of Sobolev-type metrics through a
factorized saddle-point system; line searches are bounded by collision
detection so the isotopy class of the curve is preserved along the
iteration.
"""

from .collision import (ProximityReport, first_collision_step, proximity_report,
                        step_bounds)
from .constraint import (ConstraintRows, ConstraintState, ConstraintTargets,
                         d_phi, phi, restore_feasibility)
from .curve import Polygon, coiled_unknot, perturbed_circle, regular_ngon, torus_knot
from .energy import MIDPOINT, QuadratureRule, d_energy, energy, hessian
from .errors import (AlreadyColliding, CoincidentPoints, DegenerateEdge,
                     DimensionMismatch, KnotOptError, LineSearchFailure,
                     NewtonInnerFailure, NonConvergence, SelfIntersection,
                     SingularSystem, TooFewVertices)
from .metric import (METRICS, GramOperator, L2, W12, W22, W32_GEOMETRIC,
                     W32_PURE, assemble_gram, parse_metric)
from .optimize import OptimizeResult, OptimizerConfig, TraceRecord, armijo_step, run
from .saddle import (SaddleFactorization, factorize, project_tangent,
                     projected_gradient, pseudoinverse_apply)

__version__ = "0.1.0"

__all__ = [
    "AlreadyColliding", "CoincidentPoints",
    "ConstraintRows", "ConstraintState", "ConstraintTargets", "DegenerateEdge",
    "DimensionMismatch", "GramOperator",
    "KnotOptError", "L2", "LineSearchFailure", "METRICS", "MIDPOINT",
    "NewtonInnerFailure", "NonConvergence", "OptimizeResult",
    "OptimizerConfig", "Polygon", "ProximityReport",
    "QuadratureRule", "SaddleFactorization", "SelfIntersection",
    "SingularSystem", "TooFewVertices", "TraceRecord", "W12", "W22",
    "W32_GEOMETRIC", "W32_PURE", "armijo_step", "assemble_gram",
    "coiled_unknot", "d_energy", "d_phi", "energy",
    "factorize", "first_collision_step", "hessian", "parse_metric",
    "perturbed_circle", "phi", "project_tangent", "projected_gradient",
    "proximity_report", "pseudoinverse_apply", "regular_ngon",
    "restore_feasibility", "run", "step_bounds",
    "torus_knot",
]
