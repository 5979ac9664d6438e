"""Sobolev-preconditioned minimization of a repulsive knot energy.

Library for minimizing the self-repulsion energy of closed embedded
polygonal curves under edge-length and barycenter constraints.  Projected
gradients are computed against a family of Sobolev-type metrics through a
factorized saddle-point system; line searches are bounded by collision
detection so the isotopy class of the curve is preserved along the
iteration.
"""

from .collision import (ProximityReport, first_collision_step, initial_step,
                        min_nonadjacent_distance, proximity_report,
                        segment_distance)
from .constraint import (ConstraintRows, ConstraintState, ConstraintTargets,
                         d_phi, phi, restore_feasibility)
from .curve import (ArcTable, EdgeFrame, Polygon, QuadPoint, coiled_unknot,
                    geodesic_distance, perturbed_circle, regular_ngon,
                    torus_knot)
from .energy import (EnergyValue, MIDPOINT, QuadratureRule, d2_energy,
                     d_energy, energy, energy_density, ks_energy)
from .errors import (AdjacentEdges, AlreadyColliding, CoincidentPoints,
                     DegenerateEdge, DimensionMismatch, KnotOptError,
                     LineSearchFailure, NewtonInnerFailure, NonConvergence,
                     SelfIntersection, SingularSystem, TooFewVertices)
from .metric import (GramOperator, L2, MetricKind, W12, W22, W32_GEOMETRIC,
                     W32_PURE, assemble_gram, parse_metric)
from .optimize import (OptimizeResult, OptimizerConfig, TraceRecord,
                       armijo_step, run, run_implicit_euler_l2, run_lbfgs,
                       run_ncg_pr_plus, run_nesterov, run_projected_gd,
                       run_trust_region)
from .saddle import (SaddleFactorization, factorize, project_tangent,
                     projected_gradient, pseudoinverse_apply)

__version__ = "0.1.0"

__all__ = [
    "ArcTable", "AdjacentEdges", "AlreadyColliding", "CoincidentPoints",
    "ConstraintRows", "ConstraintState", "ConstraintTargets", "DegenerateEdge",
    "DimensionMismatch", "EdgeFrame", "EnergyValue", "GramOperator",
    "KnotOptError", "L2", "LineSearchFailure", "MIDPOINT", "MetricKind",
    "NewtonInnerFailure", "NonConvergence", "OptimizeResult",
    "OptimizerConfig", "Polygon", "ProximityReport", "QuadPoint",
    "QuadratureRule", "SaddleFactorization", "SelfIntersection",
    "SingularSystem", "TooFewVertices", "TraceRecord", "W12", "W22",
    "W32_GEOMETRIC", "W32_PURE", "armijo_step", "assemble_gram",
    "coiled_unknot", "d2_energy", "d_energy", "d_phi", "energy",
    "energy_density", "factorize", "first_collision_step",
    "geodesic_distance", "initial_step", "ks_energy",
    "min_nonadjacent_distance", "parse_metric",
    "perturbed_circle", "phi", "project_tangent", "projected_gradient",
    "proximity_report", "pseudoinverse_apply", "regular_ngon",
    "restore_feasibility", "run",
    "run_implicit_euler_l2", "run_lbfgs", "run_ncg_pr_plus", "run_nesterov",
    "run_projected_gd", "run_trust_region", "segment_distance", "torus_knot",
]
