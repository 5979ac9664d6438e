"""Segment proximity queries and conservative collision step bounds.

All routines operate on raw vertex arrays so they can be used both to
validate polygons on construction and to bound line-search steps.  Edge i
of a closed polyline with vertices ``V`` runs from ``V[i]`` to
``V[(i+1) % N]``.  "Non-adjacent" edge pairs are those whose closures are
disjoint, i.e. pairs that share no vertex.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AlreadyColliding

# Contact is declared when a pair distance drops below this fraction of the
# total polyline length.
CONTACT_SCALE = 1e-9

# Conservative-advancement safety factor: advance strictly less than the
# per-pair lower bound on time to contact so rounding can never tunnel.
_ADVANCE_FACTOR = 0.9
_MAX_ROUNDS = 128
# Pairs with the smallest bounds, recomputed first in each advancement round.
_PRUNE_BATCH = 64

# Collision-limited line searches start at this fraction of the first
# possible contact step.
INITIAL_STEP_FACTOR = 2.0 / 3.0


@lru_cache(maxsize=64)
def nonadjacent_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (i, j), i < j, of edge pairs with disjoint closures."""
    i, j = np.triu_indices(n, k=2)
    keep = ~((i == 0) & (j == n - 1))
    i, j = i[keep].copy(), j[keep].copy()
    i.setflags(write=False)
    j.setflags(write=False)
    return i, j


def _segment_distance_batch(a0, a1, b0, b1):
    """Distances between closed segments [a0,a1] and [b0,b1], row-wise.

    Clamped closest-point computation; robust for parallel and degenerate
    (zero-length) segments.
    """
    a0 = np.atleast_2d(np.asarray(a0, dtype=float))
    a1 = np.atleast_2d(np.asarray(a1, dtype=float))
    b0 = np.atleast_2d(np.asarray(b0, dtype=float))
    b1 = np.atleast_2d(np.asarray(b1, dtype=float))

    d1 = a1 - a0
    d2 = b1 - b0
    r = a0 - b0
    a = np.einsum("ij,ij->i", d1, d1)
    e = np.einsum("ij,ij->i", d2, d2)
    f = np.einsum("ij,ij->i", d2, r)
    c = np.einsum("ij,ij->i", d1, r)
    b = np.einsum("ij,ij->i", d1, d2)

    tiny = np.finfo(float).tiny
    denom = a * e - b * b
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(denom > 0.0, (b * f - c * e) / np.where(denom > 0.0, denom, 1.0), 0.0)
        s = np.clip(s, 0.0, 1.0)
        t = np.where(e > tiny, (b * s + f) / np.where(e > tiny, e, 1.0), 0.0)
        s_low = np.clip(np.where(a > tiny, -c / np.where(a > tiny, a, 1.0), 0.0), 0.0, 1.0)
        s_high = np.clip(np.where(a > tiny, (b - c) / np.where(a > tiny, a, 1.0), 0.0), 0.0, 1.0)
    s = np.where(t < 0.0, s_low, np.where(t > 1.0, s_high, s))
    t = np.clip(t, 0.0, 1.0)

    diff = (a0 + s[:, None] * d1) - (b0 + t[:, None] * d2)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def segment_distance(a0, a1, b0, b1) -> float:
    """Euclidean distance between the closed segments [a0,a1] and [b0,b1]."""
    return float(_segment_distance_batch(a0, a1, b0, b1)[0])


def _pair_distances(v, pi, pj):
    head = np.roll(np.arange(len(v)), -1)
    return _segment_distance_batch(v[pi], v[head[pi]], v[pj], v[head[pj]])


def _polyline_length(v) -> float:
    return float(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1).sum())


@dataclass(frozen=True)
class ProximityReport:
    """Minimum distance over non-adjacent edge pairs and where it occurs."""

    min_distance: float
    pair: tuple[int, int]
    distances: np.ndarray | None = None


def proximity_report(vertices, with_table: bool = False) -> ProximityReport:
    v = np.asarray(vertices, dtype=float)
    pi, pj = nonadjacent_pairs(len(v))
    d = _pair_distances(v, pi, pj)
    k = int(np.argmin(d))
    return ProximityReport(
        min_distance=float(d[k]),
        pair=(int(pi[k]), int(pj[k])),
        distances=d if with_table else None,
    )


def min_nonadjacent_distance(vertices) -> float:
    return proximity_report(vertices).min_distance


def first_collision_step(polygon_or_vertices, displacement, tau_max: float) -> float:
    """Largest step certified free of self-contact along a linear motion.

    Returns a conservative ``tau_star`` in (0, tau_max] such that
    ``V + tau * U`` has no contact between non-adjacent edges for all
    ``tau < tau_star``.  Uses conservative advancement: each round advances
    by a fraction of min over pairs of (distance / max relative endpoint
    speed), which lower-bounds every pair's time to contact.
    """
    v = np.asarray(getattr(polygon_or_vertices, "vertices", polygon_or_vertices), dtype=float)
    u = np.asarray(displacement, dtype=float).reshape(v.shape)
    if tau_max <= 0.0:
        raise ValueError("tau_max must be positive")

    n = len(v)
    pi, pj = nonadjacent_pairs(n)
    head = np.roll(np.arange(n), -1)
    eps_contact = CONTACT_SCALE * max(_polyline_length(v), np.finfo(float).tiny)

    d = _pair_distances(v, pi, pj)
    if d.min() <= eps_contact:
        raise AlreadyColliding(
            f"minimum non-adjacent pair distance {d.min():.3e} at start"
        )

    # Relative speeds are constant along linear trajectories; the maximum
    # over the four endpoint combinations bounds every point pair on the
    # two segments.
    rel = np.empty((4, len(pi)))
    rel[0] = np.linalg.norm(u[pi] - u[pj], axis=1)
    rel[1] = np.linalg.norm(u[pi] - u[head[pj]], axis=1)
    rel[2] = np.linalg.norm(u[head[pi]] - u[pj], axis=1)
    rel[3] = np.linalg.norm(u[head[pi]] - u[head[pj]], axis=1)
    speed = rel.max(axis=0)
    if speed.max() == 0.0:
        return float(tau_max)

    # Each round recomputes only the pairs that can still set the minimum
    # of d / speed or touch.  For the others d holds a lower bound: a pair
    # is no closer than its last computed distance minus the time since
    # times its speed (padded for rounding).  The minimum is thus always
    # attained by a computed pair, and every step equals the step of
    # recomputing all pairs.
    moving = speed > 0.0
    safe_speed = np.where(moving, speed, 1.0)
    d_at, tau_at = d.copy(), np.zeros(len(d))
    slack = 1e-3 * eps_contact
    bounds = np.where(moving, d / safe_speed, np.inf)
    tau = 0.0
    for _ in range(_MAX_ROUNDS):
        step = _ADVANCE_FACTOR * float(bounds.min())
        if not np.isfinite(step):
            return float(tau_max)
        if tau + step >= tau_max:
            return float(tau_max)
        if step <= 1e-16 * max(tau, tau_max):
            return float(tau)
        tau += step
        w = v + tau * u
        d = (1.0 - 1e-9) * d_at - (1.0 + 1e-9) * (tau - tau_at) * speed - slack
        bounds = np.where(moving, d / safe_speed, np.inf)
        stale = np.ones(len(d), dtype=bool)
        todo = np.argpartition(bounds, _PRUNE_BATCH)[:_PRUNE_BATCH] \
            if len(d) > _PRUNE_BATCH else np.arange(len(d))
        while todo.size:
            d[todo] = _pair_distances(w, pi[todo], pj[todo])
            d_at[todo], tau_at[todo], stale[todo] = d[todo], tau, False
            bounds[todo] = np.where(moving[todo], d[todo] / safe_speed[todo], np.inf)
            best = bounds[~stale].min()
            todo = np.flatnonzero(stale & ((bounds <= best) | (d <= eps_contact)))
        if d[~stale].min() <= eps_contact:
            return float(tau)
    return float(tau)


def initial_step(polygon_or_vertices, displacement, tau_max: float) -> float:
    """Starting step for backtracking: min(tau_max, 2/3 of first contact).

    The contact search extends past ``tau_max`` so that a motion with no
    contact by the cap starts at the full cap rather than two thirds of it;
    contact times beyond 1.5 * tau_max cannot change the result.
    """
    tau_star = first_collision_step(polygon_or_vertices, displacement,
                                    1.5 * tau_max)
    return float(min(tau_max, INITIAL_STEP_FACTOR * tau_star))
