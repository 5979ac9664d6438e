"""Frozen copy of the collision step bound that the wake-time loop replaced.

``nonadjacent_pairs`` lists every edge pair with disjoint closures, the
pair list that the oracles here and in ``pairlist_oracle`` walk.

``first_collision_step`` is the conservative-advancement loop as it was
before rounds read only the pairs that can still set the minimum: every
round rebuilds the lazy bounds of all N(N-3)/2 pairs, and the exact pair
routines ``_segment_distance_batch`` and ``_pair_speeds`` are the originals.
Tests compare the library against it with ``==``.
"""

from functools import lru_cache

import numpy as np

from knotopt.collision import (_ADVANCE_FACTOR, _MAX_ROUNDS, CONTACT_SCALE,
                               _polyline_length)
from knotopt.errors import AlreadyColliding

_PRUNE_BATCH = 64
_BOUND_PAD = 1e-12


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


def _pair_distances(v, pi, pj):
    n = len(v)
    return _segment_distance_batch(v[pi], v[(pi + 1) % n], v[pj], v[(pj + 1) % n])


def _pair_speeds(u, pi, pj):
    """Largest relative endpoint speed of each edge pair.

    Relative speeds are constant along linear trajectories; the maximum
    over the four endpoint combinations bounds every point pair on the two
    segments.
    """
    n = len(u)
    ends_i = np.stack((pi, (pi + 1) % n))[:, None]
    ends_j = np.stack((pj, (pj + 1) % n))[None, :]
    return np.linalg.norm(u[ends_i] - u[ends_j], axis=-1).max(axis=(0, 1))


def _ball_bound(x, pi, pj, sign):
    """Padded bound on ``|p - q|`` for p on edge I and q on edge J of ``x``.

    Edge I of the closed polyline ``x`` lies in the ball of radius r_I, half
    its length, around its midpoint c_I.  With ``sign = -1`` this is a lower
    bound on the pair's distance, ``|c_I - c_J| - r_I - r_J``; with
    ``sign = +1`` an upper bound on the largest endpoint difference,
    ``|c_I - c_J| + r_I + r_J``.  The N x N table of ``|c_I - c_J|^2`` is
    one matrix product, ``|c_I|^2 + |c_J|^2 - 2 c_I.c_J``, of the centred
    midpoints; it is padded, in the square and linearly, far beyond the
    rounding of the midpoints, the product and the exact pair routines.
    """
    nxt = np.roll(x, -1, axis=0)
    c = 0.5 * (x + nxt)
    r = 0.5 * np.linalg.norm(nxt - x, axis=1)
    pad = _BOUND_PAD * (np.abs(x).max() + r.max())
    c -= c.mean(axis=0)
    sq = np.einsum("ij,ij->i", c, c)
    d2 = sq[pi] + sq[pj]
    d2 -= 2.0 * (c @ c.T)[pi, pj]
    d2 += sign * _BOUND_PAD * sq.max()
    reach = r[pi] + r[pj]
    reach += pad
    return np.sqrt(np.maximum(d2, 0.0)) + sign * reach


def _smallest(values):
    """Indices of the ``_PRUNE_BATCH`` smallest values (all if fewer)."""
    if len(values) > _PRUNE_BATCH:
        return np.argpartition(values, _PRUNE_BATCH)[:_PRUNE_BATCH]
    return np.arange(len(values))


def first_collision_step(polygon_or_vertices, displacement, tau_max: float) -> float:
    """Largest step certified free of self-contact along a linear motion.

    Returns a conservative ``tau_star`` in (0, tau_max] such that
    ``V + tau * U`` has no contact between non-adjacent edges for all
    ``tau < tau_star``.  Uses conservative advancement: each round advances
    by a fraction of min over pairs of (distance / max relative endpoint
    speed), which lower-bounds every pair's time to contact.

    A pair's distance and speed are computed exactly only when the pair can
    set that minimum or touch.  Until then two balls stand in for them: the
    midpoint balls of the edges of ``V`` give a lower bound on the distance
    at tau = 0, and the balls around the edges' mean velocities, of radius
    half the velocity difference, give an upper bound on the speed.  A
    lower bound on time to contact never exceeds the exact one, so the
    minimum is always attained by an exactly computed pair and every step,
    hence the result, equals that of computing all pairs exactly.
    """
    v = np.asarray(getattr(polygon_or_vertices, "vertices", polygon_or_vertices), dtype=float)
    u = np.asarray(displacement, dtype=float).reshape(v.shape)
    if tau_max <= 0.0:
        raise ValueError("tau_max must be positive")

    pi, pj = nonadjacent_pairs(len(v))
    eps_contact = CONTACT_SCALE * max(_polyline_length(v), np.finfo(float).tiny)

    d = _ball_bound(v, pi, pj, -1.0)
    near = np.flatnonzero(d <= eps_contact)
    if near.size:
        closest = _pair_distances(v, pi[near], pj[near]).min()
        if closest <= eps_contact:
            raise AlreadyColliding(
                f"minimum non-adjacent pair distance {closest:.3e} at start"
            )
    # For N >= 4 every vertex pair bounds some non-adjacent edge pair, so
    # all pair speeds are zero exactly when the motion is a translation.
    if np.all(u == u[0]):
        return float(tau_max)

    # For a pair not computed at the current tau, d holds a lower bound: its
    # last computed distance (or ball bound) minus the time since times its
    # speed (padded for rounding).  speed is exact once the pair has been
    # computed and the ball upper bound before.
    speed = _ball_bound(u, pi, pj, 1.0)
    known = np.zeros(len(d), dtype=bool)
    moving = speed > 0.0
    safe_speed = np.where(moving, speed, 1.0)
    d_at, tau_at = d.copy(), np.zeros(len(d))
    slack = 1e-3 * eps_contact
    tau, w = 0.0, v
    for rounds in range(_MAX_ROUNDS + 1):
        # Recompute only the pairs that can still set the minimum of
        # d / speed or touch.
        bounds = np.where(moving, d / safe_speed, np.inf)
        stale = np.ones(len(d), dtype=bool)
        todo = _smallest(bounds)
        while todo.size:
            fresh = todo[~known[todo]]
            if fresh.size:
                speed[fresh] = _pair_speeds(u, pi[fresh], pj[fresh])
                known[fresh] = True
                moving[fresh] = speed[fresh] > 0.0
                safe_speed[fresh] = np.where(moving[fresh], speed[fresh], 1.0)
            d[todo] = _pair_distances(w, pi[todo], pj[todo])
            d_at[todo], tau_at[todo], stale[todo] = d[todo], tau, False
            bounds[todo] = np.where(moving[todo], d[todo] / safe_speed[todo], np.inf)
            best = bounds[~stale].min()
            todo = np.flatnonzero(stale & ((bounds <= best) | (d <= eps_contact)))
        if d[~stale].min() <= eps_contact or rounds == _MAX_ROUNDS:
            return float(tau)
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
