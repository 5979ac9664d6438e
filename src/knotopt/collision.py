"""Segment proximity queries and conservative collision step bounds.

All routines operate on raw vertex arrays so they can be used both to
validate polygons on construction and to bound line-search steps.  Edge i
of a closed polyline with vertices ``V`` runs from ``V[i]`` to
``V[(i+1) % N]``.  "Non-adjacent" edge pairs are those whose closures are
disjoint, i.e. pairs that share no vertex.

Every query prunes with two balls per edge before any exact segment
distance: the ball around the edge's midpoint of radius half its length
(a lower bound on pair distances), and the ball around the mean velocity
of its endpoints of radius half their difference (an upper bound on pair
speeds).  The bounds form a table over the edge pairs (I, J), I < J, built
in blocks of rows, each block from one matrix product of the centred
midpoints; no pairs-sized gather is made.  Only pairs whose bounds cannot
rule them out are computed exactly, so every query returns what computing
all N(N-3)/2 pairs would.

The collision step bound keeps a wake time per pair in an (N - 2) x N
table: the earliest step at which the pair's lower bound on its distance
could reach contact or the smallest ratio of distance to speed of the
round.  A conservative-advancement round computes only the pairs whose wake
time has come, and each computed pair goes back to sleep behind a new wake
time taken from its exact distance.  The wake times and the pair speeds
share one (2, N - 2, N) work array.  A round reads its due pairs a block
of rows at a time and computes them in batches of ``_PAIR_BATCH`` pairs,
writing each batch's wake times back before the next, so however many
pairs a round wakes, the query holds little beyond its two tables.
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
# Pairs with the smallest bounds, computed first in each proximity query;
# rows of smallest wake time, woken first in a collision query.
_PRUNE_BATCH = 64
# Relative rounding pad of the midpoint-ball bounds.
_BOUND_PAD = 1e-12
# Rows in one block of a bound table.
_BLOCK_ROWS = 64
# Pairs in one batch of exact pair work in a collision query.
_PAIR_BATCH = 4096
# A wake time assumes a distance shrunk and a speed grown by these factors,
# twice the pad of the lazy lower bound d (1 - 1e-9) - (tau - tau_at)
# speed (1 + 1e-9) - slack that conservative advancement holds for a pair
# not computed at tau; the margin covers the rounding of the wake time.
_WAKE_SHRINK = 1.0 - 2e-9
_WAKE_GROW = 1.0 + 2e-9
# Relative pad of the wake threshold tau + best.
_WAKE_PAD = 1e-12

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
    (zero-length) segments.  The arguments are float arrays of shape
    (k, m).
    """
    d1 = a1 - a0
    d2 = b1 - b0
    r = a0 - b0
    a = np.einsum("ij,ij->i", d1, d1)
    e = np.einsum("ij,ij->i", d2, d2)
    f = np.einsum("ij,ij->i", d2, r)
    c = np.einsum("ij,ij->i", d1, r)
    b = np.einsum("ij,ij->i", d1, d2)

    tiny = np.finfo(float).tiny
    long_a = a > tiny
    denom = a * e - b * b
    clamped = np.zeros((4, len(a)))
    s, t, s_low, s_high = clamped
    np.divide(b * f - c * e, denom, out=s, where=denom > 0.0)
    np.maximum(s, 0.0, out=s)
    np.minimum(s, 1.0, out=s)
    np.divide(b * s + f, e, out=t, where=e > tiny)
    # s for t clamped to 0 and to 1.
    np.divide(-c, a, out=s_low, where=long_a)
    np.divide(b - c, a, out=s_high, where=long_a)
    limits = clamped[2:]
    np.maximum(limits, 0.0, out=limits)
    np.minimum(limits, 1.0, out=limits)
    np.copyto(s, s_low, where=t < 0.0)
    np.copyto(s, s_high, where=t > 1.0)
    np.maximum(t, 0.0, out=t)
    np.minimum(t, 1.0, out=t)

    diff = a0 + s[:, None] * d1
    diff -= b0 + t[:, None] * d2
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def segment_distance(a0, a1, b0, b1) -> float:
    """Euclidean distance between the closed segments [a0,a1] and [b0,b1]."""
    ends = (np.asarray(p, dtype=float).reshape(1, -1) for p in (a0, a1, b0, b1))
    return float(_segment_distance_batch(*ends)[0])


def _pair_ends(x, pi, pj):
    """Start and end points of edges pi, then of edges pj: shape (4, k, m)."""
    ends = x[np.concatenate((pi, pi + 1, pj, pj + 1)) % len(x)]
    return ends.reshape(4, len(pi), x.shape[1])


def _pair_distances(v, pi, pj):
    return _segment_distance_batch(*_pair_ends(v, pi, pj))


def _pair_speeds(u, pi, pj):
    """Largest relative endpoint speed of each edge pair.

    Relative speeds are constant along linear trajectories; the maximum
    over the four endpoint combinations bounds every point pair on the two
    segments.
    """
    ends = _pair_ends(u, pi, pj)
    return np.linalg.norm(ends[:2, None] - ends[None, 2:], axis=-1).max(axis=(0, 1))


def _edge_balls(x):
    """Centred midpoints, half lengths, squared midpoint norms and the
    linear rounding pad of the edges of the closed polyline ``x``."""
    nxt = np.roll(x, -1, axis=0)
    c = 0.5 * (x + nxt)
    r = 0.5 * np.linalg.norm(nxt - x, axis=1)
    pad = _BOUND_PAD * (np.abs(x).max() + r.max())
    c -= c.mean(axis=0)
    return c, r, np.einsum("ij,ij->i", c, c), pad


def _row_blocks(n):
    """Row ranges ``(lo, hi)`` covering the rows I < N - 2 of a pair table."""
    for lo in range(0, n - 2, _BLOCK_ROWS):
        yield lo, min(lo + _BLOCK_ROWS, n - 2)


def _ball_rows(balls, lo, hi, sign):
    """Rows ``lo:hi`` of the padded ball-bound table, columns ``lo + 2`` on.

    Edge I lies in the ball of radius r_I, half its length, around its
    midpoint c_I.  With ``sign = -1`` entry (I, J) is a lower bound on the
    pair's distance, ``|c_I - c_J| - r_I - r_J``; with ``sign = +1`` an
    upper bound on its largest endpoint difference, ``|c_I - c_J| + r_I +
    r_J``.  ``|c_I - c_J|^2`` is ``|c_I|^2 + |c_J|^2 - 2 c_I.c_J`` of the
    centred midpoints, one matrix product per block, padded in the square
    and linearly far beyond the rounding of the midpoints, the product and
    the exact pair routines.  Entries that are not a non-adjacent pair
    I < J read ``-sign * inf``, so they pass no test a real pair must pass.
    """
    c, r, sq, pad = balls
    n, start = len(c), lo + 2
    bound = sq[lo:hi, None] + sq[start:]
    bound -= 2.0 * (c[lo:hi] @ c[start:].T)
    bound += sign * _BOUND_PAD * sq.max()
    np.maximum(bound, 0.0, out=bound)
    np.sqrt(bound, out=bound)
    reach = r[lo:hi, None] + r[start:]
    reach += pad
    reach *= sign
    bound += reach
    # Entry (lo + k, start + q) has J <= I + 1 when q < k; the pair
    # (0, N - 1) shares vertex 0.
    rows = hi - lo
    bound[:, :rows][np.tri(rows, min(rows, n - start), -1, dtype=bool)] = -sign * np.inf
    if lo == 0:
        bound[0, -1] = -sign * np.inf
    return bound


def _smallest(values):
    """Indices of the ``_PRUNE_BATCH`` smallest values (all if fewer)."""
    if len(values) > _PRUNE_BATCH:
        return np.argpartition(values, _PRUNE_BATCH)[:_PRUNE_BATCH]
    return np.arange(len(values))


def _polyline_length(v) -> float:
    return float(np.linalg.norm(np.roll(v, -1, axis=0) - v, axis=1).sum())


@dataclass(frozen=True)
class ProximityReport:
    """Minimum distance over non-adjacent edge pairs and where it occurs."""

    min_distance: float
    pair: tuple[int, int]


def proximity_report(vertices) -> ProximityReport:
    """Closest non-adjacent edge pair; ties go to the first pair in order.

    The lower-bound table is built a block of rows at a time.  In each
    block the exact distances of the nearest pairs of its rows of smallest
    bound lower a running minimum, and the pairs whose bound is at or below
    it are kept; only the kept pairs whose bound is at or below the final
    minimum can attain it, and only they are computed exactly.
    """
    v = np.asarray(vertices, dtype=float)
    balls = _edge_balls(v)
    best, kept = np.inf, []
    for lo, hi in _row_blocks(len(v)):
        lower = _ball_rows(balls, lo, hi, -1.0)
        nearest = lower.argmin(axis=1)
        row_min = lower[np.arange(hi - lo), nearest]
        rows = _smallest(row_min)
        rows = rows[row_min[rows] <= best]
        if rows.size:
            best = min(best, _pair_distances(v, lo + rows, lo + 2 + nearest[rows]).min())
        i, j = np.nonzero(lower <= best)
        kept.append((lo + i, lo + 2 + j, lower[i, j]))
    pi, pj, bound = (np.concatenate(parts) for parts in zip(*kept))
    keep = bound <= best
    pi, pj = pi[keep], pj[keep]
    d = _pair_distances(v, pi, pj)
    k = int(np.argmin(d))
    return ProximityReport(min_distance=float(d[k]), pair=(int(pi[k]), int(pj[k])))


def min_nonadjacent_distance(vertices) -> float:
    return proximity_report(vertices).min_distance


def _wake_times(tau, dist, speed, reserve):
    """First tau at which pairs at ``dist`` (at ``tau``) moving at most at
    ``speed`` may come within ``reserve``; inf for pairs at rest."""
    wake = np.full(dist.shape, np.inf)
    np.divide(_WAKE_SHRINK * dist - reserve, _WAKE_GROW * speed, out=wake,
              where=speed > 0.0)
    wake += tau
    return wake


def _waking(wake, row_min, after, until):
    """Pairs (i, j) whose wake time lies in (after, until], in row order.

    The rows that may hold such a pair are read ``_BLOCK_ROWS`` at a time,
    and the pairs come in batches of at most ``_PAIR_BATCH``, the last one
    possibly empty.  A batch's pairs lie in rows read before it, so the
    caller may overwrite their wake times before taking the next batch.
    """
    rows = np.flatnonzero(row_min <= until)
    held = np.empty((2, 0), dtype=np.intp)
    for lo in range(0, len(rows), _BLOCK_ROWS):
        block_rows = rows[lo:lo + _BLOCK_ROWS]
        block = wake[block_rows]
        i, j = np.nonzero((block > after) & (block <= until))
        held = np.concatenate((held, (block_rows[i], j)), axis=1)
        while held.shape[1] >= _PAIR_BATCH:
            yield held[:, :_PAIR_BATCH]
            held = held[:, _PAIR_BATCH:]
    yield held


def _measure(w, u, speed_table, pi, pj):
    """Distances at ``w``, speeds and distance / speed (inf at rest) of the
    pairs (pi, pj).  A pair's speed is computed once and kept in
    ``speed_table`` (NaN until then)."""
    speed = speed_table[pi, pj]
    fresh = np.flatnonzero(np.isnan(speed))
    if fresh.size:
        speed[fresh] = _pair_speeds(u, pi[fresh], pj[fresh])
        speed_table[pi[fresh], pj[fresh]] = speed[fresh]
    dist = _pair_distances(w, pi, pj)
    ratio = np.full(len(dist), np.inf)
    np.divide(dist, speed, out=ratio, where=speed > 0.0)
    return dist, speed, ratio


def first_collision_step(polygon_or_vertices, displacement, tau_max: float) -> float:
    """Largest step certified free of self-contact along a linear motion.

    Returns a conservative ``tau_star`` in (0, tau_max] such that
    ``V + tau * U`` has no contact between non-adjacent edges for all
    ``tau < tau_star``.  Uses conservative advancement: each round advances
    by a fraction of ``best``, the minimum over pairs of distance / max
    relative endpoint speed, which lower-bounds every pair's time to contact.

    A pair's distance and speed are computed exactly only when the pair can
    set that minimum or touch.  Until then a lower bound on its distance
    stands in: its last exact distance (at tau = 0, the bound from the
    edges' midpoint balls) less the time since times its speed (exact, or
    the upper bound from the balls around the edges' mean velocities).
    That bound can reach contact at ``tau``, or fall to ``best * speed``
    there, only if the pair's wake time ``K = tau_at + (d_at - slack -
    eps) / speed`` (padded for rounding) is at most ``tau + best``, so a
    round at ``tau`` computes only the pairs with ``K <= tau + best``.

    A round first wakes the pairs with ``K`` up to a guess of ``tau +
    best``.  In the first round the guess comes from the smallest row
    minima of the wake table; later, from the last round's minimum pair,
    its bound grown by the step.  The round then wakes the pairs with
    ``K`` up to ``tau + best`` of what it computed.  A best large enough
    to end the query at ``tau_max`` caps both.  Each computed pair gets a
    new ``K`` from its exact distance as soon as its batch is done and, if
    that lies beyond ``tau + best``, goes back to sleep; a pair of the
    first pass whose new ``K`` falls due in the second is computed again,
    at the same ``tau``, to the same values.

    A pair left asleep has a lower bound above ``best`` and above the
    contact distance, and exact values never fall below a lower bound, so
    the minimum and the contact test of each round, hence every step and
    the result, equal those of computing all pairs exactly.
    """
    v = np.asarray(getattr(polygon_or_vertices, "vertices", polygon_or_vertices), dtype=float)
    u = np.asarray(displacement, dtype=float).reshape(v.shape)
    if tau_max <= 0.0:
        raise ValueError("tau_max must be positive")

    n = len(v)
    eps_contact = CONTACT_SCALE * max(_polyline_length(v), np.finfo(float).tiny)
    reserve = eps_contact + 1e-3 * eps_contact
    # For N >= 4 every vertex pair bounds some non-adjacent edge pair, so
    # all pair speeds are zero exactly when the motion is a translation.
    rigid = bool(np.all(u == u[0]))

    balls = _edge_balls(v)
    speed_balls = None if rigid else _edge_balls(u)
    # Views of the query's one work array: wake times, and pair speeds (NaN
    # until computed).
    wake, speeds = np.full((2, n - 2, n), np.inf)
    near = []
    for lo, hi in _row_blocks(n):
        lower = _ball_rows(balls, lo, hi, -1.0)
        i, j = np.nonzero(lower <= eps_contact)
        near.append((lo + i, lo + 2 + j))
        if not rigid:
            wake[lo:hi, lo + 2:] = _wake_times(0.0, lower, _ball_rows(speed_balls, lo, hi, 1.0),
                                               reserve)
    pi, pj = (np.concatenate(parts) for parts in zip(*near))
    if pi.size:
        closest = _pair_distances(v, pi, pj).min()
        if closest <= eps_contact:
            raise AlreadyColliding(
                f"minimum non-adjacent pair distance {closest:.3e} at start"
            )
    if rigid:
        return float(tau_max)

    row_min = wake.min(axis=1)
    speeds.fill(np.nan)
    # The first round starts from the rows of smallest wake time.
    seeds = min(_PRUNE_BATCH, len(row_min)) - 1
    tau, w, guess = 0.0, v, np.partition(row_min, seeds)[seeds]
    for _ in range(_MAX_ROUNDS):
        # A best of at least `last` ends the query at tau_max, so no pair
        # waking after tau + last is needed (the pad keeps that true after
        # rounding).
        last = (tau_max - tau) / _ADVANCE_FACTOR + _WAKE_PAD * tau_max
        cap = (tau + last) * (1.0 + _WAKE_PAD)
        # Wake the pairs due by the guess, then, while tau + best reaches
        # past what was woken, those due by it; best only falls, so the
        # second pass wakes every pair still due.
        best = closest = np.inf
        after, until = -np.inf, min(guess, cap)
        while until > after:
            for pi, pj in _waking(wake, row_min, after, until):
                dist, speed, ratio = _measure(w, u, speeds, pi, pj)
                best = min(best, ratio.min(initial=np.inf))
                closest = min(closest, dist.min(initial=np.inf))
                wake[pi, pj] = _wake_times(tau, dist, speed, reserve)
            after, until = until, min((tau + best) * (1.0 + _WAKE_PAD), cap)
        if closest <= eps_contact:
            return float(tau)
        # The rows that held a pair due by `after` are the rows computed.
        rows = np.flatnonzero(row_min <= after)
        for lo in range(0, len(rows), _BLOCK_ROWS):
            block_rows = rows[lo:lo + _BLOCK_ROWS]
            row_min[block_rows] = wake[block_rows].min(axis=1)

        step = _ADVANCE_FACTOR * float(best)
        if not np.isfinite(step):
            return float(tau_max)
        if tau + step >= tau_max:
            return float(tau_max)
        if step <= 1e-16 * max(tau, tau_max):
            return float(tau)
        tau += step
        w = v + tau * u
        # The last minimum pair's bound grows at most by the step.
        guess = (tau + float(best) + step) * (1.0 + _WAKE_PAD)
    return float(tau)


def step_bounds(polygon_or_vertices, displacement,
                tau_max: float) -> tuple[float, float]:
    """Step cap and first trial of a line search along a motion.

    Returns ``(min(tau_max, tau*), min(tau_max, 2/3 tau*))``, where ``tau*``
    is the first contact step searched up to ``1.5 * tau_max``: a motion
    with no contact by the cap starts at the full cap rather than two thirds
    of it, and later contact times cannot change either value.  The first
    trial never exceeds the cap.
    """
    tau_star = first_collision_step(polygon_or_vertices, displacement,
                                    1.5 * tau_max)
    return (float(min(tau_max, tau_star)),
            float(min(tau_max, INITIAL_STEP_FACTOR * tau_star)))
