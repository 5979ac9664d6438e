"""Segment proximity queries and conservative collision step bounds.

All routines operate on raw vertex arrays so they can be used both to
validate polygons on construction and to bound line-search steps.  Edge i
of a closed polyline with vertices ``V`` runs from ``V[i]`` to
``V[(i+1) % N]``.  "Non-adjacent" edge pairs are those whose closures are
disjoint, i.e. pairs that share no vertex.

Every query prunes with a ball per edge, around its midpoint c_I of radius
r_I, half its length: edges I and J are at least |c_I - c_J| - r_I - r_J
apart.  The bounds form a table over the pairs (I, J), I < J, built in
blocks of rows, each from one matrix product of the centred midpoints.
Only the pairs that the bounds cannot rule out are computed exactly, so a
proximity query returns what computing all N(N-3)/2 pairs would.
Validation (``_touching``) asks only whether some pair lies within the
contact distance, so it computes only the pairs bounded at or below it.

The collision step bound is conservative advancement (Mirtich, 1996) along
separating directions (C2A; Tang, Kim & Manocha, 2009), so sliding is not
approach.  Δ after a pair is computed, its distance is at least the least
n.(a_i - b_j) + Δ n.(u_{a_i} - u_{b_j}) over its endpoint pairs (i, j), n
along the difference of its closest points, as a linear function is least
over a segment at an endpoint.  Until then the separation of its balls
along c_I - c_J closes at most at rho_I + rho_J - n.(ubar_I - ubar_J), with
ubar and rho the mean and half the difference of an edge's endpoint
velocities, from one more product per block.  A pair's time to contact is
when its bound reaches 0, its wake time when it reaches the contact
distance.  The wake times fill one (N - 2) x N table; a round computes only
the due pairs, in batches of ``_PAIR_BATCH`` written back before the next,
so the query holds little beyond that table, which the thread keeps from
one query to the next.

A query clears its motion when every entry of its first wake table lies
past its first round's cap, ``(tau_max / 0.9 + pad tau_max)(1 + pad)``:
no pair is then computed, the query returns ``tau_max``, and every pair's
padded separation bound stays above the reserve, ``1.001 CONTACT_SCALE
L(v)``, for every step up to ``tau_max``.  The thread keeps that
clearance with a copy of its motion (``_Clearance``; ``_cleared`` returns
it for exactly that motion), and a point on the motion needs no contact
check (``_Clearance.covers``): its pairs are more than the reserve apart,
while ``Polygon`` checks them against ``CONTACT_SCALE`` times the point's
own length.  The reserve's 1e-3 margin must therefore cover how much the
point's length grew, besides the rounding of its coordinates; a point
grown past it is checked as any other.

Rounding, u the unit roundoff: n is scaled by 1 - 2^-48, as |d| and d/|d|
round off by (m/2 + 3) u for d in R^m, m < 50.  The radii carry the pad
``_BOUND_PAD`` (|x|_max + r_max), and |c_I|^2 + |c_J|^2 - 2 c_I.c_J the pad
``_BOUND_PAD`` |c|_max^2 both ways: the balls' n is c_I - c_J over the root
h of the upper side, so |n| <= 1, and the lower side over h bounds n.(c_I
- c_J).  The products with ubar, off by (6m + 8) u |c|_max |ubar|_max, carry
the pad ``_BOUND_PAD`` |c|_max |ubar|_max.  An exact pair's gaps and rates
round off by under 1e-15 relatively, which the times' 2e-9 pads and
``_ADVANCE_FACTOR`` cover, and absolutely by a few u times the coordinates
in the displaced vertices, which the contact reserve covers within 1e4
curve lengths of the origin.  As n.(a_i - b_j) is at least the distance
and n.(u_{b_j} - u_{a_i}) at most the largest endpoint speed, each bound
is, up to the pads, at least the distance over largest endpoint speed.
"""

import threading
from dataclasses import dataclass

import numpy as np

from .errors import AlreadyColliding

# Contact is declared when a pair distance drops below this fraction of the
# total polyline length.
CONTACT_SCALE = 1e-9

# Conservative-advancement safety factor: advance strictly less than the
# per-pair lower bound on time to contact so rounding can never tunnel.
_ADVANCE_FACTOR = 0.9
_MAX_ROUNDS = 128
# Rows of smallest wake time, whose largest row minimum is a collision
# query's first guess of the pairs to wake.
_PRUNE_BATCH = 64
# Relative rounding pad of the ball bounds.
_BOUND_PAD = 1e-12
# Rows in one block of a bound table.  Fixed, not energy's ``_block_rows``
# rule: its 128 rows at N = 192 gave the same bits but made the coil192
# lumped-mass flow about 20 % slower.
_BLOCK_ROWS = 64
# Pairs in one batch of exact pair work in a collision query.
_PAIR_BATCH = 4096
# A time to contact or wake time assumes a gap shrunk and a closing rate
# grown by these factors, far beyond the rounding of either.
_WAKE_SHRINK = 1.0 - 2e-9
_WAKE_GROW = 1.0 + 2e-9
# Relative pad of the wake threshold tau + best.
_WAKE_PAD = 1e-12
# Scale of a pair's closest-point direction: 32 unit roundoffs below 1.
_DIRECTION_SHRINK = 1.0 - 2.0**-48

# Collision-limited line searches start at this fraction of the first
# possible contact step.
INITIAL_STEP_FACTOR = 2.0 / 3.0

# This thread's wake table and the clearance of its last collision query.
_kept = threading.local()


def _closest_parameters(a0, a1, b0, b1):
    """Parameters (s, t) of closest points ``a0 + s (a1 - a0)`` and ``b0 + t
    (b1 - b0)`` of the segments [a0,a1] and [b0,b1], row-wise.

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
    return s[:, None], t[:, None]


def _norms(diff):
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def _segment_pair_distances(a0, a1, b0, b1):
    """Distances between closed segments [a0,a1] and [b0,b1], row-wise."""
    s, t = _closest_parameters(a0, a1, b0, b1)
    diff = a0 + s * (a1 - a0)
    diff -= b0 + t * (b1 - b0)
    return _norms(diff)


def _pair_ends(x, pi, pj):
    """Start and end points of edges pi, then of edges pj: shape (4, k, m)."""
    ends = x[np.concatenate((pi, pi + 1, pj, pj + 1)) % len(x)]
    return ends.reshape(4, len(pi), x.shape[1])


def _pair_distances(v, pi, pj):
    return _segment_pair_distances(*_pair_ends(v, pi, pj))


def _edge_balls(x):
    """Centred midpoints, half lengths, squared midpoint norms and the
    linear rounding pad of the edges of the closed polyline ``x``."""
    nxt = np.roll(x, -1, axis=0)
    c = 0.5 * (x + nxt)
    r = 0.5 * np.linalg.norm(nxt - x, axis=1)
    pad = _BOUND_PAD * (np.abs(x).max() + r.max())
    c -= c.mean(axis=0)
    return c, r, np.einsum("ij,ij->i", c, c), pad


def _motion_balls(balls, u):
    """The stacked ``[c, ubar]`` and ``[ubar, c]``, the padded ``c.ubar`` and
    the padded velocity radii rho of the edges of ``balls`` moving by ``u``."""
    c, sq = balls[0], balls[2]
    ubar, rho, usq, pad = _edge_balls(u)
    along = np.einsum("ij,ij->i", c, ubar)
    along -= 0.5 * _BOUND_PAD * np.sqrt(sq.max() * usq.max())
    return np.hstack((c, ubar)), np.hstack((ubar, c)), along, rho + pad


def _row_blocks(n):
    """Row ranges ``(lo, hi)`` covering the rows I < N - 2 of a pair table."""
    for lo in range(0, n - 2, _BLOCK_ROWS):
        yield lo, min(lo + _BLOCK_ROWS, n - 2)


def _ball_rows(balls, lo, hi, motion=None):
    """Rows ``lo:hi`` of the padded ball-bound tables, columns ``lo + 2`` on.

    Entry (I, J) of the first is a lower bound on the pair's distance,
    ``|c_I - c_J| - r_I - r_J``; given the ``_motion_balls``, on their
    separation along ``(c_I - c_J) / h``, h >= |c_I - c_J|, and of the
    second an upper bound on the rate at which that closes, ``rho_I + rho_J
    - (c_I - c_J).(ubar_I - ubar_J) / h`` (else None; the module docstring
    has the pads).  Non-pairs (J <= I + 1, or 0 and N - 1) bound at inf.
    """
    c, r, sq, pad = balls
    n, start = len(c), lo + 2
    lower = sq[lo:hi, None] + sq[start:]
    lower -= 2.0 * (c[lo:hi] @ c[start:].T)
    closing = None
    if motion is not None:
        h = lower + _BOUND_PAD * sq.max()
        np.sqrt(np.maximum(h, np.finfo(float).tiny, out=h), out=h)
        left, right, along, rho = motion
        closing = left[lo:hi] @ right[start:].T
        closing -= along[lo:hi, None]
        closing -= along[start:]
        closing /= h
        closing += rho[lo:hi, None]
        closing += rho[start:]
    lower -= _BOUND_PAD * sq.max()
    np.maximum(lower, 0.0, out=lower)
    if motion is None:
        np.sqrt(lower, out=lower)
    else:
        lower /= h
    reach = r[lo:hi, None] + r[start:]
    reach += pad
    lower -= reach
    # Entry (lo + k, start + q) has J <= I + 1 when q < k.
    rows = hi - lo
    lower[:, :rows][np.tri(rows, min(rows, n - start), -1, dtype=bool)] = np.inf
    if lo == 0:
        lower[0, -1] = np.inf
    return lower, closing


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
    block the exact distance of each row's nearest pair, for the rows whose
    smallest bound is at or below a running minimum, lowers that minimum,
    and the pairs whose bound is at or below it are kept; only the kept
    pairs whose bound is at or below the final minimum can attain it, and
    only they are computed exactly.
    """
    v = np.asarray(vertices, dtype=float)
    balls = _edge_balls(v)
    best, kept = np.inf, []
    for lo, hi in _row_blocks(len(v)):
        lower = _ball_rows(balls, lo, hi)[0]
        nearest = lower.argmin(axis=1)
        row_min = lower[np.arange(hi - lo), nearest]
        rows = np.flatnonzero(row_min <= best)
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


def _touching(vertices, eps: float) -> bool:
    """Whether two non-adjacent edges of the closed polyline come within ``eps``.

    Only the pairs whose ball bound is at or below ``eps`` are computed
    exactly; the bound is below every other pair's distance.
    """
    v = np.asarray(vertices, dtype=float)
    balls = _edge_balls(v)
    for lo, hi in _row_blocks(len(v)):
        i, j = np.nonzero(_ball_rows(balls, lo, hi)[0] <= eps)
        if i.size and (_pair_distances(v, lo + i, lo + 2 + j) <= eps).any():
            return True
    return False


def _time_to(level, gap, closing, out):
    """Time for gaps closing at most at ``closing`` to reach ``level``, with
    the gap shrunk and the rate grown by the pads: 0 if there already, inf
    if never.  Written to ``out``, which is returned."""
    ahead = _WAKE_SHRINK * gap
    ahead -= level
    out[...] = np.inf
    np.copyto(out, 0.0, where=ahead <= 0.0)
    np.divide(ahead, closing, out=out, where=(ahead > 0.0) & (closing > 0.0))
    out /= _WAKE_GROW
    return out


def _waking(wake, row_min, after, until):
    """Pairs (i, j) whose wake time lies in (after, until], in row order.

    The rows that may hold such a pair are read at most ``_BLOCK_ROWS``
    and about ``_PAIR_BATCH`` entries at a time, and the pairs come in
    batches of at most ``_PAIR_BATCH``, the last one possibly empty.  A
    batch's pairs lie in rows read before it, so the caller may overwrite
    their wake times before taking the next batch.
    """
    rows = np.flatnonzero(row_min <= until)
    read = max(1, min(_BLOCK_ROWS, _PAIR_BATCH // wake.shape[1]))
    held = np.empty((2, 0), dtype=np.intp)
    for lo in range(0, len(rows), read):
        block_rows = rows[lo:lo + read]
        block = wake[block_rows]
        i, j = np.nonzero((block > after) & (block <= until))
        held = np.concatenate((held, (block_rows[i], j)), axis=1)
        while held.shape[1] >= _PAIR_BATCH:
            yield held[:, :_PAIR_BATCH]
            held = held[:, _PAIR_BATCH:]
    yield held


def _wake_cap(tau, tau_max):
    """The latest wake time a round from ``tau`` needs: a ``best`` of at least
    ``(tau_max - tau) / _ADVANCE_FACTOR`` ends the query at ``tau_max``, so
    no pair waking after ``tau`` plus that is due (the pads keep that true
    after rounding)."""
    last = (tau_max - tau) / _ADVANCE_FACTOR + _WAKE_PAD * tau_max
    return (tau + last) * (1.0 + _WAKE_PAD)


def _wake_table(n):
    """The (N - 2) x N wake table, all inf, in an array this thread keeps
    between queries; it grows to the largest N queried."""
    size = (n - 2) * n
    kept = getattr(_kept, "wake", None)
    if kept is None or kept.size < size:
        kept = _kept.wake = np.empty(size)
    wake = kept[:size].reshape(n - 2, n)
    wake.fill(np.inf)
    return wake


@dataclass(frozen=True)
class _Clearance:
    """A motion ``vertices + tau * displacement``, ``0 <= tau <= tau_max``,
    along which every pair's padded separation bound stays above
    ``reserve`` (see ``first_collision_step``); the arrays are copies."""

    vertices: np.ndarray
    displacement: np.ndarray
    tau_max: float
    reserve: float

    def covers(self, w) -> bool:
        """Whether the polyline ``w`` has no pair within ``CONTACT_SCALE``
        times its length, from the motion alone.

        ``w`` lies within ``dev`` of the motion's point at the ``t`` nearest
        to it in least squares (clamped to the motion), ``dev`` the largest
        vertex deviation padded by ``_BOUND_PAD`` times the coordinates for
        the rounding of it and of a distance at ``w``.  A segment pair moves
        by at most twice ``dev``, so each pair of ``w`` is over ``reserve -
        2 dev`` apart, which must exceed the contact distance of ``w``.
        """
        u = self.displacement
        offset = w - self.vertices
        t = min(max(float(np.vdot(offset, u) / np.vdot(u, u)), 0.0), self.tau_max)
        off = offset - t * u
        dev = float(np.sqrt(np.einsum("ij,ij->i", off, off).max()))
        dev += _BOUND_PAD * (np.abs(w).max() + np.abs(offset).max())
        return CONTACT_SCALE * _polyline_length(w) + 2.0 * dev < self.reserve


def _cleared(vertices, displacement):
    """The ``_Clearance`` of this thread's last collision query if that query
    was along exactly this motion and cleared it, else None."""
    clearance = getattr(_kept, "clearance", None)
    if (clearance is None or not np.array_equal(clearance.vertices, vertices)
            or not np.array_equal(clearance.displacement, displacement)):
        return None
    return clearance


def _measure(tau, w, u, pi, pj, reserve):
    """Distances at ``w`` (the vertices at ``tau``) of the pairs (pi, pj),
    their times to contact and their wake times, the times at which their
    separating-direction bounds may reach 0 and ``reserve``."""
    ends = a0, a1, b0, b1 = _pair_ends(w, pi, pj)
    s, t = _closest_parameters(*ends)
    # Formed from the offsets, the difference's rounding does not grow with
    # the coordinates.
    diff = a0 - b0 + s * (a1 - a0) - t * (b1 - b0)
    dist = _norms(diff)
    scale = np.zeros(len(dist))
    np.divide(_DIRECTION_SHRINK, dist, out=scale, where=dist > 0.0)
    normal = diff * scale[:, None]
    gap = np.einsum("ijkm,km->ijk", ends[:2, None] - ends[None, 2:], normal)
    vel = _pair_ends(u, pi, pj)
    closing = np.einsum("ijkm,km->ijk", vel[None, 2:] - vel[:2, None], normal)
    ratio = _time_to(0.0, gap, closing, np.empty_like(gap)).min(axis=(0, 1))
    wake = _time_to(reserve, gap, closing, np.empty_like(gap)).min(axis=(0, 1))
    return dist, ratio, tau + wake


def first_collision_step(vertices, displacement, tau_max: float) -> float:
    """Largest step certified free of self-contact along a linear motion.

    Returns a conservative ``tau_star`` in (0, tau_max] such that
    ``V + tau * U`` has no contact between non-adjacent edges for all
    ``tau < tau_star``.  Each conservative-advancement round advances by a
    fraction of ``best``, the least time to contact of the pairs it
    computes, from their approach speeds along separating directions.  It
    computes the pairs whose wake time ``K`` is at most ``tau + best``; a
    pair left asleep cannot touch by then.  It first wakes the pairs with
    ``K`` up to a guess (the ``_PRUNE_BATCH``-th smallest row minimum of
    the wake table, later the last ``best`` past the new ``tau``), then
    those up to ``tau + best`` of what it computed; a ``best`` that ends
    the query at ``tau_max`` caps both.  Each computed pair gets a new
    ``K`` as soon as its batch is done.  A ``tau_max`` that is not positive
    and finite, or a non-finite vertex or displacement, is a ``ValueError``.
    """
    _kept.clearance = None
    v = np.asarray(vertices, dtype=float)
    u = np.asarray(displacement, dtype=float).reshape(v.shape)
    if not (np.isfinite(tau_max) and tau_max > 0.0):
        raise ValueError("tau_max must be positive and finite")
    if not (np.isfinite(v).all() and np.isfinite(u).all()):
        raise ValueError("vertices and displacement must be finite")

    n = len(v)
    eps_contact = CONTACT_SCALE * max(_polyline_length(v), np.finfo(float).tiny)
    reserve = eps_contact + 1e-3 * eps_contact
    # For N >= 4 every vertex pair bounds some non-adjacent edge pair, so
    # all pair speeds are zero exactly when the motion is a translation.
    rigid = bool(np.all(u == u[0]))

    balls = _edge_balls(v)
    motion = None if rigid else _motion_balls(balls, u)
    wake = _wake_table(n)
    near = []
    for lo, hi in _row_blocks(n):
        lower, closing = _ball_rows(balls, lo, hi, motion)
        i, j = np.nonzero(lower <= eps_contact)
        near.append((lo + i, lo + 2 + j))
        if not rigid:
            _time_to(reserve, lower, closing, wake[lo:hi, lo + 2:])
        del lower, closing  # before the next block's tables are built
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
    if row_min.min() > _wake_cap(0.0, tau_max):
        _kept.clearance = _Clearance(v.copy(), u.copy(), float(tau_max), reserve)
    seeds = min(_PRUNE_BATCH, len(row_min)) - 1
    tau, w, guess = 0.0, v, np.partition(row_min, seeds)[seeds]
    for _ in range(_MAX_ROUNDS):
        cap = _wake_cap(tau, tau_max)
        # Wake the pairs due by the guess, then, while tau + best reaches
        # past what was woken, those due by it; best only falls, so the
        # second pass wakes every pair still due.
        best = closest = np.inf
        after, until = -np.inf, min(guess, cap)
        while until > after:
            for pi, pj in _waking(wake, row_min, after, until):
                dist, ratio, wake[pi, pj] = _measure(tau, w, u, pi, pj, reserve)
                best = min(best, ratio.min(initial=np.inf))
                closest = min(closest, dist.min(initial=np.inf))
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
        guess = (tau + float(best)) * (1.0 + _WAKE_PAD)
    return float(tau)


def step_bounds(vertices, displacement, tau_max: float) -> tuple[float, float]:
    """Step cap and first trial of a line search along a motion.

    Returns ``(min(tau_max, tau*), min(tau_max, 2/3 tau*))``, where ``tau*``
    is the first contact step searched up to ``1.5 * tau_max``: a motion
    with no contact by the cap starts at the full cap rather than two thirds
    of it, and later contact times cannot change either value.  The first
    trial never exceeds the cap.
    """
    tau_star = first_collision_step(vertices, displacement, 1.5 * tau_max)
    return (float(min(tau_max, tau_star)),
            float(min(tau_max, INITIAL_STEP_FACTOR * tau_star)))
