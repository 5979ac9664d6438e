import re
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knotopt as ko
from knotopt import collision
import collision_oracle as frozen
from conftest import random_embedded_polygon, rotation_matrix

UNIT_SQUARE = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def proximity_all_pairs(v):
    """Minimum distance and first closest pair over every pair (oracle)."""
    pi, pj = frozen.nonadjacent_pairs(len(v))
    d = collision._pair_distances(v, pi, pj)
    k = int(np.argmin(d))
    return float(d[k]), (int(pi[k]), int(pj[k]))


def first_collision_step_all_pairs(v, u, tau_max):
    """Conservative advancement computing every pair's separating-direction
    bound each round (oracle)."""
    pi, pj = frozen.nonadjacent_pairs(len(v))
    eps_contact = collision.CONTACT_SCALE * collision._polyline_length(v)
    reserve = eps_contact + 1e-3 * eps_contact
    if np.all(u == u[0]):
        return tau_max
    tau, w = 0.0, v
    for _ in range(collision._MAX_ROUNDS):
        d, ratio, _ = collision._measure(tau, w, u, pi, pj, reserve)
        if d.min() <= eps_contact:
            return tau
        step = collision._ADVANCE_FACTOR * float(ratio.min())
        if not np.isfinite(step) or tau + step >= tau_max:
            return tau_max
        if step <= 1e-16 * max(tau, tau_max):
            return tau
        tau += step
        w = v + tau * u
    return tau


def near_contact_polygon():
    """Vertex 4 hangs 1e-7 above edge 0: pairs (0, 3) and (0, 4) nearly tie."""
    return np.array([(0.0, 0.0), (3.0, 0.0), (3.0, 2.0), (2.0, 2.0),
                     (1.5, 1e-7), (1.0, 2.0), (0.0, 2.0)])


@pytest.fixture
def pair_distance_counts(monkeypatch):
    """Number of pairs each ``_pair_distances`` call computes, in order."""
    counts = []
    pair_distances = collision._pair_distances

    def counting(v, pi, pj):
        counts.append(len(pi))
        return pair_distances(v, pi, pj)

    monkeypatch.setattr(collision, "_pair_distances", counting)
    return counts


@pytest.fixture
def round_pair_counts(monkeypatch):
    """Pairs computed in each round of ``first_collision_step``, in order.

    The rounds of one query are told apart by the displaced vertices they
    measure at; clear the list between queries.
    """
    counts = []
    measure = collision._measure
    last = []

    def counting(tau, w, u, pi, pj, reserve):
        if not counts or w is not last[-1]:
            counts.append(0)
            last.append(w)
        counts[-1] += len(pi)
        return measure(tau, w, u, pi, pj, reserve)

    monkeypatch.setattr(collision, "_measure", counting)
    return counts


@pytest.fixture(scope="module")
def grazing_queries():
    """Collision queries of the first 10 projgd iterations of the L2 flow on
    ``coiled_unknot(192)``; the old bound needed ``_MAX_ROUNDS`` for one."""
    queries = []
    step = collision.first_collision_step

    def record(polygon, u, tau_max):
        v = np.asarray(getattr(polygon, "vertices", polygon), dtype=float)
        queries.append((v.copy(), np.asarray(u, dtype=float).reshape(v.shape).copy(), tau_max))
        return step(polygon, u, tau_max)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(collision, "first_collision_step", record)
        ko.run(ko.coiled_unknot(192), ko.OptimizerConfig(method="projgd", metric=ko.L2,
                                                          max_iter=10))
    return queries


def segment_corpus(rng, k, dim):
    """Random segment pairs, with degenerate, parallel, collinear, equal and
    touching pairs mixed in, at tiny, unit and huge scales and offsets."""
    a0, b0 = rng.standard_normal((2, k, dim))
    a1 = a0 + rng.standard_normal((k, dim))
    b1 = b0 + rng.standard_normal((k, dim))
    kind = rng.integers(0, 8, k)
    a1[kind == 1] = a0[kind == 1]                    # zero-length first segment
    b1[kind == 2] = b0[kind == 2]                    # zero-length second segment
    a1[kind == 3], b1[kind == 3] = a0[kind == 3], b0[kind == 3]
    d = a1 - a0
    sel = kind == 4                                  # parallel, overlapping span
    b0[sel] = a0[sel] + 0.3 * d[sel] + 0.1 * rng.standard_normal((sel.sum(), dim))
    b1[sel] = b0[sel] + 2.0 * d[sel]
    sel = kind == 5                                  # collinear, disjoint
    b0[sel], b1[sel] = a0[sel] + 3.0 * d[sel], a0[sel] + 5.0 * d[sel]
    sel = kind == 6                                  # the same segment
    b0[sel], b1[sel] = a0[sel], a1[sel]
    sel = kind == 7                                  # touching at an endpoint
    b0[sel] = a1[sel]
    scale = rng.choice((1e-8, 1.0, 1e8), (k, 1))
    shift = rng.choice((0.0, 1e4), (k, 1))
    return [x * scale + shift for x in (a0, a1, b0, b1)]


def segment_distance(a0, a1, b0, b1):
    """Distance between the closed segments [a0,a1] and [b0,b1], as one row
    of ``collision._segment_pair_distances``."""
    ends = (np.asarray(p, dtype=float).reshape(1, -1) for p in (a0, a1, b0, b1))
    return float(collision._segment_pair_distances(*ends)[0])


class TestSegmentDistance:
    def test_parallel_offset(self):
        assert segment_distance((0, 0), (1, 0), (0, 0.75), (1, 0.75)) == 0.75

    def test_crossing_segments(self):
        d = segment_distance((0, 0), (1, 1), (0, 1), (1, 0))
        assert d <= 1e-12

    def test_skew_3d_pair(self):
        # Brute-force sampling oracle for the stated closed-form value 1.0.
        a0, a1 = np.array([0.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0])
        b0, b1 = np.array([0.5, -1.0, 1.0]), np.array([0.5, 1.0, 1.0])
        s = np.linspace(0, 1, 801)
        pa = a0 + s[:, None] * (a1 - a0)
        pb = b0 + s[:, None] * (b1 - b0)
        oracle = np.sqrt(
            ((pa[:, None, :] - pb[None, :, :]) ** 2).sum(axis=2)
        ).min()
        assert segment_distance(a0, a1, b0, b1) == pytest.approx(1.0, abs=1e-12)
        assert oracle == pytest.approx(1.0, abs=1e-5)

    def test_degenerate_point_segment(self):
        assert segment_distance((0, 0), (0, 0), (1, 0), (1, 1)) == 1.0

    @settings(max_examples=40, deadline=None)
    @given(data=st.integers(0, 10**9))
    def test_symmetry_and_rigid_invariance(self, data):
        rng = np.random.default_rng(data)
        pts = rng.uniform(-2, 2, size=(4, 3))
        d1 = segment_distance(pts[0], pts[1], pts[2], pts[3])
        d2 = segment_distance(pts[2], pts[3], pts[0], pts[1])
        assert d1 == pytest.approx(d2, rel=1e-12, abs=1e-12)
        r = rotation_matrix(3, rng, plane=(0, 1))
        shift = rng.standard_normal(3)
        moved = pts @ r.T + shift
        d3 = segment_distance(moved[0], moved[1], moved[2], moved[3])
        assert d3 == pytest.approx(d1, rel=1e-10, abs=1e-12)


class TestProximityReport:
    def test_reports_closest_pair(self):
        report = ko.proximity_report(UNIT_SQUARE)
        assert report.min_distance == pytest.approx(1.0)
        assert report.pair in ((0, 2), (1, 3))

    @pytest.mark.parametrize("make", (
        lambda: ko.coiled_unknot(96, windings=4).vertices,
        lambda: ko.coiled_unknot(192, windings=4).vertices + 1e3,
        lambda: ko.torus_knot(2, 3, 60).vertices,
        lambda: random_embedded_polygon(7, dim=2, seed=7).vertices,
        lambda: random_embedded_polygon(30, dim=3, seed=30).vertices,
        lambda: random_embedded_polygon(80, dim=3, seed=80).vertices,
        near_contact_polygon,
        lambda: ko.regular_ngon(12).vertices,
    ), ids=("coil", "coil-shifted", "trefoil", "random7", "random30", "random80",
            "near-contact", "ngon12"))
    def test_matches_all_pairs_oracle(self, make):
        # Same value and same pair: ties go to the first pair in order.
        v = make()
        report = ko.proximity_report(v)
        assert (report.min_distance, report.pair) == proximity_all_pairs(v)

    def test_peak_memory_stays_in_row_blocks(self):
        # The pair-list broad phase gathered five pairs-sized arrays from the
        # N x N product, about 2 N x N tables at its peak.
        v = ko.coiled_unknot(1536, windings=4).vertices
        tracemalloc.start()
        try:
            ko.proximity_report(v)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25 * len(v) ** 2 * 8

    def test_exact_distances_only_for_candidates(self, pair_distance_counts):
        v = ko.coiled_unknot(384, windings=4).vertices
        ko.proximity_report(v)
        computed = sum(pair_distance_counts)
        assert 0 < computed < len(frozen.nonadjacent_pairs(len(v))[0]) // 100


    def test_validation_computes_no_distance_of_a_separated_curve(self, pair_distance_counts):
        # Validation asks only whether a pair is within the contact distance:
        # no pair of the coil has a ball bound that low, so no exact
        # distance is computed (the closest-pair query computes some).
        ko.Polygon(ko.coiled_unknot(384, windings=4).vertices)
        assert pair_distance_counts == []

    def test_self_intersection_names_the_closest_pair(self):
        v = near_contact_polygon()
        v[4, 1] = 1e-12
        report = ko.proximity_report(v)
        with pytest.raises(ko.SelfIntersection, match=re.escape(f"edges {report.pair} ")):
            ko.Polygon(v)


class TestBallBound:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), dim=st.sampled_from((2, 3)),
           scale=st.sampled_from((1e-6, 1.0, 1e6)), shift=st.sampled_from((0.0, 1e6)))
    def test_bounds_bracket_exact_values(self, seed, dim, scale, shift):
        # The rounding pads must hold for tiny, huge and off-centre curves:
        # a pair's ball bound, less the time times its closing-rate bound,
        # stays below its distance, measured in extended precision.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 40))
        v = scale * random_embedded_polygon(n, dim=dim, seed=seed).vertices + shift
        u = scale * rng.standard_normal(v.shape) + shift
        pi, pj = frozen.nonadjacent_pairs(n)
        balls = collision._edge_balls(v)
        lower, closing = collision._ball_rows(balls, 0, n - 2, collision._motion_balls(balls, u))
        lower, closing = lower[pi, pj - 2], closing[pi, pj - 2]
        assert np.all(lower <= collision._pair_distances(v, pi, pj))
        for delta in (0.25, 1.0, 4.0):
            moved = v.astype(np.longdouble) + delta * u.astype(np.longdouble)
            assert np.all(lower - delta * closing <= collision._pair_distances(moved, pi, pj))


def pruned_corpus(rng):
    """Queries (v, u, tau_max) on coils, trefoils (one offset by 1e4),
    random 2-D and 3-D curves and a 12-gon, at four field scales, each
    field with a rigid arc whose pairs do not move."""
    cases = [(ko.coiled_unknot(96, windings=4), 1.5), (ko.torus_knot(2, 3, 60), 1.0)]
    cases += [(random_embedded_polygon(n, dim=dim, seed=n), 5.0)
              for n, dim in ((7, 2), (30, 3), (80, 3), (31, 2), (64, 2))]
    cases += [(ko.Polygon(ko.torus_knot(2, 3, 60).vertices + 1e4), 1.0),
              (ko.regular_ngon(12), 10.0)]
    for p, tau_max in cases:
        for scale in (0.05, 0.2, 1.0, 20.0):
            u = scale * p.edge_lengths.mean() * rng.standard_normal(p.vertices.shape)
            u[: p.num_vertices // 3] = u[0]
            yield p.vertices, u, tau_max


DEFAULT_PAIR_BATCH, DEFAULT_PRUNE_BATCH = collision._PAIR_BATCH, collision._PRUNE_BATCH


def with_default_batches(v, u, tau_max):
    """The step bound with the module's own batch sizes."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(collision, "_PAIR_BATCH", DEFAULT_PAIR_BATCH)
        patch.setattr(collision, "_PRUNE_BATCH", DEFAULT_PRUNE_BATCH)
        return collision.first_collision_step(v, u, tau_max)


class TestFirstCollisionStep:
    def test_uniform_translation_never_collides(self):
        u = np.tile([0.4, -0.2], (4, 1))
        assert ko.first_collision_step(UNIT_SQUARE, u, 5.0) == 5.0

    def test_zero_field(self):
        assert ko.first_collision_step(UNIT_SQUARE, np.zeros((4, 2)), 2.0) == 2.0

    def test_closing_square_edges(self):
        # Bottom edge moves up, top edge moves down, both at unit speed:
        # analytic contact at tau = 0.5; the bound must stay conservative.
        u = np.array([(0.0, 1.0), (0.0, 1.0), (0.0, -1.0), (0.0, -1.0)])
        tau = ko.first_collision_step(UNIT_SQUARE, u, 1.0)
        assert 0.45 <= tau <= 0.5

    def test_already_colliding(self):
        vertices = np.array([(0, 0), (1, 0), (1, 1e-15), (0, 1e-15)], dtype=float)
        with pytest.raises((ko.AlreadyColliding, ko.KnotOptError)):
            ko.first_collision_step(vertices, np.zeros((4, 2)), 1.0)

    @pytest.mark.parametrize("tau_max", [np.nan, np.inf])
    def test_non_finite_tau_max_rejected(self, tau_max, rng):
        p = ko.coiled_unknot(48, windings=2)
        u = 1e-2 * rng.standard_normal(p.vertices.shape)
        with pytest.raises(ValueError, match="tau_max"):
            ko.first_collision_step(p.vertices, u, tau_max)
        with pytest.raises(ValueError, match="tau_max"):
            ko.step_bounds(p.vertices, u, tau_max)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["vertices", "displacement"])
    def test_non_finite_motion_rejected(self, where, bad, rng):
        p = ko.coiled_unknot(48, windings=2)
        arrays = {"vertices": p.vertices.copy(),
                  "displacement": 1e-2 * rng.standard_normal(p.vertices.shape)}
        arrays[where][5, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            ko.first_collision_step(arrays["vertices"], arrays["displacement"], 1.0)

    def test_soundness_property(self):
        # For any tau below the reported bound, the brute-force pair
        # distances at the displaced polygon stay strictly positive.
        for seed in range(6):
            rng = np.random.default_rng(seed)
            p = random_embedded_polygon(24, dim=3, seed=seed)
            u = rng.standard_normal(p.vertices.shape)
            u *= p.total_length / (p.num_vertices * np.abs(u).max())
            tau_star = ko.first_collision_step(p.vertices, u, 10.0)
            for frac in (0.25, 0.6, 0.9, 0.999):
                moved = p.vertices + frac * tau_star * u
                assert ko.proximity_report(moved).min_distance > 0.0

    @pytest.mark.parametrize("batch", (1, collision._PRUNE_BATCH))
    def test_pruned_rounds_match_all_pairs_oracle(self, batch, rng, monkeypatch):
        # Computing only the pairs whose wake time falls due must give the
        # step of computing every pair each round.  A pair left asleep keeps
        # the bound of the direction it was last computed along, so the
        # steps agree to about 1e-8, not bitwise.  A batch of one makes each
        # round find the remaining candidates itself.
        monkeypatch.setattr(collision, "_PRUNE_BATCH", batch)
        for v, u, tau_max in pruned_corpus(rng):
            expected = first_collision_step_all_pairs(v, u, tau_max)
            assert collision.first_collision_step(v, u, tau_max) == \
                pytest.approx(expected, rel=1e-6)

    def test_rigid_translation_computes_no_pair(self, rng, pair_distance_counts):
        # A rigid translation moves no pair: the ball bounds alone clear the
        # start, and no pair distance is computed.
        p = ko.coiled_unknot(384)
        u = np.tile(rng.standard_normal(p.dim), (p.num_vertices, 1))
        pair_distance_counts.clear()
        assert ko.first_collision_step(p.vertices, u, 1.5) == 1.5
        assert pair_distance_counts == []

    def test_peak_memory_of_a_dense_round(self, round_pair_counts):
        # Shrinking the coil towards its centroid closes every pair at the
        # same rate, so the first round wakes them all; the query then ends
        # at tau_max.  Computed in one batch, with the due pairs gathered
        # from a copy of their rows, such a round peaked at 13 tables of
        # (N - 2) x N doubles.
        v = ko.coiled_unknot(1536).vertices
        u = v.mean(axis=0) - v
        n = len(v)
        tracemalloc.start()
        try:
            assert collision.first_collision_step(v, u, 0.95) == 0.95
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(round_pair_counts) >= n * (n - 3) / 6
        # Beyond the wake table: a batch's pair work, about 1 KiB a pair,
        # or the few 64-row blocks of the ball-bound tables.
        assert peak <= (n - 2) * n * 8 + collision._PAIR_BATCH * 1024


class TestSeparatingBound:
    """The separating-direction bound: sound, and never below the frozen
    loop of the bound it replaced."""

    @staticmethod
    def check_sound(v, u, tau_star):
        # The all-pairs minimum distance stays positive on [0, tau_star).
        samples = np.linspace(0.0, tau_star, 64, endpoint=False)
        for tau in (*samples, np.nextafter(tau_star, 0.0)):
            assert proximity_all_pairs(v + tau * u)[0] > 0.0

    def test_sound_on_pruned_corpus(self, rng):
        for v, u, tau_max in pruned_corpus(rng):
            self.check_sound(v, u, collision.first_collision_step(v, u, tau_max))

    def test_sound_on_grazing_queries(self, grazing_queries):
        for v, u, tau_max in grazing_queries:
            self.check_sound(v, u, collision.first_collision_step(v, u, tau_max))

    def test_at_least_frozen_step_on_pruned_corpus(self, rng):
        for v, u, tau_max in pruned_corpus(rng):
            expected = frozen.first_collision_step(v, u, tau_max)
            assert collision.first_collision_step(v, u, tau_max) >= (1.0 - 1e-6) * expected

    def test_at_least_frozen_step_in_fewer_rounds(self, grazing_queries, monkeypatch,
                                                  round_pair_counts):
        # The frozen loop's rounds are told apart by the vertices at which
        # it measures.
        frozen_rounds = []
        pair_distances = frozen._pair_distances

        def counting(w, pi, pj):
            if not frozen_rounds or w is not frozen_rounds[-1]:
                frozen_rounds.append(w)
            return pair_distances(w, pi, pj)

        monkeypatch.setattr(frozen, "_pair_distances", counting)
        rounds = []
        for v, u, tau_max in grazing_queries:
            round_pair_counts.clear()
            expected = frozen.first_collision_step(v, u, tau_max)
            assert collision.first_collision_step(v, u, tau_max) >= (1.0 - 1e-6) * expected
            rounds.append(len(round_pair_counts))
        assert max(rounds) < collision._MAX_ROUNDS
        assert 4 * sum(rounds) <= len(frozen_rounds)


class TestFrozenLoop:
    """Bit-identical results whatever the batch sizes, and the exact pair
    kernel against the frozen loop's."""

    @pytest.mark.parametrize("batch", (1, collision._PRUNE_BATCH))
    def test_same_result_on_pruned_corpus(self, batch, rng, monkeypatch):
        monkeypatch.setattr(collision, "_PRUNE_BATCH", batch)
        for v, u, tau_max in pruned_corpus(rng):
            assert collision.first_collision_step(v, u, tau_max) == \
                with_default_batches(v, u, tau_max)

    def test_same_result_on_grazing_queries(self, grazing_queries, monkeypatch):
        for batch in (1, collision._PRUNE_BATCH):
            monkeypatch.setattr(collision, "_PRUNE_BATCH", batch)
            for v, u, tau_max in grazing_queries:
                assert collision.first_collision_step(v, u, tau_max) == \
                    with_default_batches(v, u, tau_max)

    def test_rounds_compute_only_waking_pairs(self, grazing_queries, round_pair_counts):
        # After the first round a grazing query computes a few pairs per
        # round, not the N (N - 3) / 2 that every round used to rebuild.
        n = len(grazing_queries[0][0])
        long_queries = 0
        for v, u, tau_max in grazing_queries:
            round_pair_counts.clear()
            collision.first_collision_step(v, u, tau_max)
            if len(round_pair_counts) >= 10:
                long_queries += 1
                assert max(round_pair_counts[1:]) < n * (n - 3) / 20
        assert long_queries

    @pytest.mark.parametrize("dim", (2, 3))
    def test_pair_kernels_bitwise_equal(self, dim, rng):
        for k in (1, 7, 64, 500):
            for _ in range(10):
                ends = segment_corpus(rng, k, dim)
                assert (collision._segment_pair_distances(*ends).tobytes()
                        == frozen._segment_distance_batch(*ends).tobytes())


class TestPairBatches(TestFrozenLoop):
    """The batch-invariance and all-pairs checks with every round's pairs
    split over several batches, each written back before the next is taken."""

    @pytest.fixture(autouse=True, params=(1, 7))
    def pair_batch(self, request, monkeypatch):
        monkeypatch.setattr(collision, "_PAIR_BATCH", request.param)

    test_pruned_rounds_match_all_pairs_oracle = \
        TestFirstCollisionStep.test_pruned_rounds_match_all_pairs_oracle


class TestInitialStep:
    def test_two_thirds_rule(self):
        # Engineered contact time 0.3: gap 1 closing at relative speed 10/3.
        u = np.array([(0.0, 5.0 / 3.0), (0.0, 5.0 / 3.0),
                      (0.0, -5.0 / 3.0), (0.0, -5.0 / 3.0)])
        tau_star = ko.first_collision_step(UNIT_SQUARE, u, 1.0)
        assert tau_star == pytest.approx(0.3, abs=1e-6)
        tau0 = ko.step_bounds(UNIT_SQUARE, u, 1.0)[1]
        assert tau0 == pytest.approx(0.2, abs=1e-6)
        assert tau0 == pytest.approx(2.0 / 3.0 * tau_star, rel=1e-12)

    def test_no_collision_uses_cap(self):
        u = np.tile([1.0, 0.0], (4, 1))
        assert ko.step_bounds(UNIT_SQUARE, u, 1.0)[1] == 1.0

    def test_collision_at_cap(self):
        # Contact at exactly tau_max == 1 gives the plain two-thirds start.
        u = np.array([(0.0, 0.5), (0.0, 0.5), (0.0, -0.5), (0.0, -0.5)])
        tau_star = ko.first_collision_step(UNIT_SQUARE, u, 1.0)
        assert tau_star == pytest.approx(1.0, abs=1e-6)
        assert ko.step_bounds(UNIT_SQUARE, u, 1.0)[1] == pytest.approx(2.0 / 3.0, abs=1e-6)

    @pytest.mark.parametrize("speed", [0.0, 5.0 / 3.0, 5.0 / 12.0],
                             ids=["unobstructed", "contact-0.3", "contact-1.2"])
    def test_cap_and_start_from_one_contact_search(self, speed):
        # Gap 1 closing at relative speed 2 * speed; the contact search runs
        # to 1.5 * tau_max, so a contact between the cap and 1.5 caps the
        # step but still shortens the start.
        u = np.array([(1.0, speed), (1.0, speed), (1.0, -speed), (1.0, -speed)])
        tau_max = 1.0
        tau_star = ko.first_collision_step(UNIT_SQUARE, u, 1.5 * tau_max)
        cap, start = ko.step_bounds(UNIT_SQUARE, u, tau_max)
        assert cap == min(tau_max, tau_star)
        assert start == min(tau_max, 2.0 / 3.0 * tau_star)
        assert start <= cap
        if speed == 0.0:
            assert tau_star == 1.5 and (cap, start) == (1.0, 1.0)
        else:
            assert tau_star == pytest.approx(0.5 / speed, abs=1e-6)


def smooth_field(rng, n, dim, harmonics=4):
    """A field of a few low harmonics along the curve, peak 1 per coordinate."""
    angle = 2.0 * np.pi * np.arange(n) / n
    field = sum(np.cos(k * angle[:, None] + rng.uniform(0.0, 2.0 * np.pi, dim))
                * rng.standard_normal(dim) for k in range(harmonics))
    return field / np.abs(field).max()


class TestClearance:
    """A query whose initial wake table clears its motion certifies every
    point along it: no pair comes within the contact reserve."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), dim=st.sampled_from((2, 3)),
           scale=st.sampled_from((0.05, 0.3, 1.0, 3.0)))
    def test_cleared_motion_validates_along_its_length(self, seed, dim, scale):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 60))
        p = random_embedded_polygon(n, dim=dim, seed=seed)
        u = scale * p.edge_lengths.mean() * smooth_field(rng, n, dim)
        tau_max = 1.5
        assert collision.first_collision_step(p.vertices, u, tau_max) > 0.0
        clearance = collision._cleared(p.vertices, u)
        if clearance is None:
            return
        assert clearance.tau_max == tau_max
        assert clearance.covers(p.vertices)
        for t in np.append(rng.uniform(0.0, tau_max, 4), tau_max):
            w = p.vertices + t * u
            ko.Polygon(w)
            assert proximity_all_pairs(w)[0] > clearance.reserve
            # What the clearance covers passes validation.
            if clearance.covers(w):
                assert proximity_all_pairs(w)[0] > collision.CONTACT_SCALE * \
                    collision._polyline_length(w)

    def test_clearance_is_tied_to_its_motion(self):
        p = ko.coiled_unknot(96)
        centred = p.vertices - p.vertices.mean(axis=0)
        grow, shrink = 0.01 * centred, -0.9 * centred
        assert collision.first_collision_step(p.vertices, grow, 1.5) == 1.5
        clearance = collision._cleared(p.vertices, grow)
        assert clearance is not None and clearance.reserve == pytest.approx(
            1.001 * collision.CONTACT_SCALE * p.total_length, rel=1e-12)
        assert collision._cleared(p.vertices, 2.0 * grow) is None
        assert collision._cleared(p.vertices + 1e-3, grow) is None
        # The motion's end is 1.5 % longer: past the reserve's margin.
        assert not clearance.covers(p.vertices + 1.5 * grow)
        assert clearance.covers(p.vertices + 1e-5 * grow)
        # Off the motion by more than the margin.
        assert not clearance.covers(p.vertices + 1e-5 * grow + 1e-8)
        # Shrinking the coil to a tenth wakes every pair: not cleared, and
        # the query replaces the last clearance.
        collision.first_collision_step(p.vertices, shrink, 1.5)
        assert collision._cleared(p.vertices, shrink) is None
        assert collision._cleared(p.vertices, grow) is None

    def test_threads_keep_their_own_clearance(self):
        p = ko.coiled_unknot(96)
        grow = 0.01 * (p.vertices - p.vertices.mean(axis=0))
        collision.first_collision_step(p.vertices, grow, 1.5)
        seen = []
        thread = threading.Thread(target=lambda: seen.append(
            collision._cleared(p.vertices, grow)))
        thread.start()
        thread.join(timeout=60)
        assert seen == [None]
        assert collision._cleared(p.vertices, grow) is not None

    def test_second_query_allocates_no_wake_table(self):
        # The (N - 2) x N wake table is kept by the thread and refilled.
        p = ko.coiled_unknot(768)
        u = 0.01 * (p.vertices - p.vertices.mean(axis=0))
        table = (p.num_vertices - 2) * p.num_vertices * 8
        collision.first_collision_step(p.vertices, u, 1.5)
        tracemalloc.start()
        try:
            assert collision.first_collision_step(p.vertices, u, 1.5) == 1.5
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5 * table
