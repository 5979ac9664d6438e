import importlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import knotopt as ko
from knotopt.energy import MIDPOINT, _pair_blocks
from knotopt.metric import _density_table
import pairlist_oracle as oracle
from conftest import dense_hessian, random_embedded_polygon, rotation_matrix, seminorm

UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
# The module itself: ``knotopt.energy`` is also the name of the function.
ENERGY_MODULE = importlib.import_module("knotopt.energy")


def fd_gradient(polygon, quad_rule, step):
    v = polygon.vertices
    flat = v.ravel()
    grad = np.zeros_like(flat)
    for k in range(flat.size):
        up = flat.copy()
        up[k] += step
        dn = flat.copy()
        dn[k] -= step
        e_up = float(ko.energy(ko.Polygon(up.reshape(v.shape), validate=False), quad_rule))
        e_dn = float(ko.energy(ko.Polygon(dn.reshape(v.shape), validate=False), quad_rule))
        grad[k] = (e_up - e_dn) / (2 * step)
    return grad


class TestIntegrand:
    def test_antipodal_circle_pair(self):
        # Two antipodal points on the unit circle with the circle tangents:
        # the integrand cancels exactly.
        f = oracle.in_integrand(
            (1.0, -0.5), (1.0, 0.5),     # right edge, tangent (0, 1)
            (-1.0, 0.5), (-1.0, -0.5),   # left edge, tangent (0, -1)
            0.5, 0.5,
        )
        assert f == 0.0

    def test_parallel_tangents_orthogonal_offset(self):
        # tau_i = tau_j and the chord orthogonal to them: only the middle
        # term survives, 2 / |dg|^2.
        f = oracle.in_integrand(
            (0.0, 0.0), (1.0, 0.0),
            (0.0, 3.0), (1.0, 3.0),
            0.5, 0.5,
        )
        assert f == pytest.approx(2.0 / 9.0, rel=1e-14)

    def test_unit_square_opposite_midpoints(self):
        f = oracle.in_integrand(
            (0.0, 0.0), (1.0, 0.0),
            (1.0, 1.0), (0.0, 1.0),
            0.5, 0.5,
        )
        assert f == 0.0

    def test_coincident_points(self):
        with pytest.raises(ko.CoincidentPoints):
            oracle.in_integrand((0, 0), (1, 0), (0.5, 0), (0.5, 1), 0.5, 0.0)


class TestLocalContribution:
    def test_unit_square_pair_exact_zero(self):
        p = ko.Polygon(UNIT_SQUARE)
        assert oracle.local_contribution(p, 0, 2) == 0.0

    def test_adjacent_rejected(self):
        p = ko.Polygon(UNIT_SQUARE)
        with pytest.raises(oracle.AdjacentEdges):
            oracle.local_contribution(p, 0, 1)

    def test_scale_invariance(self):
        p = random_embedded_polygon(12, seed=1)
        q = ko.Polygon(1.7 * p.vertices)
        for pair in ((0, 4), (2, 9)):
            w_p = oracle.local_contribution(p, *pair)
            w_q = oracle.local_contribution(q, *pair)
            assert w_q == pytest.approx(w_p, rel=1e-13)

    def test_quadrature_refinement(self):
        # Richardson-style comparison: increasing node counts converge to
        # the k=16 reference; four matching digits are reached by k=8.
        p = ko.perturbed_circle(64)
        reference = oracle.local_contribution(p, 0, 32, ko.QuadratureRule.gauss(16))
        errors = [
            abs(oracle.local_contribution(p, 0, 32, ko.QuadratureRule.gauss(k)) - reference)
            for k in (1, 2, 4, 8)
        ]
        assert errors[0] > 0
        assert all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
        assert errors[-1] <= 1e-4 * abs(reference)

    def test_regular_polygon_midpoint_exactness(self):
        # Edge midpoints of a regular polygon lie on a circle whose
        # tangents are the edge directions, so the one-node contribution
        # vanishes identically while higher-order rules see a positive
        # value.
        p = ko.regular_ngon(64)
        assert abs(oracle.local_contribution(p, 0, 32)) < 1e-30
        assert oracle.local_contribution(p, 0, 32, ko.QuadratureRule.gauss(8)) > 0


class TestEnergy:
    def test_unit_square_exactly_four(self):
        assert float(ko.energy(ko.Polygon(UNIT_SQUARE))) == 4.0

    def test_regular_ngon_machine_exact(self):
        # One-node quadrature reproduces exact circle geometry on regular
        # polygons; the defect is pure floating-point accumulation.
        for n in (32, 128, 512):
            defect = abs(float(ko.energy(ko.regular_ngon(n))) - 4.0)
            assert defect <= 64 * n * np.finfo(float).eps

    def test_two_node_rule_monotone_convergence(self):
        rule = ko.QuadratureRule.gauss(2)
        defects = [
            float(ko.energy(ko.regular_ngon(n), rule)) - 4.0
            for n in (32, 64, 128, 256)
        ]
        assert all(d > 0 for d in defects)
        assert all(defects[i + 1] < defects[i] for i in range(len(defects) - 1))

    def test_rigid_motion_invariance(self, rng):
        p = random_embedded_polygon(14, dim=3, seed=4)
        r = rotation_matrix(3, rng, plane=(1, 2))
        q = ko.Polygon(p.vertices @ r.T + rng.standard_normal(3))
        reflected = ko.Polygon(p.vertices * np.array([1.0, -1.0, 1.0]))
        e = float(ko.energy(p))
        assert float(ko.energy(q)) == pytest.approx(e, rel=1e-12)
        assert float(ko.energy(reflected)) == pytest.approx(e, rel=1e-12)

    def test_scaling_invariance(self):
        p = random_embedded_polygon(14, seed=6)
        assert float(ko.energy(ko.Polygon(2.0 * p.vertices))) == pytest.approx(
            float(ko.energy(p)), rel=1e-13
        )


def density(p, i, s, j, t):
    """The metric's density table ``1/|d|^2 - 1/rho^2`` between node s of edge
    i and node t of edge j, on the ``q`` table of the edge-pair walk."""
    rule = ko.QuadratureRule(np.array([s, t]), np.array([0.5, 0.5]))
    (rows, pairs), = _pair_blocks(p, rule, rows=p.num_vertices)
    tables = {(si, ti): _density_table(p, rows, si, ti, q) for _, si, ti, _, q in pairs}
    return float(tables[s, t][i, j])


class TestEnergyDensity:
    def test_antipodal_midpoints_closed_form(self):
        n = 16
        p = ko.regular_ngon(n)
        chord = 2.0 * np.cos(np.pi / n)  # two apothems of the unit n-gon
        expected = 1.0 / chord**2 - 4.0 / p.total_length**2
        assert density(p, 0, 0.5, n // 2, 0.5) == pytest.approx(expected, rel=1e-13)

    def test_near_diagonal_small(self):
        p = ko.regular_ngon(64)
        assert 0.0 <= density(p, 0, 0.5, 2, 0.5) < 1.0

    def test_scaling_degree(self):
        p = random_embedded_polygon(12, seed=9)
        q = ko.Polygon(2.0 * p.vertices)
        assert density(q, 1, 0.25, 6, 0.75) == pytest.approx(
            0.25 * density(p, 1, 0.25, 6, 0.75), rel=1e-13
        )


class TestGradient:
    def test_translation_zero_sum(self):
        p = random_embedded_polygon(12, dim=3, seed=10)
        g = ko.d_energy(p).reshape(-1, 3)
        assert np.abs(g.sum(axis=0)).max() <= 1e-12 * np.abs(g).max()

    def test_scaling_orthogonality(self):
        p = random_embedded_polygon(12, seed=11)
        g = ko.d_energy(p)
        radial = (p.vertices - p.vertices.mean(axis=0)).ravel()
        assert abs(g @ radial) <= 1e-11 * np.linalg.norm(g) * np.linalg.norm(radial)

    def test_matches_central_differences(self):
        p = random_embedded_polygon(12, dim=3, seed=12)
        g = ko.d_energy(p)
        g_fd = fd_gradient(p, MIDPOINT, 1e-5 * p.total_length)
        assert np.linalg.norm(g - g_fd) <= 1e-6 * np.linalg.norm(g_fd)

    def test_rotation_equivariance(self, rng):
        p = random_embedded_polygon(10, dim=3, seed=13)
        r = rotation_matrix(3, rng, plane=(0, 1))
        q = ko.Polygon(p.vertices @ r.T)
        g_p = ko.d_energy(p).reshape(-1, 3)
        g_q = ko.d_energy(q).reshape(-1, 3)
        assert np.allclose(g_q, g_p @ r.T, rtol=1e-10, atol=1e-12)


class TestHessian:
    def test_directional_finite_difference(self, rng):
        p = random_embedded_polygon(10, dim=3, seed=14)
        h = dense_hessian(p)
        w = rng.standard_normal(h.shape[0])
        w /= np.linalg.norm(w)
        step = 1e-5 * p.total_length
        up = ko.Polygon(p.vertices + step * w.reshape(p.vertices.shape), validate=False)
        dn = ko.Polygon(p.vertices - step * w.reshape(p.vertices.shape), validate=False)
        fd = (ko.d_energy(up) - ko.d_energy(dn)) / (2 * step)
        assert np.linalg.norm(h @ w - fd) <= 1e-5 * np.linalg.norm(fd)

    def test_translation_nullspace(self):
        p = random_embedded_polygon(10, dim=2, seed=15)
        h = dense_hessian(p)
        for axis in range(2):
            t = np.zeros((p.num_vertices, 2))
            t[:, axis] = 1.0
            assert np.abs(h @ t.ravel()).max() <= 1e-10 * np.abs(h).max()

    def test_symmetry(self):
        # The operator's products are symmetric to rounding: u.Hv = Hu.v.
        p = random_embedded_polygon(10, seed=16)
        h = dense_hessian(p)
        assert np.abs(h - h.T).max() <= 1e-14 * np.abs(h).max()


class TestQuadratureRule:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ko.QuadratureRule(np.array([0.5]), np.array([0.9]))

    def test_nodes_in_unit_interval(self):
        with pytest.raises(ValueError):
            ko.QuadratureRule(np.array([1.5]), np.array([1.0]))

    @pytest.mark.parametrize("nodes, weights", [
        ([np.nan], [np.nan]), ([np.nan], [1.0]), ([0.5], [np.nan]),
        ([0.25, 0.75], [np.inf, -np.inf]),
    ])
    def test_non_finite_rejected(self, nodes, weights):
        with pytest.raises(ValueError, match="finite"):
            ko.QuadratureRule(np.array(nodes), np.array(weights))

    def test_gauss_rules(self):
        for k in (1, 2, 8):
            rule = ko.QuadratureRule.gauss(k)
            assert rule.order == k
            assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
            assert rule.nodes.min() >= 0.0 and rule.nodes.max() <= 1.0


def _table_curves():
    return (
        ("coil", ko.coiled_unknot(32)),
        ("trefoil", ko.torus_knot(2, 3, 30)),
        ("random2", random_embedded_polygon(18, dim=2, seed=21)),
        ("random3", random_embedded_polygon(18, dim=3, seed=22)),
    )


def _relative_defect(new, reference):
    return np.abs(new - reference).max() / np.abs(reference).max()


def _check_derivatives(rule):
    for name, p in _table_curves():
        assert _relative_defect(ko.energy(p, rule), oracle.energy(p, rule)) <= 1e-13, name
        assert _relative_defect(ko.d_energy(p, rule),
                                oracle.d_energy(p, rule)) <= 1e-11, name
        assert _relative_defect(dense_hessian(p, rule),
                                oracle.d2_energy(p, rule)) <= 1e-11, name


def _check_gram(rule, metric):
    # The oracle has the pair terms only, not the mean-value term.
    for name, p in _table_curves():
        g = seminorm(p, metric, rule)
        assert _relative_defect(g.scalar, oracle.w32_scalar(p, metric, rule)) <= 1e-13, name


class TestTableAssembly:
    """The edge-pair table assembly against the pair-list scatter oracle."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_derivatives_match_pair_list(self, k):
        _check_derivatives(ko.QuadratureRule.gauss(k))

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("metric", [ko.W32_PURE, ko.W32_GEOMETRIC])
    def test_gram_matches_pair_list(self, k, metric):
        _check_gram(ko.QuadratureRule.gauss(k), metric)

    def test_node_coincidence_in_masked_band_is_ignored(self):
        # Nodes at both edge ends make every adjacent pair meet exactly at
        # the shared vertex and every diagonal entry vanish; only disjoint
        # pairs count, as in the pair list.
        p = random_embedded_polygon(14, dim=3, seed=23)
        for rule in (ko.QuadratureRule(np.array([0.0, 1.0]), np.array([0.5, 0.5])),
                     ko.QuadratureRule([0.0], [1.0])):
            assert _relative_defect(ko.energy(p, rule), oracle.energy(p, rule)) <= 1e-13
            assert _relative_defect(ko.d_energy(p, rule), oracle.d_energy(p, rule)) <= 1e-11
            assert _relative_defect(dense_hessian(p, rule), oracle.d2_energy(p, rule)) <= 1e-11
            g = seminorm(p, ko.W32_GEOMETRIC, rule)
            assert _relative_defect(g.scalar, oracle.w32_scalar(p, ko.W32_GEOMETRIC, rule)) <= 1e-13

    def test_disjoint_coincidence_raises(self):
        # Bow tie: the midpoints of the disjoint edges 0 and 2 coincide.
        p = ko.Polygon([(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)], validate=False)
        for assemble in (ko.energy, ko.d_energy, lambda q: ko.hessian(q, MIDPOINT),
                         lambda q: ko.assemble_gram(q, ko.W32_GEOMETRIC),
                         lambda q: ko.assemble_gram(q, ko.W32_PURE)):
            with pytest.raises(ko.CoincidentPoints):
                assemble(p)


def _blocked(p, rule, rows, monkeypatch):
    """d_energy and the two w32 Grams with ``rows`` edges per table block."""
    monkeypatch.setattr(ENERGY_MODULE, "_block_rows", lambda n: rows)
    return [ko.d_energy(p, rule), ko.assemble_gram(p, ko.W32_GEOMETRIC, rule).scalar,
            ko.assemble_gram(p, ko.W32_PURE, rule).scalar]


def _last_block_bow_tie():
    """A 200-gon whose only coincident disjoint pair, the midpoints of edges
    194 and 196, lies in the last table block."""
    angles = np.radians(np.linspace(100.0, 350.0, 194))
    arc = 0.5 + 10.0 * np.column_stack((np.cos(angles), np.sin(angles)))
    bow_tie = [(0.0, 0.0), (1.0, 1.0), (1.0, 0.0), (0.0, 1.0)]
    tail = [(-0.5, 3.0), (-1.0, 6.0)]
    return ko.Polygon(np.vstack((arc, bow_tie, tail)), validate=False)


class TestRowBlocks:
    """Row blocks of the edge-pair tables at sizes other than the default."""

    # One row, a row count dividing none of the table curves' N, one block.
    @pytest.mark.parametrize("rows", [1, 7, 1000], ids=["rows1", "rows7", "one-block"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_oracles_at_block_boundaries(self, rows, k, monkeypatch):
        monkeypatch.setattr(ENERGY_MODULE, "_block_rows", lambda n: rows)
        rule = ko.QuadratureRule.gauss(k)
        _check_derivatives(rule)
        for metric in (ko.W32_PURE, ko.W32_GEOMETRIC):
            _check_gram(rule, metric)

    @pytest.mark.parametrize("k", [1, 2])
    def test_block_size_moves_no_bit(self, k, monkeypatch):
        # BLAS forms the row products (q @ ell, q @ e) a group of 4 or 16
        # rows at a time and rounds left-over rows in another kernel, and
        # numpy takes one block's e @ e.T as a symmetric product.  Blocks of
        # whole 16-row groups therefore give the same bits as each other (and
        # the Grams those of one block); 1- and 7-row blocks agree to rounding.
        rule = ko.QuadratureRule.gauss(k)
        for name, p in _table_curves():
            one_block = _blocked(p, rule, 1000, monkeypatch)
            for new, ref in zip(_blocked(p, rule, 16, monkeypatch)[1:], one_block[1:]):
                assert new.tobytes() == ref.tobytes(), name
            for rows in (1, 7):
                for new, ref in zip(_blocked(p, rule, rows, monkeypatch), one_block):
                    assert _relative_defect(new, ref) <= 1e-14, (name, rows)
        for p in (ko.coiled_unknot(96), ko.torus_knot(2, 3, 60)):
            sixteen = _blocked(p, rule, 16, monkeypatch)
            for rows in (32, 48):
                for new, ref in zip(_blocked(p, rule, rows, monkeypatch), sixteen):
                    assert new.tobytes() == ref.tobytes(), (p.num_vertices, rows)

    def test_coincidence_in_last_block_raises(self):
        p = _last_block_bow_tie()
        rows = ENERGY_MODULE._block_rows(p.num_vertices)
        assert 0 < (p.num_vertices - 1) // rows * rows <= 194
        for assemble in (ko.energy, ko.d_energy,
                         lambda q: ko.assemble_gram(q, ko.W32_GEOMETRIC)):
            with pytest.raises(ko.CoincidentPoints):
                assemble(p)

    def test_peak_memory_stays_below_a_full_table(self):
        # The whole-table assembly peaked at 10 (energy), 12 (d_energy) and
        # 14 (Gram) N x N tables; the Gram's output, which the operator
        # takes over, is the only N x N array left.
        p = ko.coiled_unknot(768)
        table = 768 * 768 * 8
        for assemble, bound in ((ko.energy, 1), (ko.d_energy, 1),
                                (lambda q: ko.assemble_gram(q, ko.W32_GEOMETRIC), 2)):
            tracemalloc.start()
            try:
                assemble(p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * table, (assemble, peak / table)


    def test_second_call_allocates_no_table(self):
        # The block tables are the thread's kept scratch, sized by a first
        # call; a second call allocates no table but the Gram's output.
        p = ko.coiled_unknot(768)
        table = 768 * 768 * 8
        for assemble, bound in ((ko.energy, 0.1), (ko.d_energy, 0.1),
                                (lambda q: ko.assemble_gram(q, ko.W32_GEOMETRIC), 1.1)):
            assemble(p)
            tracemalloc.start()
            try:
                assemble(p)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * table, (assemble, peak / table)


    def test_threads_keep_their_own_scratch(self):
        # Each thread walks its own block tables: threads that interleave
        # their blocks give the bits of a lone call.
        curves = [ko.coiled_unknot(200, 3), ko.torus_knot(2, 3, 240),
                  ko.coiled_unknot(160, 5), ko.torus_knot(3, 2, 180)]

        def assemble(p):
            return (ko.energy(p), ko.d_energy(p),
                    ko.assemble_gram(p, ko.W32_GEOMETRIC).scalar)

        expected = [assemble(p) for p in curves]
        results = [[] for _ in curves]

        def work(i):
            for _ in range(4):
                results[i].append(assemble(curves[i]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(len(curves))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for got, want in zip(results, expected):
            assert len(got) == 4
            for values in got:
                assert values[0] == want[0]
                assert np.array_equal(values[1], want[1])
                assert np.array_equal(values[2], want[2])


def _dense_products(hess, fields):
    return (hess @ fields.reshape(len(fields), -1).T).T.reshape(fields.shape)


class TestHessVec:
    """Products of the Hessian operator against the pair-list Hessian."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_dense_hessians(self, k, rng):
        rule = ko.QuadratureRule.gauss(k)
        for name, p in _table_curves():
            fields = rng.standard_normal((3,) + p.vertices.shape)
            products = ko.hessian(p, rule)(fields)
            assert products.shape == fields.shape
            expected = _dense_products(oracle.d2_energy(p, rule), fields)
            assert _relative_defect(products, expected) <= 1e-11, name

    def test_node_coincidence_in_masked_band_is_ignored(self, rng):
        p = random_embedded_polygon(14, dim=3, seed=23)
        fields = rng.standard_normal((2,) + p.vertices.shape)
        for rule in (ko.QuadratureRule(np.array([0.0, 1.0]), np.array([0.5, 0.5])),
                     ko.QuadratureRule([0.0], [1.0])):
            expected = _dense_products(oracle.d2_energy(p, rule), fields)
            assert _relative_defect(ko.hessian(p, rule)(fields), expected) <= 1e-11

    def test_batch_gives_the_same_columns(self, rng):
        rule = ko.QuadratureRule.gauss(2)
        for name, p in _table_curves():
            fields = rng.standard_normal((3,) + p.vertices.shape)
            batch = ko.hessian(p, rule)(fields)
            single = np.concatenate([ko.hessian(p, rule)(f[None]) for f in fields])
            assert _relative_defect(single, batch) <= 1e-11, name

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_operator_reuse_moves_no_bit(self, k, rng):
        # One operator applied to interleaved and repeated batches gives the
        # bits of a fresh product each time: no apply clobbers the tables
        # that the builder shares between fields.
        rule = ko.QuadratureRule.gauss(k)
        for name, p in _table_curves():
            hess = ko.hessian(p, rule)
            one, three = (rng.standard_normal((b,) + p.vertices.shape) for b in (1, 3))
            for fields in (one, three, one, three, three, one):
                assert (hess(fields).tobytes()
                        == ko.hessian(p, rule)(fields).tobytes()), name

    def test_field_shape_checked(self):
        p = ko.torus_knot(2, 3, 30)
        with pytest.raises(ValueError, match="shape"):
            ko.hessian(p, MIDPOINT)(p.vertices)
