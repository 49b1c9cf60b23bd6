import numpy as np
import pytest
import scipy.sparse as sp

from frdecomp.graphs import (PLAN_T_MIN, GraphError, GraphOperator,
                             WeightedGraph, block_over_interval, chebyshev_apply,
                             cycle_graph, killed_green_consistency,
                             reconstruct_green, scale_block, two_vertex_graph)
from frdecomp.quadrature import log_gauss_legendre
from frdecomp.weights import (DiscreteWeightFamily, default_scale_plan,
                              eval_discrete_weight_direct)


def random_graph(n, p, rng, wmin=0.5, wmax=2.0, ring=True):
    edges = []
    for i in range(n):
        if ring:
            edges.append((i, (i + 1) % n, float(rng.uniform(wmin, wmax))))
        for j in range(i + 1, n):
            if rng.random() < p and j != (i + 1) % n:
                edges.append((i, j, float(rng.uniform(wmin, wmax))))
    return WeightedGraph.from_edges(n, edges)


class TestWeightedGraph:
    def test_measure(self):
        g = WeightedGraph.from_edges(3, [(0, 1, 2.0), (1, 2, 3.0)])
        assert g.mu.tolist() == [2.0, 5.0, 3.0]

    def test_rejects_isolated_vertex(self):
        with pytest.raises(GraphError):
            WeightedGraph.from_edges(3, [(0, 1, 1.0)])

    def test_rejects_bad_edges(self):
        with pytest.raises(GraphError):
            WeightedGraph.from_edges(2, [(0, 0, 1.0), (0, 1, 1.0)])
        with pytest.raises(GraphError):
            WeightedGraph.from_edges(2, [(0, 1, -1.0)])
        with pytest.raises(GraphError):
            WeightedGraph.from_edges(2, [(0, 3, 1.0)])

    def test_distances_bfs(self):
        g = cycle_graph(6)
        d = g.distances()
        assert d[0, 3] == 3
        assert d[0, 5] == 1

    def test_edgelist_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        g = random_graph(8, 0.3, rng)
        path = tmp_path / "graph.txt"
        coo = sp.triu(g.adjacency, k=1).tocoo()
        path.write_text("".join(f"{x} {y} {w:.17g}\n"
                                for x, y, w in zip(coo.row, coo.col, coo.data)))
        g2 = WeightedGraph.from_edgelist_file(path)
        assert g2.n == g.n
        assert np.allclose((g.adjacency - g2.adjacency).toarray(), 0.0)

    def test_edgelist_comments(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# a comment\n0 1 1.5\n1 2 2.5  # trailing\n")
        g = WeightedGraph.from_edgelist_file(path)
        assert g.n == 3
        assert g.adjacency[0, 1] == 1.5


class TestGraphOperator:
    def test_constant_in_kernel(self):
        op = GraphOperator(cycle_graph(8))
        u = np.ones(8)
        assert np.max(np.abs(op.apply(u))) == 0.0

    def test_two_vertex_formula(self):
        op = GraphOperator(two_vertex_graph())
        out = op.apply(np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [1.0, -1.0])

    def test_dirichlet_form_identity(self):
        rng = np.random.default_rng(1)
        g = random_graph(10, 0.4, rng)
        op = GraphOperator(g)
        u = rng.standard_normal(10)
        lhs = float(np.sum(u * op.apply(u) * g.mu))
        coo = sp.triu(g.adjacency, k=1).tocoo()
        rhs = sum(w * (u[i] - u[j]) ** 2
                  for i, j, w in zip(coo.row, coo.col, coo.data))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_kind_validation(self):
        g = two_vertex_graph()
        with pytest.raises(GraphError):
            GraphOperator(g, "killed", kappa=1.0)
        with pytest.raises(GraphError):
            GraphOperator(g, "resolvent", m2=-1.0)
        with pytest.raises(GraphError):
            GraphOperator(g, "unknown")

    def test_norm_bounds(self):
        g = cycle_graph(6)
        assert GraphOperator(g).B == 2.0
        assert GraphOperator(g, "killed", kappa=0.3).B == 2.0
        assert GraphOperator(g, "resolvent", m2=1.5).B == 3.5

    def test_spectrum_within_bound(self):
        rng = np.random.default_rng(2)
        g = random_graph(12, 0.3, rng)
        for op in (GraphOperator(g), GraphOperator(g, "killed", kappa=0.7),
                   GraphOperator(g, "resolvent", m2=0.8)):
            vals, _ = op.eigensystem()
            assert vals.min() >= -1e-12
            assert vals.max() <= op.B + 1e-12

    def test_dimension_mismatch(self):
        op = GraphOperator(cycle_graph(4))
        with pytest.raises(GraphError):
            op.apply(np.ones(5))


class TestChebyshevApply:
    def test_support_propagation(self, mollifier, norm1):
        g = cycle_graph(16)
        op = GraphOperator(g, "resolvent", m2=1.0)
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        delta = np.zeros(16)
        delta[3] = 1.0
        out = chebyshev_apply(op, fam.coefficients(3.0), delta)
        dist = g.distances()[3]
        assert np.max(np.abs(out[dist > 3])) <= 1e-12 * np.max(np.abs(out))
        assert np.max(np.abs(out[dist <= 3])) > 0

    def test_degree_zero_scales_input(self, mollifier, norm1):
        op = GraphOperator(cycle_graph(8), "resolvent", m2=0.5)
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        u = np.arange(8.0)
        out = chebyshev_apply(op, fam.coefficients(0.5), u)
        c0 = fam.coefficients(0.5)[0]
        np.testing.assert_allclose(out, c0 * u, rtol=1e-15)

    @pytest.mark.parametrize("t", [0.5, 3.7, 9.0])
    def test_dense_spectral_oracle(self, mollifier, norm1, t):
        rng = np.random.default_rng(7)
        g = random_graph(12, 0.3, rng)
        op = GraphOperator(g, "resolvent", m2=0.5)
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        u = rng.standard_normal(12)
        got = chebyshev_apply(op, fam.coefficients(t), u)
        # oracle: eigendecomposition + periodized-sum weight (no Chebyshev)
        dense = op.apply_weight_dense(
            lambda lam: eval_discrete_weight_direct(
                mollifier, fam.arg_scale * np.maximum(lam, 1e-15), t))
        want = dense @ u
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    def test_bound_mismatch_rejected(self, mollifier, norm1):
        op = GraphOperator(cycle_graph(8))
        fam = DiscreteWeightFamily(mollifier, norm1, B=3.0)
        with pytest.raises(GraphError):
            block_over_interval(op, fam, 1.0, 2.0)


class TestScaleBlock:
    def test_certificates(self, mollifier, norm1):
        op = GraphOperator(cycle_graph(16), "resolvent", m2=1.0)
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        blk = scale_block(op, fam, j=3)
        c = blk.certificates
        assert c.range_bound == 8
        sup = float(np.max(np.abs(blk.matrix)))
        assert c.max_out_of_range <= 1e-12 * sup
        assert c.min_eig >= -1e-10 * c.max_eig
        assert c.asymmetry <= 1e-11 * sup

    def test_parameter_validation(self, mollifier, norm1):
        op = GraphOperator(cycle_graph(8), "resolvent", m2=1.0)
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        with pytest.raises(GraphError):
            scale_block(op, fam, j=1, L_ratio=1.0)
        with pytest.raises(GraphError):
            scale_block(op, fam, j=1, nodes_per_block=2)

    def test_additivity(self, mollifier, norm1):
        op = GraphOperator(cycle_graph(12), "resolvent", m2=1.0)
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        ab, _ = block_over_interval(op, fam, 1.0, 3.0, nodes_per_octave=24)
        bc, _ = block_over_interval(op, fam, 3.0, 9.0, nodes_per_octave=24)
        ac, _ = block_over_interval(op, fam, 1.0, 9.0, nodes_per_octave=24)
        scale = np.max(np.abs(ac))
        assert np.max(np.abs(ab + bc - ac)) <= 1e-9 * scale

    @pytest.mark.parametrize("t_lo, t_hi", [(0.5, 2.0), (2.0, 4.0), (4.0, 8.0)])
    def test_single_polynomial_matches_per_node_sum(self, mollifier, norm1, t_lo, t_hi):
        op = GraphOperator(cycle_graph(16), "resolvent", m2=0.5)
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        got, nodes = block_over_interval(op, fam, t_lo, t_hi)
        tq, wq = log_gauss_legendre(t_lo, t_hi, 16)
        eye = np.eye(op.n)
        scale = norm1.constant * fam.multiplier
        expect = sum(w * scale * t**2 * chebyshev_apply(op, fam.coefficients(t), eye)
                     for t, w in zip(tq, wq))
        assert nodes == len(tq)
        assert np.max(np.abs(got - expect)) <= 1e-13 * np.max(np.abs(expect))
        outside = op.graph.distances() >= np.ceil(t_hi)
        assert outside.any() and np.all(got[outside] == 0.0)

    def test_magnitude_trend_massless_cycle(self, mollifier, norm1):
        # 64-cycle, m^2 = 0: heat exponent alpha = 1, so sup |C_j| should
        # grow like L^{(2-alpha) j} = L^j (fitted trend, generous band)
        op = GraphOperator(cycle_graph(64))
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        js = [2, 3, 4, 5]
        sups = [float(np.max(np.abs(scale_block(op, fam, j).matrix)))
                for j in js]
        slope = np.polyfit(np.array(js) * np.log(2.0), np.log(sups), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.35)


class TestReconstruction:
    def test_two_vertex_closed_form(self, mollifier, norm1):
        op = GraphOperator(two_vertex_graph(), "resolvent", m2=1.0)
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        rec = reconstruct_green(op, fam)
        expect = np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
        assert np.max(np.abs(rec.matrix - expect)) <= 1e-6

    def test_sixteen_cycle_killed(self, mollifier, norm1):
        op = GraphOperator(cycle_graph(16), "killed", kappa=0.9)
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        rec = reconstruct_green(op, fam)
        assert rec.max_rel_error <= 1e-5

    def test_massless_cycle_pseudo_inverse(self, mollifier, norm1):
        op = GraphOperator(cycle_graph(16))
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        rec = reconstruct_green(op, fam)
        assert rec.deflated
        assert rec.max_rel_error <= 1e-4

    @pytest.mark.parametrize("maker", [
        lambda: (cycle_graph(24), "resolvent", {"m2": 0.8}),
        lambda: (WeightedGraph.from_edges(
            8, [(i, j, 1.0) for i in range(8) for j in range(i + 1, 8)]),
            "resolvent", {"m2": 0.5}),              # complete graph K8
        lambda: (random_graph(20, 0.2, np.random.default_rng(5)),
                 "killed", {"kappa": 0.8}),          # non-uniform measure
        lambda: (random_graph(48, 0.05, np.random.default_rng(9)),
                 "resolvent", {"m2": 0.3}),
    ])
    def test_reconstruction_various_graphs(self, mollifier, norm1, maker):
        graph, kind, kw = maker()
        op = GraphOperator(graph, kind, **kw)
        assert op.spectral_gap() >= 0.01
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        rec = reconstruct_green(op, fam)
        assert rec.max_rel_error <= 1e-4

    def test_massless_resolvent_is_laplacian(self, mollifier, norm1):
        graph = cycle_graph(8)
        recs = []
        for op in (GraphOperator(graph, "resolvent", m2=0.0),
                   GraphOperator(graph, "laplacian")):
            fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
            recs.append(reconstruct_green(op, fam))
        resolvent, laplacian = recs
        assert resolvent.deflated and laplacian.deflated
        assert resolvent.plan == laplacian.plan
        scale = np.max(np.abs(laplacian.matrix))
        assert np.max(np.abs(resolvent.matrix - laplacian.matrix)) <= 1e-12 * scale
        assert abs(resolvent.max_rel_error - laplacian.max_rel_error) <= 1e-12
        assert resolvent.max_rel_error <= 1e-4

    def test_large_graph_against_oracle(self, mollifier, norm1):
        # above 256 vertices, where the comparison used to be skipped
        op = GraphOperator(cycle_graph(300), "resolvent", m2=1.0)
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        rec = reconstruct_green(op, fam)
        assert rec.oracle.shape == (300, 300)
        assert rec.max_rel_error <= 1e-5

    def test_singular_green_oracle_beyond_dense_limit(self):
        op = GraphOperator(cycle_graph(300))
        green = op.green_oracle()
        # L G is the projection onto mean-zero functions; G kills constants
        np.testing.assert_allclose(op.dense() @ green, op.mean_zero_projection(),
                                   atol=1e-9)
        assert np.max(np.abs(green @ np.ones(op.n))) <= 1e-9 * np.max(np.abs(green))

    def test_default_plan_tail(self, mollifier, norm1):
        op = GraphOperator(cycle_graph(16), "resolvent", m2=1.0)
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        plan = default_scale_plan(fam, op.spectral_gap(), PLAN_T_MIN)
        assert plan.t_low <= 0.25 + 1e-12
        rec = reconstruct_green(op, fam, plan)
        assert rec.tail_high_bound <= 1e-6


class TestKilledGreen:
    def test_half_kappa_identity(self):
        # kappa = 1/2: G^kappa = 2 G_{m^2=1} exactly
        g = cycle_graph(10)
        killed = GraphOperator(g, "killed", kappa=0.5).dense()
        resolvent = GraphOperator(g, "resolvent", m2=1.0).dense()
        np.testing.assert_allclose(np.linalg.inv(killed),
                                   2.0 * np.linalg.inv(resolvent), rtol=1e-12)

    def test_consistency_random_graph(self):
        g = random_graph(10, 0.4, np.random.default_rng(11))
        assert killed_green_consistency(g, 0.7) <= 1e-8

    def test_kappa_to_one_approaches_massless(self):
        # kappa -> 1^-: kappa^{-1} G_{(1-kappa)/kappa} on the mean-zero
        # subspace approaches the massless pseudo-inverse
        g = cycle_graph(12)
        op0 = GraphOperator(g)
        vals, vecs = op0.eigensystem()
        inv = np.zeros_like(vals)
        inv[vals > 1e-10] = 1.0 / vals[vals > 1e-10]
        s = np.sqrt(g.mu)
        pinv = ((vecs * inv) @ vecs.T) * s[None, :] / s[:, None]
        proj = np.eye(12) - np.full((12, 12), 1.0 / 12.0)
        errs = []
        for kappa in (0.9, 0.99, 0.999):
            gk = np.linalg.inv(GraphOperator(g, "killed", kappa=kappa).dense())
            errs.append(np.max(np.abs(proj @ (gk - pinv) @ proj)))
        assert errs[2] < errs[1] < errs[0]

    def test_kappa_validation(self):
        with pytest.raises(GraphError):
            killed_green_consistency(cycle_graph(4), 1.0)
