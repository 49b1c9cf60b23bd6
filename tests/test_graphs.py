import re

import numpy as np
import pytest
import scipy.sparse as sp

from frdecomp import graphs
from frdecomp.graphs import (GraphError, GraphOperator, WeightedGraph,
                             chebyshev_apply, cycle_graph,
                             killed_green_consistency, reconstruct_green,
                             scale_blocks, two_vertex_graph)
from frdecomp.quadrature import gauss_legendre
from frdecomp.weights import (DiscreteWeightFamily, ScalePlan, chebyshev_coefficients,
                              default_scale_plan, eval_discrete_weight_direct,
                              series_roundoff)


def random_graph(n, p, rng, wmin=0.5, wmax=2.0, ring=True):
    edges = []
    for i in range(n):
        if ring:
            edges.append((i, (i + 1) % n, float(rng.uniform(wmin, wmax))))
        for j in range(i + 1, n):
            if rng.random() < p and j != (i + 1) % n:
                edges.append((i, j, float(rng.uniform(wmin, wmax))))
    return WeightedGraph.from_edges(n, edges)


def reference_apply(op, u):
    """The operator on u from its definition, edge by edge:
    L u(x) = mu_x^{-1} sum_y mu_xy (u(x) - u(y)), then kappa L + (1 - kappa)
    or L + m2."""
    g = op.graph
    u = np.asarray(u, dtype=float)
    lu = np.zeros_like(u)
    for x, y, w in zip(g.rows, g.cols, g.weights):
        lu[x] += w * (u[x] - u[y])
    lu = (lu.T / g.mu).T
    if op.kind == "killed":
        return op.kappa * lu + (1.0 - op.kappa) * u
    if op.kind == "resolvent":
        return lu + op.m2 * u
    return lu


def chord_graph():
    """A 10-cycle with random weights, one edge given twice (0-5 and 5-0) and
    one chord: the vertex measure is not constant."""
    rng = np.random.default_rng(4)
    edges = [(i, (i + 1) % 10, float(rng.uniform(0.5, 2.0))) for i in range(10)]
    return WeightedGraph.from_edges(10, edges + [(0, 5, 0.7), (5, 0, 0.4), (2, 7, 1.3)])


def _cycle_edges(n, start=0):
    return [(start + i, start + (i + 1) % n, 1.0) for i in range(n)]


# two components, so a singular operator has two zero modes; the second list
# has a vertex measure that is not constant (a 6-cycle plus the chord 0-3)
TWO_8_CYCLES = _cycle_edges(8) + _cycle_edges(8, start=8)
CHORD6_AND_8_CYCLE = _cycle_edges(6) + [(0, 3, 1.0)] + _cycle_edges(8, start=6)


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

    @pytest.mark.parametrize("line", ["1 2", "1 x 1.0", "1 2 heavy", "1 2 1.0 7"])
    def test_edgelist_malformed_line_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "g.txt"
        path.write_text(f"# header\n0 1 1.5\n{line}\n")
        where = re.escape(f"{path}:3: ")
        with pytest.raises(GraphError, match=f"^{where}.*{re.escape(repr(line))}"):
            WeightedGraph.from_edgelist_file(path)


class TestGraphOperator:
    def test_constant_in_kernel(self):
        op = GraphOperator(cycle_graph(8))
        u = np.ones(8)
        assert np.max(np.abs(reference_apply(op, u))) == 0.0

    def test_two_vertex_formula(self):
        op = GraphOperator(two_vertex_graph())
        out = reference_apply(op, np.array([1.0, 0.0]))
        np.testing.assert_allclose(out, [1.0, -1.0])

    def test_dirichlet_form_identity(self):
        rng = np.random.default_rng(1)
        g = random_graph(10, 0.4, rng)
        op = GraphOperator(g)
        u = rng.standard_normal(10)
        lhs = float(np.sum(u * reference_apply(op, u) * g.mu))
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

    @pytest.mark.parametrize("kind, params", [("laplacian", {}),
                                              ("killed", {"kappa": 0.6}),
                                              ("resolvent", {"m2": 0.3})])
    def test_dense_from_edges_equals_apply(self, kind, params):
        # dense() reads the edge list, the recurrence matrix the CSR matrix;
        # one edge appears twice, and the vertex measure is not constant
        g = chord_graph()
        assert np.ptp(g.mu) > 0.5
        op = GraphOperator(g, kind, **params)
        want = reference_apply(op, np.eye(10))
        np.testing.assert_allclose(op.dense(), want, rtol=0, atol=1e-15)
        h = 1.5 / op.B
        x = graphs._recurrence_matrix(op).toarray()
        np.testing.assert_allclose(x, np.eye(10) - h * want, rtol=0, atol=1e-15)
        assert np.array_equal(x != 0, (op.dense() != 0) | np.eye(10, dtype=bool))

    def test_norm_bounds(self):
        g = cycle_graph(6)
        assert GraphOperator(g).B == 2.0
        assert GraphOperator(g, "killed", kappa=0.3).B == 2.0
        assert GraphOperator(g, "resolvent", m2=1.5).B == 3.5

    def test_singular_iff_a_equals_b(self):
        g = cycle_graph(6)
        assert GraphOperator(g).is_singular
        assert GraphOperator(g, "resolvent", m2=0.0).is_singular
        # 1 + 1e-17 rounds to 1, so dense() is the Laplacian's bit for bit
        tiny = GraphOperator(g, "resolvent", m2=1e-17)
        assert tiny.is_singular and np.array_equal(tiny.dense(), GraphOperator(g).dense())
        assert not GraphOperator(g, "resolvent", m2=1e-15).is_singular
        assert not GraphOperator(g, "killed", kappa=0.9).is_singular

    def test_spectral_gap_of_non_singular_is_smallest_mode(self):
        # a non-singular operator has no zero mode, however small its mass
        g = cycle_graph(16)
        for m2 in (1e-13, 0.5):
            op = GraphOperator(g, "resolvent", m2=m2)
            assert op.spectral_gap() == op.eigensystem()[0].min() < 1.01 * m2
        laplacian = GraphOperator(g)
        vals = laplacian.eigensystem()[0]
        assert laplacian.spectral_gap() == vals[vals > 1e-12].min() > 0.07

    def test_spectrum_within_bound(self):
        rng = np.random.default_rng(2)
        g = random_graph(12, 0.3, rng)
        for op in (GraphOperator(g), GraphOperator(g, "killed", kappa=0.7),
                   GraphOperator(g, "resolvent", m2=0.8)):
            vals, _ = op.eigensystem()
            assert vals.min() >= -1e-12
            assert vals.max() <= op.B + 1e-12

    def test_dimension_mismatch(self, monkeypatch):
        op = GraphOperator(cycle_graph(4))

        def refuse(op):
            raise AssertionError("recurrence matrix built before the length check")

        monkeypatch.setattr(graphs, "_recurrence_matrix", refuse)
        for u in (np.ones(5), np.eye(3), 1.0):
            with pytest.raises(GraphError, match="expected 4 rows"):
                chebyshev_apply(op, [np.array([1.0, 0.5])], u)


class TestChebyshevApply:
    @pytest.mark.parametrize("kind, params", [
        pytest.param("laplacian", {}, id="laplacian"),
        pytest.param("killed", {"kappa": 0.6}, id="killed"),
        pytest.param("resolvent", {"m2": 0.3}, id="resolvent")])
    def test_support_propagation(self, mollifier, kind, params):
        # exactly zero beyond the degree: a recurrence matrix with entries off
        # the graph's pattern would leave roundoff there.  At t = 2.5 the top
        # coefficient is not zero (at an integer t it is)
        g = chord_graph()
        op = GraphOperator(g, kind, **params)
        delta = np.zeros(10)
        delta[3] = 1.0
        c = chebyshev_coefficients(mollifier, 2.5)
        deg = len(c) - 1
        out, = chebyshev_apply(op, [c], delta)
        dist = g.distances()[3]
        assert deg == 2 and (dist > deg).any()
        assert np.all(out[dist > deg] == 0.0)
        assert np.all(out[dist <= deg] != 0.0)

    def test_degree_zero_scales_input(self, mollifier, norm1):
        op = GraphOperator(cycle_graph(8), "resolvent", m2=0.5)
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        u = np.arange(8.0)
        out, = chebyshev_apply(op, [chebyshev_coefficients(mollifier, 0.5)], u)
        c0 = chebyshev_coefficients(mollifier, 0.5)[0]
        np.testing.assert_allclose(out, c0 * u, rtol=1e-15)

    @pytest.mark.parametrize("t", [0.5, 3.7, 9.0])
    def test_dense_spectral_oracle(self, mollifier, norm1, t):
        rng = np.random.default_rng(7)
        g = random_graph(12, 0.3, rng)
        op = GraphOperator(g, "resolvent", m2=0.5)
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        u = rng.standard_normal(12)
        got, = chebyshev_apply(op, [chebyshev_coefficients(mollifier, t)], u)
        # oracle: eigendecomposition + periodized-sum weight (no Chebyshev)
        dense = op.apply_weight_dense(
            lambda lam: eval_discrete_weight_direct(
                mollifier, fam.arg_scale * np.maximum(lam, 1e-15), t))
        want = dense @ u
        assert np.max(np.abs(got - want)) <= 1e-9 * np.max(np.abs(want))

    def test_bound_mismatch_rejected(self, mollifier, norm1):
        # weights.check_family: off by more than 1e-12 B on either backend
        op = GraphOperator(cycle_graph(8))
        for B in (3.0, op.B * (1.0 + 1e-10)):
            fam = DiscreteWeightFamily(mollifier, norm1, B=B)
            with pytest.raises(ValueError, match="does not match operator B"):
                scale_blocks(op, fam, ScalePlan(j_min=0, j_max=1))

    @pytest.mark.parametrize("L_ratio", [2.0, 3.0])
    def test_shared_recurrence_matches_one_series_at_a_time(self, mollifier, norm1,
                                                            L_ratio):
        # non-constant mu; each block adds the same T_k(X) in the same k order
        op = GraphOperator(random_graph(20, 0.2, np.random.default_rng(5)),
                           "killed", kappa=0.8)
        assert np.ptp(op.graph.mu) > 0
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        series = default_scale_plan(fam, op.spectral_gap(), L_ratio=L_ratio).series(fam)
        eye = np.eye(op.n)
        shared = chebyshev_apply(op, series, eye)
        assert len(shared) == len(series)
        for c, got in zip(series, shared):
            assert np.array_equal(got, chebyshev_apply(op, [c], eye)[0])


class TestScaleBlock:
    def test_certificates(self, mollifier, norm1):
        op = GraphOperator(cycle_graph(16), "resolvent", m2=1.0)
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        plan = ScalePlan(j_min=1, j_max=3)
        blk = scale_blocks(op, fam, plan)[1][-1]
        c = blk.certificates
        assert blk.j == 3
        assert c.range_bound == 8
        sup = float(np.max(np.abs(blk.matrix)))
        assert c.max_out_of_range <= 1e-12 * sup
        assert c.roundoff_bound == series_roundoff(plan.series(fam)[-1]) > 0
        assert -c.min_eig <= c.roundoff_bound
        assert c.asymmetry <= 1e-11 * sup

    def test_parameter_validation(self):
        # blocks take L_ratio from a plan, which refuses it
        with pytest.raises(ValueError, match="L_ratio"):
            ScalePlan(j_min=0, j_max=1, L_ratio=1.0)

    def test_additivity(self, mollifier, norm1):
        op = GraphOperator(cycle_graph(12), "resolvent", m2=1.0)
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        ab, bc, ac = chebyshev_apply(
            op, [fam.interval_coefficients(t_lo, t_hi)
                 for t_lo, t_hi in ((1.0, 3.0), (3.0, 9.0), (1.0, 9.0))], np.eye(op.n))
        scale = np.max(np.abs(ac))
        assert np.max(np.abs(ab + bc - ac)) <= 1e-14 * scale

    @pytest.mark.parametrize("t_lo, t_hi", [(0.5, 2.0), (2.0, 4.0), (4.0, 8.0)])
    def test_single_polynomial_matches_per_node_sum(self, mollifier, norm1, t_lo, t_hi):
        # reference: a 400-node Gauss-Legendre sum in t of the per-scale
        # filters t C (3/B) W*_t applied to the operator one by one
        op = GraphOperator(cycle_graph(16), "resolvent", m2=0.5)
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        eye = np.eye(op.n)
        got, = chebyshev_apply(op, [fam.interval_coefficients(t_lo, t_hi)], eye)
        tq, wq = gauss_legendre(t_lo, t_hi, 400)
        scale = norm1 * fam.arg_scale
        per_node = chebyshev_apply(op, [chebyshev_coefficients(mollifier, t) for t in tq], eye)
        expect = sum(w * scale * t * m for t, w, m in zip(tq, wq, per_node))
        assert np.max(np.abs(got - expect)) <= 2e-14 * np.max(np.abs(expect))
        outside = op.graph.distances() >= np.ceil(t_hi)
        assert outside.any() and np.all(got[outside] == 0.0)

    def test_magnitude_trend_massless_cycle(self, mollifier, norm1):
        # 64-cycle, m^2 = 0: heat exponent alpha = 1, so sup |C_j| should
        # grow like L^{(2-alpha) j} = L^j (fitted trend, generous band)
        op = GraphOperator(cycle_graph(64))
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        js = [2, 3, 4, 5]
        blocks = scale_blocks(op, fam, ScalePlan(j_min=1, j_max=5))[1]
        sups = [float(np.max(np.abs(b.matrix))) for b in blocks if b.j in js]
        slope = np.polyfit(np.array(js) * np.log(2.0), np.log(sups), 1)[0]
        assert slope == pytest.approx(1.0, abs=0.35)


class TestReconstruction:
    def test_two_vertex_closed_form(self, mollifier, norm1):
        op = GraphOperator(two_vertex_graph(), "resolvent", m2=1.0)
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        rec = reconstruct_green(op, fam)
        expect = np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
        assert np.max(np.abs(rec.values - expect)) <= 1e-6

    def test_sixteen_cycle_killed(self, mollifier, norm1):
        op = GraphOperator(cycle_graph(16), "killed", kappa=0.9)
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        rec = reconstruct_green(op, fam)
        assert rec.max_rel_error <= 1e-5

    def test_one_recurrence_per_plan(self, mollifier, norm1, monkeypatch):
        # 64-cycle Laplacian, plan j = 1..11: scale_blocks builds every block
        # from one recurrence up to the top block's degree (2^11 - 1), one
        # product with X a step
        op = GraphOperator(cycle_graph(64))
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        plan = default_scale_plan(fam, op.spectral_gap())
        assert (plan.j_min, plan.j_max) == (1, 11)
        assert max(len(c) for c in plan.series(fam)) - 1 == 2047
        calls = []
        build = graphs._recurrence_matrix

        class Counting:
            def __init__(self, x):
                self.x = x

            def __matmul__(self, v):
                calls.append(np.shape(v))
                return self.x @ v

        monkeypatch.setattr(graphs, "_recurrence_matrix", lambda op: Counting(build(op)))
        scale_blocks(op, fam, plan)
        assert calls == [(64, 64)] * 2047

    @pytest.mark.parametrize("graph, kind, kw", [
        pytest.param(cycle_graph(16), "resolvent", {"m2": 1.0}, id="16-cycle-resolvent"),
        pytest.param(chord_graph(), "killed", {"kappa": 0.9}, id="chord-killed"),
        pytest.param(cycle_graph(64), "laplacian", {}, id="64-cycle-laplacian")])
    def test_recurrence_blocks_sum_to_reconstruction(self, mollifier, norm1, graph,
                                                     kind, kw):
        # the recurrence's blocks (decompose) and the summed series on the
        # eigensystem (reconstruct) are one Green function; singular
        # operators agree on the mean-zero subspace
        op = GraphOperator(graph, kind, **kw)
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        plan = default_scale_plan(fam, op.spectral_gap())
        white, blocks = scale_blocks(op, fam, plan)
        summed = white * np.eye(op.n) + sum(b.matrix for b in blocks)
        rec = reconstruct_green(op, fam, plan).values
        if op.is_singular:
            proj = op.mean_zero_projection()
            summed, rec = proj @ summed @ proj.T, proj @ rec @ proj.T
        assert np.max(np.abs(summed - rec)) <= 1e-11 * np.max(np.abs(rec))

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
        scale = np.max(np.abs(laplacian.values))
        assert np.max(np.abs(resolvent.values - laplacian.values)) <= 1e-12 * scale
        assert abs(resolvent.max_rel_error - laplacian.max_rel_error) <= 1e-12
        assert resolvent.max_rel_error <= 1e-4

    @pytest.mark.parametrize("n, edges, kind, kw", [
        pytest.param(16, TWO_8_CYCLES, "laplacian", {}, id="two-8-cycles-laplacian"),
        pytest.param(16, TWO_8_CYCLES, "resolvent", {"m2": 0.0}, id="two-8-cycles-m2-0"),
        pytest.param(14, CHORD6_AND_8_CYCLE, "laplacian", {}, id="chord6-and-8-cycle")])
    def test_disconnected_singular_graph(self, mollifier, norm1, n, edges, kind, kw):
        # one zero mode per component; mode_variances drops each of them, as
        # the pseudo-inverse oracle does
        op = GraphOperator(WeightedGraph.from_edges(n, edges), kind, **kw)
        rec = reconstruct_green(op, DiscreteWeightFamily(mollifier, norm1, B=op.B))
        assert rec.deflated
        assert rec.max_rel_error <= 1e-12

    def test_large_graph_against_oracle(self, mollifier, norm1):
        # above 256 vertices, where the comparison used to be skipped
        op = GraphOperator(cycle_graph(300), "resolvent", m2=1.0)
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        rec = reconstruct_green(op, fam)
        assert rec.oracle.shape == (300, 300)
        assert rec.max_rel_error <= 1e-5

    @pytest.mark.parametrize("n, kind, params", [
        (256, "resolvent", {"m2": 0.1}), (64, "laplacian", {}), (300, "resolvent", {"m2": 1.0})])
    def test_cycles_below_5e_11(self, mollifier, norm1, n, kind, params):
        # the graph-sample config, the 64-cycle Laplacian and the 300-cycle;
        # C from the phi_hat table agrees with the blocks, so no 2.3e-10 floor
        op = GraphOperator(cycle_graph(n), kind, **params)
        rec = reconstruct_green(op, DiscreteWeightFamily(mollifier, norm1, B=op.B))
        assert rec.max_rel_error <= 5e-11

    def test_300_cycle_below_1e_12(self, mollifier, norm1):
        # the default resolvent on a 300-cycle; phi_hat tabulated by the
        # trapezoid rule on its own grid makes C and the blocks agree
        op = GraphOperator(cycle_graph(300), "resolvent", m2=1.0)
        rec = reconstruct_green(op, DiscreteWeightFamily(mollifier, norm1, B=op.B))
        assert rec.max_rel_error <= 1e-12

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
        plan = default_scale_plan(fam, op.spectral_gap())
        assert plan.t_low == 1.0
        rec = reconstruct_green(op, fam, plan)
        assert rec.tail_bound <= 1e-6


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
