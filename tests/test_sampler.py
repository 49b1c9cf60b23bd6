import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from frdecomp import sampler
from frdecomp.graphs import (GraphOperator, cycle_graph, reconstruct_green, scale_block,
                             two_vertex_graph)
from frdecomp.lattice import LatticeSpec, build_symbol_table, green_column
from frdecomp.sampler import (REPLICATE_BATCH, BlockQualityError, check_settings,
                              covariance_report,
                              graph_scale_factors, sample_graph, sample_torus,
                              torus_mode_variances, _batched_draws, _block_factor,
                              _stream)
from frdecomp.weights import DiscreteWeightFamily, ScalePlan


@pytest.fixture(scope="module")
def cycle_setup(mollifier, norm1):
    op = GraphOperator(cycle_graph(16), "resolvent", m2=1.0)
    fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
    rec = reconstruct_green(op, fam)
    plan = rec.plan
    oracle = np.linalg.solve(op.dense(), np.eye(op.n))
    return op, fam, plan, rec, oracle


class TestScalePlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScalePlan(j_min=3, j_max=2)
        with pytest.raises(ValueError):
            ScalePlan(j_min=2, j_max=4)   # t_low = L > 1
        plan = ScalePlan(j_min=-1, j_max=3)
        assert plan.scale_labels() == [-2, -1, 0, 1, 2, 3]
        assert plan.t_low == 0.25


class TestCheckSettings:
    @pytest.mark.parametrize("seed, sample_count, keep, name", [
        pytest.param(2**64, 10, 0, "seed", id="seed-2**64"),
        pytest.param(-1, 10, 0, "seed", id="seed-negative"),
        pytest.param(1, 0, 0, "sample_count", id="sample_count-0"),
        pytest.param(1, 10, -1, "keep", id="keep-negative")])
    def test_validation(self, mollifier, norm1, seed, sample_count, keep, name):
        with pytest.raises(ValueError, match=f"^{name} "):
            check_settings(seed, sample_count, keep)
        # both samplers refuse before any work
        plan = ScalePlan(j_min=0, j_max=2)
        op = GraphOperator(cycle_graph(4))
        with pytest.raises(ValueError, match=f"^{name} "):
            sample_graph(op, DiscreteWeightFamily(mollifier, norm1, B=op.B), plan,
                         seed, sample_count, keep)
        spec = LatticeSpec(d=1, a=np.array([[1.0]]), m2=1.0, N=8)
        fam = DiscreteWeightFamily(mollifier, norm1, B=build_symbol_table(spec).B)
        with pytest.raises(ValueError, match=f"^{name} "):
            sample_torus(spec, fam, plan, seed, sample_count, keep)

    def test_limits_accepted_and_names(self):
        check_settings(0, 1, 0)
        check_settings(2**64 - 1, 1, 5)
        with pytest.raises(ValueError, match="^sampler.dump_replicates "):
            check_settings(1, 10, -1, names=("seed", "sampler.sample_count",
                                             "sampler.dump_replicates"))


class TestGraphSampler:
    def test_exact_total_covariance(self, cycle_setup):
        # oracle level: sum_s A_s A_s^T must equal the reconstruction matrix
        op, fam, plan, rec, _ = cycle_setup
        factors = graph_scale_factors(op, fam, plan)
        total = sum(A @ A.T for A in factors)
        assert np.max(np.abs(total - rec.matrix)) <= 1e-10 * np.max(np.abs(rec.matrix))

    def test_determinism_and_seed_sensitivity(self, cycle_setup):
        op, fam, plan, _, _ = cycle_setup
        a = sample_graph(op, fam, plan, 99, 64, keep=64)
        b = sample_graph(op, fam, plan, 99, 64, keep=64)
        assert a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()
        c = sample_graph(op, fam, plan, 100, 64, keep=64)
        assert not np.array_equal(a[1], c[1])

    def test_prefix_stability(self, cycle_setup):
        # replicate r does not depend on the total sample count
        op, fam, plan, _, _ = cycle_setup
        a_totals, a = sample_graph(op, fam, plan, 5, 50, keep=50)
        b_totals, b = sample_graph(op, fam, plan, 5, 120, keep=120)
        assert np.array_equal(a, b[:50])
        assert np.array_equal(a_totals, b_totals[:50])

    def test_two_vertex_statistics(self, mollifier, norm1):
        op = GraphOperator(two_vertex_graph(), "resolvent", m2=1.0)
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        rec = reconstruct_green(op, fam)
        tot, _ = sample_graph(op, fam, rec.plan, 2024, 100_000)
        R = tot.shape[0]
        var_x = float(np.mean(tot[:, 0] ** 2))
        cov_xy = float(np.mean(tot[:, 0] * tot[:, 1]))
        # 3 sigma bands from the Gaussian fourth-moment formulae
        se_var = np.sqrt(2.0 * (2 / 3) ** 2 / R)
        se_cov = np.sqrt(((2 / 3) ** 2 + (1 / 3) ** 2) / R)
        assert abs(var_x - 2 / 3) <= 3 * se_var
        assert abs(cov_xy - 1 / 3) <= 3 * se_cov

    def test_single_block_covariance(self, cycle_setup):
        op, fam, plan, rec, _ = cycle_setup
        blk = scale_block(op, fam, 2, rec.plan.L_ratio, rec.plan.nodes_per_block)
        small = ScalePlan(j_min=0, j_max=2)
        _, kept = sample_graph(op, fam, small, 77, 20_000, keep=20_000)
        assert small.scale_labels() == [-1, 0, 1, 2] and kept.shape[1] == 4
        comp = kept[:, small.scale_labels().index(2), :]
        emp = comp.T @ comp / comp.shape[0]
        se = np.sqrt((np.outer(np.diag(blk.matrix), np.diag(blk.matrix))
                      + blk.matrix**2) / comp.shape[0])
        assert np.max(np.abs(emp - blk.matrix) / np.maximum(se, 1e-300)) <= 4.0

    def test_cross_scale_independence(self, cycle_setup):
        op, fam, plan, _, _ = cycle_setup
        _, kept = sample_graph(op, fam, plan, 13, 20_000, keep=20_000)
        n_scales = kept.shape[1]
        worst = 0.0
        for a in range(n_scales):
            for b in range(a + 1, n_scales):
                xa = kept[:, a, :]
                xb = kept[:, b, :]
                va = np.mean(xa**2, axis=0)
                vb = np.mean(xb**2, axis=0)
                keep = (va > 1e-18) & (vb > 1e-18)
                if not np.any(keep):
                    continue
                cross = np.mean(xa * xb, axis=0)[keep]
                se = np.sqrt(va[keep] * vb[keep] / xa.shape[0])
                worst = max(worst, float(np.max(np.abs(cross / se))))
        assert worst <= 4.5

    def test_block_quality_error(self):
        bad = np.diag([1.0, -1e-3])
        with pytest.raises(BlockQualityError):
            _block_factor(bad, field_scale=1.0)

    def test_asymmetric_block_rejected(self):
        with pytest.raises(Exception):
            _block_factor(np.array([[1.0, 0.5], [0.1, 1.0]]), field_scale=1.0)

    def test_zero_mode_guard(self, mollifier, norm1):
        op = GraphOperator(cycle_graph(8))
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        plan = ScalePlan(j_min=0, j_max=2)
        _, kept = sample_graph(op, fam, plan, 1, 4, keep=4)
        assert np.max(np.abs(kept.sum(axis=2))) <= 1e-12


class TestTorusSampler:
    def test_exact_covariance_map(self, mollifier, norm1):
        # the linear map (a, b) -> X has covariance exactly the circulant
        # built from the per-scale mode variances
        spec = LatticeSpec(d=1, a=np.array([[1.0]]), m2=1.0, N=8)
        table = build_symbol_table(spec)
        fam = DiscreteWeightFamily(mollifier, norm1, B=table.B)
        plan = ScalePlan(j_min=0, j_max=3)
        variances = torus_mode_variances(spec, fam, plan, table=table)
        n = spec.size
        xi = 2.0 * np.pi * np.arange(n) / n
        for v in variances:
            vr = v.ravel()
            amp = np.sqrt(vr * n)
            cols = []
            for k in range(n):
                e = np.zeros(n)
                e[k] = 1.0
                cols.append(np.fft.ifft(amp * e).real)
                cols.append(np.fft.ifft(amp * 1j * e).real)
            A = np.array(cols).T
            target = np.array([[np.sum(vr * np.cos(xi * (x - y))) / n
                                for y in range(n)] for x in range(n)])
            assert np.max(np.abs(A @ A.T - target)) <= 1e-14 * max(vr.max(), 1e-30)

    def test_variance_matches_green_diagonal(self, mollifier, norm1):
        spec = LatticeSpec(d=2, a=np.eye(2), m2=0.5, N=8)
        table = build_symbol_table(spec)
        fam = DiscreteWeightFamily(mollifier, norm1, B=table.B)
        plan = ScalePlan(j_min=0, j_max=8)
        totals, _ = sample_torus(spec, fam, plan, 31, 10_000, table=table)
        green0 = green_column(spec).flat[0]     # every site has variance G(0, 0)
        var = np.mean(totals**2, axis=0)
        z = (var - green0) / (np.sqrt(2.0 / 10_000) * green0)
        assert np.max(np.abs(z)) <= 4.0

    def test_determinism(self, mollifier, norm1):
        spec = LatticeSpec(d=1, a=np.array([[1.0]]), m2=1.0, N=16)
        fam = DiscreteWeightFamily(mollifier, norm1,
                                   B=build_symbol_table(spec).B)
        plan = ScalePlan(j_min=0, j_max=3)
        a = sample_torus(spec, fam, plan, 41, 32, keep=32)
        b = sample_torus(spec, fam, plan, 41, 32, keep=32)
        assert a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()

    def test_zero_mode_guard_and_deflation(self, mollifier, norm1):
        spec = LatticeSpec(d=1, a=np.array([[1.0]]), m2=0.0, N=16)
        table = build_symbol_table(spec)
        fam = DiscreteWeightFamily(mollifier, norm1, B=table.B)
        plan = ScalePlan(j_min=0, j_max=3)
        totals, _ = sample_torus(spec, fam, plan, 1, 8, table=table)
        assert np.max(np.abs(totals.sum(axis=1))) <= 1e-10

    def test_per_scale_locality(self, mollifier, norm1, cycle_setup):
        # oracle covariance of a block component vanishes beyond L^j; the
        # empirical covariance there is pure noise with z within bounds
        op, fam, plan, rec, _ = cycle_setup
        blk = scale_block(op, fam, 2, rec.plan.L_ratio, rec.plan.nodes_per_block)
        dist = op.graph.distances()
        outside = dist >= blk.certificates.range_bound
        assert np.max(np.abs(blk.matrix[outside])) <= 1e-12 * np.max(np.abs(blk.matrix))
        small = ScalePlan(j_min=0, j_max=2)
        _, kept = sample_graph(op, fam, small, 8, 20_000, keep=20_000)
        comp = kept[:, small.scale_labels().index(2), :]
        emp = comp.T @ comp / comp.shape[0]
        diag = np.diag(blk.matrix)
        se = np.sqrt(np.outer(diag, diag) / comp.shape[0])
        assert np.max(np.abs(emp[outside] / se[outside])) <= 4.5


class TestCovarianceReport:
    def test_sixteen_cycle_report(self, cycle_setup):
        op, fam, plan, _, oracle = cycle_setup
        totals, _ = sample_graph(op, fam, plan, 20240801, 10_000)
        rep = covariance_report(totals, oracle)
        assert rep.max_abs_z <= 4.0
        assert rep.sample_count == 10_000

    def test_standard_errors_shrink_root_two(self, cycle_setup):
        op, fam, plan, _, oracle = cycle_setup
        r1 = covariance_report(np.ones((2000, 16)), oracle)
        r2 = covariance_report(np.ones((4000, 16)), oracle)
        ratio = r1.standard_errors / r2.standard_errors
        assert np.all(np.abs(ratio - np.sqrt(2.0)) <= 0.1 * np.sqrt(2.0))

    def test_minimum_samples_enforced(self, cycle_setup):
        _, _, _, _, oracle = cycle_setup
        with pytest.raises(ValueError):
            covariance_report(np.zeros((10, 16)), oracle)


def stream_normals(seed, scale, count, draw_shape):
    """Replicates [0, count) of one scale, one whole draw per replicate batch."""
    return np.concatenate([
        _stream(seed, scale, batch).standard_normal(
            (min(REPLICATE_BATCH, count - lo),) + tuple(draw_shape))
        for batch, lo in enumerate(range(0, count, REPLICATE_BATCH))])


class TestDrawLayout:
    """Sampled components equal a scale-by-scale rebuild from the streams."""

    R = 4100    # crosses a REPLICATE_BATCH boundary

    def test_draw_ahead_order_and_thread(self, monkeypatch):
        monkeypatch.setattr(sampler, "SLICE_VALUES", 3000)    # 1000 replicates
        calls, intact = [], []

        def consume(s, lo, values):
            calls.append((s, lo, values.copy(), threading.get_ident()))
            time.sleep(0.005)       # the helper draws the next slice meanwhile
            intact.append(np.array_equal(values, calls[-1][2]))

        _batched_draws(7, 2, self.R, (3,), consume)
        starts = [0, 1000, 2000, 3000, 4000, 4096]
        assert [(s, lo) for s, lo, _, _ in calls] == [(s, lo) for s in range(2)
                                                      for lo in starts]
        assert {ident for *_, ident in calls} == {threading.get_ident()}
        assert all(intact)
        for s in range(2):
            drawn = np.concatenate([v for t, _, v, _ in calls if t == s])
            assert np.array_equal(drawn, stream_normals(7, s, self.R, (3,)))

    def test_concurrent_callers_under_fast_switching(self, monkeypatch):
        # four callers, each with its own helper thread, on two cores
        monkeypatch.setattr(sampler, "SLICE_VALUES", 300)     # 100 replicates
        results, old = {}, sys.getswitchinterval()

        def caller(seed):
            drawn = []
            _batched_draws(seed, 2, self.R, (3,),
                           lambda s, lo, values: drawn.append(values.copy()))
            results[seed] = np.concatenate(drawn)

        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(seed,))
                       for seed in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for seed in range(4):
            expected = np.concatenate([stream_normals(seed, s, self.R, (3,))
                                       for s in range(2)])
            assert np.array_equal(results[seed], expected)

    @pytest.mark.parametrize("slice_values", [None, 1000])
    def test_massless_torus(self, mollifier, norm1, monkeypatch, slice_values):
        if slice_values is not None:
            monkeypatch.setattr(sampler, "SLICE_VALUES", slice_values)
        spec = LatticeSpec(d=1, a=np.array([[1.0]]), m2=0.0, N=16)
        table = build_symbol_table(spec)
        fam = DiscreteWeightFamily(mollifier, norm1, B=table.B)
        plan = ScalePlan(j_min=0, j_max=3)
        _, comps = sample_torus(spec, fam, plan, 13, self.R, keep=self.R, table=table)
        n = spec.size
        for s, v in enumerate(torus_mode_variances(spec, fam, plan, table=table)):
            amp = np.sqrt(v * n)
            vals = stream_normals(13, s, self.R, (2,) + spec.shape)
            x = np.fft.ifftn(amp * (vals[:, 0] + 1j * vals[:, 1]), axes=(-1,)).real
            assert np.array_equal(comps[:, s], x.reshape(self.R, n))

    def test_singular_graph(self, mollifier, norm1):
        op = GraphOperator(cycle_graph(8))
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        plan = ScalePlan(j_min=-2, j_max=4)
        _, comps = sample_graph(op, fam, plan, 17, self.R, keep=self.R)
        weights = op.graph.mu / op.graph.mu.sum()
        for s, A in enumerate(graph_scale_factors(op, fam, plan)):
            x = stream_normals(17, s, self.R, (op.n,)) @ A.T
            assert np.array_equal(comps[:, s], x - (x @ weights)[:, None])


def small_sampler(backend, mollifier, norm1):
    """sample(plan, seed, count, keep) on a 16-cycle or a 16-site ring torus."""
    if backend == "graph":
        op = GraphOperator(cycle_graph(16), "resolvent", m2=1.0)
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        return lambda plan, *args, **kw: sample_graph(op, fam, plan, *args, **kw)
    spec = LatticeSpec(d=1, a=np.array([[1.0]]), m2=1.0, N=16)
    table = build_symbol_table(spec)
    fam = DiscreteWeightFamily(mollifier, norm1, B=table.B)
    return lambda plan, *args, **kw: sample_torus(spec, fam, plan, *args, **kw,
                                                  table=table)


class TestRunningTotals:
    """Totals are summed scale by scale as the slices are drawn."""

    R = 4100    # crosses a REPLICATE_BATCH boundary

    @pytest.mark.parametrize("slice_values", [None, 1000])
    @pytest.mark.parametrize("backend", ["graph", "torus"])
    def test_totals_are_component_sums(self, mollifier, norm1, monkeypatch,
                                       backend, slice_values):
        if slice_values is not None:
            monkeypatch.setattr(sampler, "SLICE_VALUES", slice_values)
        sample = small_sampler(backend, mollifier, norm1)
        plan = ScalePlan(j_min=0, j_max=4)
        totals, kept = sample(plan, 3, self.R, keep=self.R)
        assert kept.shape == (self.R, len(plan.scale_labels()), 16)
        assert np.array_equal(totals, kept.sum(axis=1))
        totals4, kept4 = sample(plan, 3, self.R, keep=4)
        assert np.array_equal(kept4, kept[:4])
        assert totals4.tobytes() == totals.tobytes()

    @pytest.mark.parametrize("backend", ["graph", "torus"])
    def test_memory_does_not_grow_with_scales(self, mollifier, norm1, backend):
        # the per-scale components of every replicate are never held
        if backend == "graph":
            op = GraphOperator(cycle_graph(32), "resolvent", m2=1.0)
            fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
            run = lambda plan: sample_graph(op, fam, plan, 1, 4000)        # noqa: E731
        else:
            spec = LatticeSpec(d=2, a=np.eye(2), m2=0.5, N=8)
            table = build_symbol_table(spec)
            fam = DiscreteWeightFamily(mollifier, norm1, B=table.B)
            run = lambda plan: sample_torus(spec, fam, plan, 1, 4000,      # noqa: E731
                                            table=table)
        peaks = []
        for j_max in (2, 8):
            tracemalloc.start()
            try:
                run(ScalePlan(j_min=0, j_max=j_max))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0], peaks
