import tracemalloc

import numpy as np
import pytest

from conftest import circulant_matrix
from frdecomp import graphs, sampler
from frdecomp.graphs import (GraphOperator, WeightedGraph, cycle_graph, scale_blocks,
                             two_vertex_graph)
from frdecomp.lattice import LatticeSpec, build_symbol_table, green_column
from frdecomp.sampler import (REPLICATE_BATCH, check_settings, covariance_report,
                              lag_covariance_report, sample_graph, sample_torus,
                              _stream)
from frdecomp.weights import (BlockQualityError, DiscreteWeightFamily, ScalePlan,
                              clenshaw_folded, default_scale_plan, mode_variances,
                              reconstruct_green, series_roundoff, spectral_gap)


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
        # the top block may start at PLAN_T_CAP = 1e6 and end at 2 PLAN_T_CAP,
        # but not beyond
        assert ScalePlan(j_min=1, j_max=20, L_ratio=2.0).t_high == 2.0**20
        assert ScalePlan(j_min=1, j_max=6, L_ratio=10.0).t_high == 1e6
        for L_ratio, j_max in ((2.0, 21), (1e6, 3), (1e300, 5)):
            with pytest.raises(ValueError, match="beyond PLAN_T_CAP"):
                ScalePlan(j_min=1, j_max=j_max, L_ratio=L_ratio)
        for L_ratio, j_max in ((10.0, 7), (1e12, 1), (7.0, 8)):
            with pytest.raises(ValueError, match="beyond 2 PLAN_T_CAP"):
                ScalePlan(j_min=1, j_max=j_max, L_ratio=L_ratio)
        # the white piece may end at 1 / PLAN_T_CAP but not below
        assert ScalePlan(j_min=-5, j_max=1, L_ratio=10.0).t_low == 1e-6
        for L_ratio, j_min in ((10.0, -6), (2.0, -100_000_000), (1e300, 0)):
            with pytest.raises(ValueError, match="below 1 / PLAN_T_CAP"):
                ScalePlan(j_min=j_min, j_max=0, L_ratio=L_ratio)
        # at most PLAN_MAX_SCALES = 256 scales, white piece included
        assert len(ScalePlan(j_min=1, j_max=255, L_ratio=1.05).scale_labels()) == 256
        for L_ratio, j_min, j_max in ((1.05, 1, 256), (1.05, -10, 245),
                                      (1.0 + 1e-15, 1, 2_500_000_000_000_000)):
            with pytest.raises(ValueError, match="exceed PLAN_MAX_SCALES = 256"):
                ScalePlan(j_min=j_min, j_max=j_max, L_ratio=L_ratio)
        plan = ScalePlan(j_min=-1, j_max=3)
        assert plan.scale_labels() == [-2, -1, 0, 1, 2, 3]
        assert plan.t_low == 0.25

    def test_series_one_per_label(self, mollifier, norm1):
        fam = DiscreteWeightFamily(mollifier, norm1, B=2.5)
        plan = ScalePlan(j_min=-1, j_max=3, L_ratio=3.0)
        series = plan.series(fam)
        assert len(series) == len(plan.scale_labels())
        assert series[0].tolist() == [
            norm1 * fam.arg_scale * (mollifier.phi_hat0 * plan.t_low)]
        assert [len(a) - 1 for a in series[1:]] == [0, 0, 2, 8, 26]


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
        table = build_symbol_table(LatticeSpec(d=1, a=np.array([[1.0]]), m2=1.0, N=8))
        fam = DiscreteWeightFamily(mollifier, norm1, B=table.B)
        with pytest.raises(ValueError, match=f"^{name} "):
            sample_torus(table, fam, plan, seed, sample_count, keep)

    def test_limits_accepted_and_names(self):
        check_settings(0, 1, 0)
        check_settings(2**64 - 1, 1, 5)
        with pytest.raises(ValueError, match="^sampler.dump_replicates "):
            check_settings(1, 10, -1, names=("seed", "sampler.sample_count",
                                             "sampler.dump_replicates"))


class TestGraphSampler:
    def test_exact_total_covariance(self, cycle_setup):
        # oracle level: sum_s U f_s U^T equals the reconstruction matrix and
        # matches the Green oracle within the reconstruct tolerance
        op, fam, plan, rec, oracle = cycle_setup
        lam, vecs = op.eigensystem()
        total = sum((vecs * v) @ vecs.T
                    for v in mode_variances(lam, fam, plan.series(fam), False))
        assert np.max(np.abs(total - rec.values)) <= 1e-10 * np.max(np.abs(rec.values))
        assert np.max(np.abs(total - op.green_oracle())) <= 1e-5 * np.max(np.abs(oracle))

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
        _, a = sample_graph(op, fam, plan, 5, 50, keep=50)
        _, b = sample_graph(op, fam, plan, 5, 120, keep=120)
        assert np.array_equal(a, b[:50])
        assert np.array_equal(a.sum(axis=1), b.sum(axis=1)[:50])

    def test_two_vertex_statistics(self, mollifier, norm1):
        op = GraphOperator(two_vertex_graph(), "resolvent", m2=1.0)
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        rec = reconstruct_green(op, fam)
        R = 100_000
        gram, _ = sample_graph(op, fam, rec.plan, 2024, R)
        var_x = float(gram[0, 0] / R)
        cov_xy = float(gram[0, 1] / R)
        # 3 sigma bands from the Gaussian fourth-moment formulae
        se_var = np.sqrt(2.0 * (2 / 3) ** 2 / R)
        se_cov = np.sqrt(((2 / 3) ** 2 + (1 / 3) ** 2) / R)
        assert abs(var_x - 2 / 3) <= 3 * se_var
        assert abs(cov_xy - 1 / 3) <= 3 * se_cov

    def test_single_block_covariance(self, cycle_setup):
        op, fam, plan, rec, _ = cycle_setup
        small = ScalePlan(j_min=0, j_max=2)
        blk = scale_blocks(op, fam, small)[1][-1]
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

    def test_block_quality_error(self, mollifier, norm1):
        # a degree-7 block series shifted so that its smallest value on a
        # graph and a torus spectrum is -w: w = series_roundoff / 2 is
        # roundoff and clipped to 0, ten times the bound is a block-quality
        # failure; a degree-0 series is evaluated exactly, so -1e-10 fails
        op = GraphOperator(cycle_graph(8), "resolvent", m2=1.0)
        table = build_symbol_table(LatticeSpec(d=2, a=np.eye(2), m2=1.0, N=8))
        white = np.array([1.0])
        for B, spectrum in ((op.B, op.eigensystem()[0]), (table.B, table.spectrum)):
            fam = DiscreteWeightFamily(mollifier, norm1, B=B)
            theta = 1.0 - 0.5 * fam.arg_scale * spectrum
            block = fam.interval_coefficients(2.0, 8.0)
            block[0] -= clenshaw_folded(block, theta).min()
            bound = series_roundoff(block)
            assert bound > 0
            within, beyond = block.copy(), block.copy()
            within[0] -= 0.5 * bound
            beyond[0] -= 10.0 * bound
            assert clenshaw_folded(within, theta).min() < 0
            ones, clipped = mode_variances(spectrum, fam, [white, within], False)
            assert np.all(ones == 1.0) and ones.shape == spectrum.shape
            assert clipped.min() == 0.0
            for series in (beyond, np.array([-1e-10])):
                with pytest.raises(BlockQualityError, match="negative mode variance"):
                    mode_variances(spectrum, fam, [white, series], False)

    @pytest.mark.parametrize("run", [
        pytest.param(lambda op, fam, plan: sample_graph(op, fam, plan, 3, 100)[0],
                     id="sample_graph"),
        pytest.param(lambda op, fam, plan: reconstruct_green(op, fam, plan).values,
                     id="reconstruct_green")])
    def test_sample_path_applies_no_operator(self, cycle_setup, monkeypatch, run):
        # the eigensystem comes from the plan's spectral gap; sampling and
        # reconstruction then build no block, run no recurrence and factor
        # nothing
        op, fam, plan, _, _ = cycle_setup
        spectral_gap(op)
        calls = []

        def counting(name, fn):
            def wrapped(*args, **kw):
                calls.append(name)
                return fn(*args, **kw)
            return wrapped

        monkeypatch.setattr(graphs, "chebyshev_apply",
                            counting("recurrence", graphs.chebyshev_apply))
        monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
        monkeypatch.setattr(graphs, "scale_blocks", counting("blocks", scale_blocks))
        result = run(op, fam, plan)
        assert calls == [] and result.shape == (op.n, op.n)

    @pytest.mark.parametrize("kind, kw", [
        pytest.param("resolvent", {"m2": 1.0}, id="resolvent"),
        pytest.param("laplacian", {}, id="laplacian")])
    def test_non_constant_measure_exact_covariance(self, mollifier, norm1, kind, kw):
        # a 6-cycle plus one chord: the vertex measure is not constant.  The
        # sampled map is sqrt(mean mu) D^{-1/2} U sqrt(f_s) per scale, and its
        # summed covariance is the field oracle mean(mu) Lambda^{-1} D^{-1}
        edges = [(i, (i + 1) % 6, 1.0) for i in range(6)] + [(0, 3, 1.0)]
        op = GraphOperator(WeightedGraph.from_edges(6, edges), kind, **kw)
        assert np.ptp(op.graph.mu) > 0
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        plan = default_scale_plan(fam, spectral_gap(op))
        lam, vecs = op.eigensystem()
        back = np.sqrt(op.graph.mu.mean() / op.graph.mu)
        variances = mode_variances(lam, fam, plan.series(fam), op.is_singular)
        _, kept = sample_graph(op, fam, plan, 5, 64, keep=64)
        total = np.zeros((op.n, op.n))
        for s, v in enumerate(variances):
            amp = np.sqrt(v)
            assert np.array_equal(
                kept[:, s], ((stream_normals(5, s, 64, (op.n,)) * amp) @ vecs.T) * back)
            A = back[:, None] * vecs * amp
            total += A @ A.T
        oracle = op.field_oracle()
        assert np.max(np.abs(oracle - oracle.T)) <= 1e-14 * np.max(np.abs(oracle))
        assert np.max(np.abs(total - oracle)) <= 1e-5 * np.max(np.abs(oracle))
        if op.is_singular:    # every component has mu-weighted mean zero
            assert np.max(np.abs(kept @ op.graph.mu)) <= 1e-12

    def test_zero_mode_guard(self, mollifier, norm1):
        op = GraphOperator(cycle_graph(8))
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        plan = ScalePlan(j_min=0, j_max=2)
        _, kept = sample_graph(op, fam, plan, 1, 4, keep=4)
        assert np.max(np.abs(kept.sum(axis=2))) <= 1e-12


class TestTorusSampler:
    def test_exact_covariance_map(self, mollifier, norm1, monkeypatch):
        # every unit Fourier coordinate is fed through the sampler's own
        # weighting and map to the sites, as the draw of kept replicate r of
        # every scale; the images of scale s have covariance exactly the
        # circulant block kernel N^{-d} sum_k v_s(k) e^{i k (x - y)}
        class UnitDraws:
            """Row r of every per-scale stream is the unit coordinate e_r."""

            def __init__(self, *key):
                self.row = 0

            def standard_normal(self, out):
                rows = out.reshape(len(out), -1)
                rows[...] = np.eye(rows.shape[1])[self.row:self.row + len(out)]
                self.row += len(out)
                return out

        monkeypatch.setattr(sampler, "_stream", UnitDraws)
        for spec in (LatticeSpec(d=1, a=np.array([[1.0]]), m2=1.0, N=8),
                     LatticeSpec(d=2, a=np.eye(2), m2=0.5, N=8),
                     LatticeSpec(d=2, a=np.eye(2), m2=0.0, N=8),
                     LatticeSpec(d=2, a=np.array([[1.0, 0.3], [0.3, 1.5]]), m2=0.5,
                                 N=16),
                     LatticeSpec(d=3, a=np.eye(3), m2=0.5, N=8)):
            table = build_symbol_table(spec)
            fam = DiscreteWeightFamily(mollifier, norm1, B=table.B)
            plan = default_scale_plan(fam, spectral_gap(table))
            variances = mode_variances(table.spectrum, fam, plan.series(fam),
                                       spec.m2 <= 0.0)
            n = spec.size
            _, kept = sample_torus(table, fam, plan, 1, n, keep=n)
            assert kept.shape == (n, len(variances), n)
            for s, v in enumerate(variances):
                target = circulant_matrix(np.fft.ifftn(v).real)
                images = kept[:, s]
                assert (np.max(np.abs(images.T @ images - target))
                        <= 1e-14 * np.max(np.abs(target)))

    @pytest.mark.parametrize("keep", [0, 100])
    def test_only_kept_rows_are_transformed(self, mollifier, norm1, monkeypatch, keep):
        # the scales are drawn in Fourier coordinates: no transform runs per
        # scale and replicate, and kept rows (across two terms of 64
        # replicates) reach the sites by irfftn alone
        monkeypatch.setattr(sampler, "TERM_VALUES", 64 * 64)
        calls = []

        def recording(name, fn):
            def wrapped(a, *args, **kw):
                calls.append((name, np.shape(a)[0]))
                return fn(a, *args, **kw)
            return wrapped

        table = build_symbol_table(LatticeSpec(d=2, a=np.eye(2), m2=0.5, N=8))
        fam = DiscreteWeightFamily(mollifier, norm1, B=table.B)
        plan = ScalePlan(j_min=0, j_max=3)
        for name in dir(np.fft):
            if not name.startswith("_") and callable(getattr(np.fft, name)):
                monkeypatch.setattr(np.fft, name, recording(name, getattr(np.fft, name)))
        sample_torus(table, fam, plan, 1, 4100, keep=keep)
        assert {name for name, _ in calls} <= {"irfftn"}
        assert sorted(rows for _, rows in calls) == sorted(
            [64, 36] * len(plan.scale_labels()) if keep else [])

    def test_variance_matches_green_diagonal(self, mollifier, norm1):
        spec = LatticeSpec(d=2, a=np.eye(2), m2=0.5, N=8)
        table = build_symbol_table(spec)
        fam = DiscreteWeightFamily(mollifier, norm1, B=table.B)
        plan = ScalePlan(j_min=0, j_max=8)
        _, kept = sample_torus(table, fam, plan, 31, 10_000, keep=10_000)
        totals = kept.sum(axis=1)
        green0 = green_column(spec).flat[0]     # every site has variance G(0, 0)
        var = np.mean(totals**2, axis=0)
        z = (var - green0) / (np.sqrt(2.0 / 10_000) * green0)
        assert np.max(np.abs(z)) <= 4.0

    def test_determinism(self, mollifier, norm1):
        table = build_symbol_table(LatticeSpec(d=1, a=np.array([[1.0]]), m2=1.0, N=16))
        fam = DiscreteWeightFamily(mollifier, norm1, B=table.B)
        plan = ScalePlan(j_min=0, j_max=3)
        a = sample_torus(table, fam, plan, 41, 32, keep=32)
        b = sample_torus(table, fam, plan, 41, 32, keep=32)
        assert a[0].tobytes() == b[0].tobytes() and a[1].tobytes() == b[1].tobytes()

    def test_many_seeds_statistics(self, mollifier, norm1):
        # 8 x 8 torus, R = 2000, seeds 0..19: max |z| of the dense report's
        # upper triangle and of the lag report under the command line's
        # default bound for their row counts, and mean z^2 within 3 standard
        # errors of 1
        upper = np.triu_indices(64)
        dense, lag = torus_seed_sweep(mollifier, norm1, 0.5, [
            lambda power, totals, column: covariance_report(
                totals.T @ totals, len(totals), circulant_matrix(column)).z_scores[upper],
            lambda power, totals, column: lag_covariance_report(
                power, len(totals), column).z_scores])
        assert_z_statistics(dense, len(upper[0]))
        assert_z_statistics(lag, 64)

    def test_massless_many_seeds_lag_statistics(self, mollifier, norm1):
        lag, = torus_seed_sweep(mollifier, norm1, 0.0, [
            lambda power, totals, column: lag_covariance_report(
                power, len(totals), column).z_scores])
        assert_z_statistics(lag, 64)

    def test_zero_mode_guard_and_deflation(self, mollifier, norm1):
        spec = LatticeSpec(d=1, a=np.array([[1.0]]), m2=0.0, N=16)
        table = build_symbol_table(spec)
        fam = DiscreteWeightFamily(mollifier, norm1, B=table.B)
        plan = ScalePlan(j_min=0, j_max=3)
        power, kept = sample_torus(table, fam, plan, 1, 8, keep=8)
        assert np.max(np.abs(kept.sum(axis=1).sum(axis=1))) <= 1e-10
        assert power.flat[0] == 0.0     # the zero mode of every replicate

    def test_per_scale_locality(self, mollifier, norm1, cycle_setup):
        # oracle covariance of a block component vanishes beyond L^j; the
        # empirical covariance there is pure noise with z within bounds
        op, fam, plan, rec, _ = cycle_setup
        blk = scale_blocks(op, fam, ScalePlan(j_min=0, j_max=2))[1][-1]
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


def torus_seed_sweep(mollifier, norm1, m2, reports):
    """For each report(power, totals, column), its z scores on an 8 x 8 torus
    of mass m2 with the default plan, R = 2000, one array per seed 0..19;
    power is the sampler's statistic, totals the replicates, summed from the
    components kept at keep = R."""
    spec = LatticeSpec(d=2, a=np.eye(2), m2=m2, N=8)
    table = build_symbol_table(spec)
    fam = DiscreteWeightFamily(mollifier, norm1, B=table.B)
    plan = default_scale_plan(fam, spectral_gap(table))
    column = green_column(spec)
    scores = [[] for _ in reports]
    for seed in range(20):
        power, kept = sample_torus(table, fam, plan, seed, 2000, keep=2000)
        totals = kept.sum(axis=1)
        for z, report in zip(scores, reports):
            z.append(report(power, totals, column))
    return scores


def assert_z_statistics(scores, rows):
    """max |z| of every seed under the command line's default bound
    sqrt(2 ln 2 rows) + 1, and the seeds' mean z^2 within 3 standard errors
    of 1."""
    bound = sampler.default_z_bound(rows)
    max_z = [np.max(np.abs(z)) for z in scores]
    mean_z2 = [np.mean(z**2) for z in scores]
    assert all(np.size(z) == rows for z in scores)
    assert max(max_z) <= bound, max_z
    se = np.std(mean_z2, ddof=1) / np.sqrt(len(mean_z2))
    assert abs(np.mean(mean_z2) - 1.0) <= 3.0 * se, mean_z2


class TestCovarianceReport:
    def test_sixteen_cycle_report(self, cycle_setup):
        op, fam, plan, _, oracle = cycle_setup
        gram, _ = sample_graph(op, fam, plan, 20240801, 10_000)
        rep = covariance_report(gram, 10_000, oracle)
        assert rep.max_abs_z <= 4.0
        assert rep.sample_count == 10_000

    def test_standard_errors_shrink_root_two(self, cycle_setup):
        op, fam, plan, _, oracle = cycle_setup
        r1 = covariance_report(np.full((16, 16), 2000.0), 2000, oracle)
        r2 = covariance_report(np.full((16, 16), 4000.0), 4000, oracle)
        ratio = r1.standard_errors / r2.standard_errors
        assert np.all(np.abs(ratio - np.sqrt(2.0)) <= 0.1 * np.sqrt(2.0))

    def test_minimum_samples_enforced(self, cycle_setup):
        # both reports refuse what check_settings refuses, and nothing more
        _, _, _, _, oracle = cycle_setup
        with pytest.raises(ValueError, match="sample_count must be positive, got 0"):
            covariance_report(np.zeros((16, 16)), 0, oracle)
        with pytest.raises(ValueError, match="sample_count must be positive, got 0"):
            lag_covariance_report(np.zeros(9), 0, oracle[:, 0])
        assert covariance_report(np.full((16, 16), 10.0), 10, oracle).sample_count == 10
        assert lag_covariance_report(np.zeros(9), 10, oracle[:, 0]).sample_count == 10

    def test_statistic_shape_checked(self, cycle_setup):
        _, _, _, _, oracle = cycle_setup
        with pytest.raises(ValueError, match="gram shape"):
            covariance_report(np.zeros((8, 8)), 2000, oracle)
        with pytest.raises(ValueError, match="power shape"):
            lag_covariance_report(np.zeros(16), 2000, oracle[:, 0])


def power_spectrum(totals, shape):
    """sum_r |rfftn(X_r)|^2 of site fields totals (replicates, sites)."""
    axes = tuple(range(-len(shape), 0))
    spectra = np.fft.rfftn(totals.reshape((-1,) + shape), axes=axes)
    return np.sum(spectra.real**2 + spectra.imag**2, axis=0)


class TestLagCovarianceReport:
    @pytest.fixture(scope="class")
    def torus_setup(self, mollifier, norm1):
        spec = LatticeSpec(d=2, a=np.eye(2), m2=0.5, N=8)
        table = build_symbol_table(spec)
        fam = DiscreteWeightFamily(mollifier, norm1, B=table.B)
        plan = default_scale_plan(fam, spectral_gap(table))
        return spec, (lambda: sample_torus(table, fam, plan, 3, 2000, keep=2000)), \
            green_column(spec)

    @pytest.fixture(scope="class")
    def torus_totals(self, torus_setup):
        spec, sample, column = torus_setup
        power, kept = sample()
        return spec, power, kept.sum(axis=1), column

    @pytest.mark.parametrize("term_values", [None, 1000])
    def test_lag_means_of_dense_report(self, torus_setup, monkeypatch, term_values):
        # c(h) is the dense empirical covariance averaged over x - y = h, with
        # the power spectrum summed in terms of 1,024 replicates or of 64
        if term_values is not None:
            monkeypatch.setattr(sampler, "TERM_VALUES", term_values)
        spec, sample, column = torus_setup
        power, kept = sample()
        totals = kept.sum(axis=1)
        rep = lag_covariance_report(power, 2000, column)
        dense = covariance_report(totals.T @ totals, 2000, circulant_matrix(column))
        lag = circulant_matrix(np.arange(spec.size).reshape(spec.shape))   # x - y
        mean = np.bincount(lag.ravel(), dense.empirical.ravel()) / spec.size
        assert rep.empirical.shape == spec.shape and rep.sample_count == 2000
        assert np.max(np.abs(rep.empirical.ravel() - mean)) <= 1e-14 * column.flat[0]
        assert np.array_equal(rep.oracle, column)

    def test_variance_by_loop(self, torus_totals):
        # (sum_u C(u)^2 + sum_u C(u + h) C(u - h)) / (R n), summed directly
        spec, power, totals, column = torus_totals
        rep = lag_covariance_report(power, len(totals), column)
        R, n = totals.shape
        for h in np.ndindex(spec.shape):
            cross = sum(column[tuple((u[i] + h[i]) % spec.N for i in range(2))]
                        * column[tuple((u[i] - h[i]) % spec.N for i in range(2))]
                        for u in np.ndindex(spec.shape))
            var = (np.sum(column**2) + cross) / (R * n)
            assert abs(rep.standard_errors[h] ** 2 - var) <= 1e-14 * var

    def test_catches_non_stationary_field(self, torus_totals):
        # one site of doubled amplitude breaks translation invariance
        spec, power, totals, column = torus_totals
        bound = sampler.default_z_bound(spec.size)
        assert lag_covariance_report(power, len(totals), column).max_abs_z <= bound
        scaled = totals.copy()
        scaled[:, 0] *= 2.0
        assert lag_covariance_report(power_spectrum(scaled, spec.shape), len(totals),
                                     column).max_abs_z > bound


def real_fourier_basis(shape):
    """(n, n): row j is the site field of Fourier coordinate j, built mode by
    mode.  Coordinate j is frequency k (flat index j); with -k at flat index
    m, a self-conjugate k (m = j) carries n^{-1/2} cos(k x), and a pair
    carries sqrt(2/n) cos(k x) on the lower of j, m and sqrt(2/n) sin(k x),
    k the lower one's frequency, on the higher."""
    n = int(np.prod(shape))
    sites = np.array(list(np.ndindex(shape)))
    basis = np.empty((n, n))
    for j, k in enumerate(np.ndindex(shape)):
        minus = tuple(-ki % size for ki, size in zip(k, shape))
        m = np.ravel_multi_index(minus, shape)
        low = k if j <= m else minus
        phase = 2.0 * np.pi * sites @ (np.array(low) / np.array(shape))
        if j == m:
            basis[j] = np.cos(phase) / np.sqrt(n)
        elif j < m:
            basis[j] = np.sqrt(2.0 / n) * np.cos(phase)
        else:
            basis[j] = np.sqrt(2.0 / n) * np.sin(phase)
    return basis


def stream_normals(seed, scale, count, draw_shape):
    """Replicates [0, count) of one scale, one whole draw per replicate batch;
    scale None is the summed field's stream."""
    return np.concatenate([
        _stream(seed, *((batch,) if scale is None else (scale, batch)))
        .standard_normal((min(REPLICATE_BATCH, count - lo),) + tuple(draw_shape))
        for batch, lo in enumerate(range(0, count, REPLICATE_BATCH))])


def field_coordinates(variances, seed, count, keep, draw_shape):
    """The eigen-coordinates y of replicates [0, count), rebuilt from the
    streams: replicate r < keep sums sqrt(v_s) times scale s's row r, every
    other replicate is sqrt(sum_s v_s) times row r of the field stream."""
    y = stream_normals(seed, None, count, draw_shape) * np.sqrt(np.sum(variances, axis=0))
    y[:keep] = sum(np.sqrt(v) * stream_normals(seed, s, keep, draw_shape)
                   for s, v in enumerate(variances)) if keep else 0.0
    return y


class TestDrawLayout:
    """Sampled components equal a scale-by-scale rebuild from the streams."""

    R = 4100    # crosses a REPLICATE_BATCH boundary

    def test_streams_differ_across_seed_scale_and_batch(self):
        # keys (seed, scale, batch) are per-scale streams, keys (seed, batch)
        # the summed field's.  (0, 0, 2**40) against (0, 1, 0): a key packing
        # scale << 40 | batch into one word would give these two one stream;
        # the field stream of batch b must differ from scale b's and from
        # every scale's batch b
        def draw(key):
            return _stream(*key).standard_normal(8)

        pairs = [((0, 0, 0), (0, 1, 0)), ((0, 0, 0), (0, 0, 1)),
                 ((0, 0, 0), (1, 0, 0)), ((0, 1, 0), (0, 0, 1)),
                 ((0, 1, 0), (1, 0, 0)), ((0, 0, 1), (1, 0, 0)),
                 ((0, 0, 2**40), (0, 1, 0)),
                 ((0, 0), (0, 1)), ((0, 0), (1, 0)), ((0, 1), (1, 0)),
                 ((0, 0), (0, 0, 0)), ((0, 3), (0, 3, 0)), ((0, 3), (0, 0, 3)),
                 ((0, 1), (0, 9, 1)), ((7, 2), (7, 2, 2))]
        for a, b in pairs:
            first = draw(a)
            assert not np.any(first == draw(b)), (a, b)
            assert np.array_equal(first, draw(a))

    def test_largest_seed_builds_a_stream(self):
        check_settings(2**64 - 1, 1, 0)
        values = _stream(2**64 - 1, 3, 5).standard_normal(8)
        assert np.all(np.isfinite(values))
        assert not np.array_equal(values, _stream(2**64 - 2, 3, 5).standard_normal(8))

    @pytest.mark.parametrize("term_values", [None, 1000])
    def test_massless_torus(self, mollifier, norm1, monkeypatch, term_values):
        # terms of 4,096 replicates or of 64
        if term_values is not None:
            monkeypatch.setattr(sampler, "TERM_VALUES", term_values)
        spec = LatticeSpec(d=1, a=np.array([[1.0]]), m2=0.0, N=16)
        table = build_symbol_table(spec)
        fam = DiscreteWeightFamily(mollifier, norm1, B=table.B)
        plan = ScalePlan(j_min=0, j_max=3)
        _, comps = sample_torus(table, fam, plan, 13, self.R, keep=self.R)
        basis = real_fourier_basis(spec.shape)
        for s, v in enumerate(mode_variances(table.spectrum, fam, plan.series(fam), True)):
            c = stream_normals(13, s, self.R, spec.shape) * np.sqrt(v)
            x = c.reshape(self.R, spec.size) @ basis
            assert np.max(np.abs(comps[:, s] - x)) <= 1e-14 * np.max(np.abs(x))

    def test_singular_graph(self, mollifier, norm1):
        op = GraphOperator(cycle_graph(8))
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        plan = ScalePlan(j_min=-2, j_max=4)
        _, comps = sample_graph(op, fam, plan, 17, self.R, keep=self.R)
        lam, vecs = op.eigensystem()
        back = np.sqrt(op.graph.mu.mean() / op.graph.mu)
        for s, v in enumerate(mode_variances(lam, fam, plan.series(fam), True)):
            eta = stream_normals(17, s, self.R, (op.n,))
            assert np.array_equal(comps[:, s], ((eta * np.sqrt(v)) @ vecs.T) * back)

    @pytest.mark.parametrize("keep", [0, 5, 4097])
    def test_torus_draws_one_real_normal_per_site(self, mollifier, norm1, monkeypatch,
                                                  keep):
        # R x n normals of the summed field and keep x scales x n of the
        # kept components: one per site, half of a complex draw per mode
        drawn = {"field": 0, "scales": 0}

        class Counting:
            def __init__(self, kind, rng):
                self.kind, self.rng = kind, rng

            def standard_normal(self, out):
                drawn[self.kind] += out.size
                return self.rng.standard_normal(out=out)

        monkeypatch.setattr(sampler, "_stream", lambda seed, *key: Counting(
            "field" if len(key) == 1 else "scales", _stream(seed, *key)))
        spec = LatticeSpec(d=2, a=np.eye(2), m2=0.5, N=8)
        table = build_symbol_table(spec)
        fam = DiscreteWeightFamily(mollifier, norm1, B=table.B)
        plan = ScalePlan(j_min=0, j_max=3)
        sample_torus(table, fam, plan, 1, self.R, keep=keep)
        assert drawn == {"field": self.R * spec.size,
                         "scales": keep * len(plan.scale_labels()) * spec.size}


def small_sampler(backend, mollifier, norm1):
    """sample(plan, seed, count, keep) on a 16-cycle or a 16-site ring torus,
    expect(plan, seed, count, keep), the replicates rebuilt from the streams
    (field_coordinates mapped once to the sites; on the torus by
    real_fourier_basis), and
    statistic(totals), the sampler's statistic of site fields."""
    if backend == "torus":
        spec = LatticeSpec(d=1, a=np.array([[1.0]]), m2=1.0, N=16)
        table = build_symbol_table(spec)
        fam = DiscreteWeightFamily(mollifier, norm1, B=table.B)

        def expect(plan, seed, count, keep):
            variances = mode_variances(table.spectrum, fam, plan.series(fam), False)
            y = field_coordinates(variances, seed, count, keep, (16,))
            return y @ real_fourier_basis(spec.shape)

        return (lambda plan, *args, **kw: sample_torus(table, fam, plan, *args, **kw),
                expect, lambda totals: power_spectrum(totals, spec.shape))
    op = GraphOperator(cycle_graph(16), "resolvent", m2=1.0)
    fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
    lam, vecs = op.eigensystem()

    def expect(plan, seed, count, keep):
        variances = mode_variances(lam, fam, plan.series(fam), False)
        y = field_coordinates(variances, seed, count, keep, (op.n,))
        return (y @ vecs.T) * np.sqrt(op.graph.mu.mean() / op.graph.mu)

    return (lambda plan, *args, **kw: sample_graph(op, fam, plan, *args, **kw),
            expect, lambda totals: totals.T @ totals)


class TestFoldTerms:
    def test_term_rows(self):
        # the largest power of two of replicates with at most 2^16 values,
        # clamped to [FOLD_ROWS, REPLICATE_BATCH]: 256 on graph-sample's
        # 256-cycle, 64 on its 32 x 32 torus, and always a divisor of
        # REPLICATE_BATCH
        for sites in range(8, 4097):
            rows = sampler._term_rows(sites)
            assert REPLICATE_BATCH % rows == 0
            assert sampler.FOLD_ROWS <= rows <= REPLICATE_BATCH
            assert rows * sites <= sampler.TERM_VALUES or rows == sampler.FOLD_ROWS
            assert 2 * rows * sites > sampler.TERM_VALUES or rows == REPLICATE_BATCH
        sites = (8, 64, 256, 512, 1024, 4096, 32768)
        assert [sampler._term_rows(n) for n in sites] == [
            4096, 1024, 256, 128, 64, 64, 64]

    @pytest.mark.parametrize("backend, sites, rows", [
        ("graph", 256, 256), ("torus", 64, 1024), ("torus", 1024, 64)])
    def test_fold_sizes(self, mollifier, norm1, monkeypatch, backend, sites, rows):
        # every fold is one term of _term_rows(sites) replicates, on a graph
        # and on tori on either side of the FOLD_ROWS clamp; the last term of
        # a batch holds what is left of it
        spectral_sample, sizes = sampler._spectral_sample, []

        def recording(seed, count, keep, variances, to_sites, fold):
            def counted(rows):
                sizes.append(len(rows))
                return fold(rows)
            return spectral_sample(seed, count, keep, variances, to_sites, counted)

        monkeypatch.setattr(sampler, "_spectral_sample", recording)
        R = 5000
        plan = ScalePlan(j_min=0, j_max=3)
        if backend == "graph":
            op = GraphOperator(cycle_graph(sites), "resolvent", m2=0.1)
            fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
            sample_graph(op, fam, plan, 1, R)
        else:
            spec = LatticeSpec(d=2, a=np.eye(2), m2=0.5, N=int(np.sqrt(sites)))
            table = build_symbol_table(spec)
            fam = DiscreteWeightFamily(mollifier, norm1, B=table.B)
            sample_torus(table, fam, plan, 1, R)
        assert sampler._term_rows(sites) == rows
        expected = []
        for lo in range(0, R, REPLICATE_BATCH):
            size = min(REPLICATE_BATCH, R - lo)
            expected += [rows] * (size // rows) + ([size % rows] if size % rows else [])
        assert sizes == expected


class TestRunningTotals:
    """The field summed over scales reaches the caller only as the streamed
    statistic; the kept components sum to its first replicates."""

    R = 4100    # crosses a REPLICATE_BATCH boundary

    @pytest.mark.parametrize("term_values", [None, 1000])
    @pytest.mark.parametrize("backend", ["graph", "torus"])
    def test_totals_are_component_sums(self, mollifier, norm1, monkeypatch,
                                       backend, term_values):
        # every replicate kept: the statistic is that of the summed components,
        # folded in terms of 4,096 replicates or of 64
        if term_values is not None:
            monkeypatch.setattr(sampler, "TERM_VALUES", term_values)
        sample, expect, statistic = small_sampler(backend, mollifier, norm1)
        plan = ScalePlan(j_min=0, j_max=4)
        stat, kept = sample(plan, 3, self.R, keep=self.R)
        assert kept.shape == (self.R, len(plan.scale_labels()), 16)
        totals = kept.sum(axis=1)
        reference = statistic(totals)
        assert np.max(np.abs(stat - reference)) <= 1e-12 * np.max(np.abs(reference))
        _, kept4 = sample(plan, 3, self.R, keep=4)
        assert np.array_equal(kept4, kept[:4])

    @pytest.mark.parametrize("keep", [0, 5, 4097])
    @pytest.mark.parametrize("backend", ["graph", "torus"])
    def test_statistic_rebuilt_from_streams(self, mollifier, norm1, backend, keep):
        # replicates r < keep are the sums of their components, the others
        # are drawn from the field streams at offset r % REPLICATE_BATCH, also
        # past a batch boundary and whatever keep is
        sample, expect, statistic = small_sampler(backend, mollifier, norm1)
        plan = ScalePlan(j_min=0, j_max=4)
        stat, kept = sample(plan, 3, self.R, keep=keep)
        assert kept.shape == (keep, len(plan.scale_labels()), 16)
        totals = expect(plan, 3, self.R, keep)
        if keep:
            scale = np.max(np.abs(totals[:keep]))
            assert np.max(np.abs(totals[:keep] - kept.sum(axis=1))) <= 1e-14 * scale
        reference = statistic(totals)
        assert np.max(np.abs(stat - reference)) <= 1e-12 * np.max(np.abs(reference))

    @pytest.mark.parametrize("backend", ["graph", "torus"])
    def test_kept_independent_of_terms(self, mollifier, norm1, monkeypatch, backend):
        # terms of 4,096, 64, 1,024 and 512 replicates on 16 sites (TERM_VALUES
        # 1000, 20,000 and 12,345 are not powers of two), with the kept rows
        # ending inside a term or kept whole: the kept rows are byte-identical,
        # and only the statistic's summation order moves
        sample, _, _ = small_sampler(backend, mollifier, norm1)
        plan = ScalePlan(j_min=0, j_max=4)
        terms = ((sampler.TERM_VALUES, 4096), (1000, 64), (20_000, 1024), (12_345, 512))
        for keep in (100, self.R):
            runs = []
            for term_values, rows in terms:
                monkeypatch.setattr(sampler, "TERM_VALUES", term_values)
                assert sampler._term_rows(16) == rows
                runs.append(sample(plan, 3, self.R, keep=keep))
            stat, kept = runs[0]
            for other_stat, other_kept in runs[1:]:
                assert other_kept.tobytes() == kept.tobytes()
                assert np.max(np.abs(other_stat - stat)) <= 1e-13 * np.max(np.abs(stat))

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
            run = lambda plan: sample_torus(table, fam, plan, 1, 4000)     # noqa: E731
        peaks = []
        for j_max in (2, 8):
            tracemalloc.start()
            try:
                run(ScalePlan(j_min=0, j_max=j_max))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.1 * peaks[0], peaks

    @pytest.mark.parametrize("backend", ["graph", "torus"])
    def test_memory_does_not_grow_with_sample_count(self, mollifier, norm1, cycle_setup,
                                                    backend):
        # 10^5 replicates of the default plan on a 16-cycle and an 8 x 8
        # torus: the peak stays under a quarter of one replicates x sites
        # array, so no array of that size is ever held
        R = 100_000
        if backend == "graph":
            op, fam, plan, _, _ = cycle_setup
            op.eigensystem()
            run, sites = lambda: sample_graph(op, fam, plan, 1, R), op.n   # noqa: E731
        else:
            spec = LatticeSpec(d=2, a=np.eye(2), m2=0.5, N=8)
            table = build_symbol_table(spec)
            fam = DiscreteWeightFamily(mollifier, norm1, B=table.B)
            plan = default_scale_plan(fam, spectral_gap(table))
            run, sites = lambda: sample_torus(table, fam, plan, 1, R), spec.size  # noqa: E731
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < R * sites * 8 / 4, peak

    def test_torus_peak_within_term_buffers(self, mollifier, norm1):
        # perfbench's torus-sample: 64-replicate terms of a 32 x 32 torus.
        # The peak is y (one term), the draw buffer of one scale's kept rows,
        # the statistic and the kept rows, plus the fold's square of one term
        # and 512 KiB for the amplitudes and small arrays
        spec = LatticeSpec(d=2, a=np.eye(2), m2=0.5, N=32)
        table = build_symbol_table(spec)
        fam = DiscreteWeightFamily(mollifier, norm1, B=table.B)
        plan = default_scale_plan(fam, spectral_gap(table))
        sample_torus(table, fam, plan, 1, 100, keep=4)     # numpy.random's first-use cost
        tracemalloc.start()
        try:
            power, kept = sample_torus(table, fam, plan, 1, 4000, keep=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        term = sampler._term_rows(spec.size) * spec.size * 8
        assert term == sampler.TERM_VALUES * 8
        buffers = term + kept[:, 0].nbytes
        slack = term + 2**19
        assert peak < buffers + power.nbytes + kept.nbytes + slack, peak

    def test_statistic_maps_to_sites(self, mollifier, norm1):
        # the report reads only the streamed statistic: the graph's Gram, summed
        # in eigen-coordinates and mapped once, on a graph whose vertex measure
        # is not constant, and the massless torus power spectrum, summed from
        # the weighted spectra, match the kept components' site fields
        edges = [(i, (i + 1) % 6, 1.0) for i in range(6)] + [(0, 3, 1.0)]
        op = GraphOperator(WeightedGraph.from_edges(6, edges), "resolvent", m2=1.0)
        assert np.ptp(op.graph.mu) > 0
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        plan = default_scale_plan(fam, spectral_gap(op))
        gram, kept = sample_graph(op, fam, plan, 4, 5000, keep=5000)
        totals = kept.sum(axis=1)
        reference = totals.T @ totals
        assert np.max(np.abs(gram - reference)) <= 1e-12 * np.max(np.abs(reference))
        spec = LatticeSpec(d=2, a=np.eye(2), m2=0.0, N=8)
        table = build_symbol_table(spec)
        fam = DiscreteWeightFamily(mollifier, norm1, B=table.B)
        plan = default_scale_plan(fam, spectral_gap(table))
        power, kept = sample_torus(table, fam, plan, 4, 5000, keep=5000)
        reference = power_spectrum(kept.sum(axis=1), spec.shape)
        assert np.max(np.abs(power - reference)) <= 1e-12 * np.max(np.abs(reference))
