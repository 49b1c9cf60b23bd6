import numpy as np
import pytest

from conftest import circulant_matrix, stencil_operator
from frdecomp.lattice import (DEFAULT_XI_CUTOFF, LatticeError, LatticeSpec,
                              WrapAroundError, axis_differences, build_symbol_table,
                              continuum_kernel, decay_fit,
                              discrete_continuum_gap, green_column,
                              lattice_kernel, mass_family_sweep,
                              matched_continuum_kernel_at_points, torus_linf_distance)
from frdecomp.quadrature import gauss_legendre
from frdecomp.weights import (DiscreteWeightFamily, ScalePlan, chebyshev_coefficients,
                              clenshaw_folded, default_scale_plan, mode_variances,
                              reconstruct_green, series_roundoff, spectral_gap)


ANISOTROPIC_2D = [[1.0, 0.3], [0.3, 1.5]]
ANISOTROPIC_3D = [[1.0, 0.2, 0.0], [0.2, 1.5, -0.1], [0.0, -0.1, 1.0]]


def make_family(m, norm, B):
    return DiscreteWeightFamily(m, norm, B=B)


def continuum_tail_bound(d, t, family, xi_cutoff=DEFAULT_XI_CUTOFF):
    """Bound on the omitted |xi| > cutoff mass of the continuum integral, for
    the ContinuousWeightFamily family.

    int_{cutoff/t}^inf rho^{d-1} C phi(rho t) drho = t^{-d} C
    int_cutoff^inf u^{d-1} phi(u) du: a 4000-node rule on the phi table up to
    x_max, and beyond it the remainder from (1 + u^2)^4 phi(u) <= K_4.
    """
    m = family.mollifier
    angular = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}[d]
    pref = angular / (2.0 * np.pi) ** d
    u, w = gauss_legendre(xi_cutoff, m.x_max, 4000)
    tail = (np.sum(w * u ** (d - 1) * m.phi(u))
            + m.decay_sups[4] * m.x_max ** (d - 8.0) / (8.0 - d))
    return float(t**2 * pref * family.C * tail / t**d)


class TestLatticeSpec:
    def test_valid(self):
        LatticeSpec(d=2, a=np.eye(2), m2=0.5, N=16)

    def test_rejects_non_spd(self):
        with pytest.raises(LatticeError):
            LatticeSpec(d=2, a=np.array([[1.0, 2.0], [2.0, 1.0]]), m2=0.0, N=16)

    def test_rejects_asymmetric(self):
        with pytest.raises(LatticeError):
            LatticeSpec(d=2, a=np.array([[1.0, 0.5], [0.1, 1.0]]), m2=0.0, N=16)

    def test_rejects_bad_torus_size(self):
        with pytest.raises(LatticeError):
            LatticeSpec(d=1, a=np.array([[1.0]]), m2=0.0, N=12)
        with pytest.raises(LatticeError):
            LatticeSpec(d=1, a=np.array([[1.0]]), m2=0.0, N=4)

    def test_rejects_mass_out_of_range(self):
        with pytest.raises(LatticeError):
            LatticeSpec(d=1, a=np.array([[1.0]]), m2=-0.1, N=8)
        with pytest.raises(LatticeError):
            LatticeSpec(d=1, a=np.array([[1.0]]), m2=1000.0, N=8)

    @pytest.mark.parametrize("d, a, message", [
        (0, [[1.0]], "dimension must be 1, 2 or 3"),
        (4, np.eye(4), "dimension must be 1, 2 or 3"),
        (2, [[1.0]], "coefficient matrix must be 2x2"),
        (2, np.eye(3), "coefficient matrix must be 2x2"),
        (3, np.eye(2), "coefficient matrix must be 3x3")])
    def test_rejects_dimension_and_shape(self, d, a, message):
        with pytest.raises(LatticeError, match=message):
            LatticeSpec(d=d, a=np.array(a), m2=0.5, N=8)

    def test_rejects_eigenvalues_outside_window(self):
        # the fixed window [B_MINUS2, B_PLUS2] = [1e-6, 1e6]
        for a in ([[2e6]], [[1e-7]]):
            with pytest.raises(LatticeError, match="outside"):
                LatticeSpec(d=1, a=np.array(a), m2=0.0, N=8)


class TestSymbolTable:
    def test_one_dimensional_endpoint(self):
        spec = LatticeSpec(d=1, a=np.array([[1.0]]), m2=0.0, N=8)
        table = build_symbol_table(spec)
        assert table.spectrum[4] == pytest.approx(4.0, abs=1e-14)

    def test_zero_mode_is_mass(self):
        spec = LatticeSpec(d=2, a=np.eye(2), m2=0.7, N=8)
        table = build_symbol_table(spec)
        assert table.spectrum[0, 0] == pytest.approx(0.7, abs=1e-14)
        assert table.spectrum.min() >= 0.7 - 1e-13

    def test_spectral_gap_of_non_singular_is_smallest_mode(self):
        # a non-singular torus has no zero mode, however small its mass
        for m2 in (1e-13, 0.5):
            table = build_symbol_table(LatticeSpec(d=2, a=np.eye(2), m2=m2, N=8))
            assert not table.is_singular
            assert spectral_gap(table) == table.spectrum.min() == m2
        massless = build_symbol_table(LatticeSpec(d=2, a=np.eye(2), m2=0.0, N=8))
        assert massless.is_singular
        assert spectral_gap(massless) == massless.spectrum.ravel()[1:].min() > 0.5

    def test_two_dimensional_closed_form(self):
        spec = LatticeSpec(d=2, a=np.eye(2), m2=0.0, N=8)
        table = build_symbol_table(spec)
        # a*(xi) = 4 sin^2(xi1/2) + 4 sin^2(xi2/2) at xi = (pi/2, pi/2)
        assert table.spectrum[2, 2] == pytest.approx(4.0, rel=1e-13)
        grid = 2.0 * np.pi * np.arange(8) / 8
        expect = (4 * np.sin(grid[:, None] / 2) ** 2
                  + 4 * np.sin(grid[None, :] / 2) ** 2)
        np.testing.assert_allclose(table.spectrum, expect, atol=1e-13)

    def test_cross_terms_real_nonnegative(self):
        spec = LatticeSpec(d=2, a=np.array([[1.0, 0.4], [0.4, 2.0]]), m2=0.0, N=16)
        table = build_symbol_table(spec)
        assert table.spectrum.min() >= -1e-13
        assert table.B == table.spectrum.max()

    @pytest.mark.parametrize("d, a, m2, N", [
        (1, [[1.0]], 0.5, 64),
        (2, np.eye(2), 0.5, 8),
        (2, ANISOTROPIC_2D, 0.0, 16),
        (2, np.eye(2), 0.5, 32),
        (3, ANISOTROPIC_3D, 0.5, 8)])
    def test_even_in_frequency_bit_for_bit(self, d, a, m2, N):
        # v(-k) = v(k) exactly, so every mode variance is even and the
        # sampled planes k_last in {0, N/2} need no projection
        values = build_symbol_table(LatticeSpec(d=d, a=np.array(a), m2=m2, N=N)).spectrum
        negated = values[np.ix_(*[-np.arange(N) % N] * d)]
        assert np.array_equal(values, negated)

    def test_matches_dense_operator_on_plane_waves(self):
        # independent route: the stencil matrix must reproduce the symbol
        spec = LatticeSpec(d=2, a=np.array([[1.0, 0.3], [0.3, 1.0]]), m2=0.25, N=8)
        table = build_symbol_table(spec)
        L = stencil_operator(spec)
        k = (3, 5)
        xi = 2.0 * np.pi * np.array(k) / spec.N
        grid = np.indices(spec.shape).reshape(2, -1)
        wave = np.exp(1j * (xi[0] * grid[0] + xi[1] * grid[1]))
        applied = L @ wave
        ratio = applied / wave
        assert np.allclose(ratio, table.spectrum[k], atol=1e-10)

    @pytest.mark.parametrize("d,a", [
        (1, [[1.0]]),
        (2, [[1.0, 0.3], [0.3, 1.0]]),
        (3, [[1.0, 0.2, 0.0], [0.2, 1.5, -0.1], [0.0, -0.1, 1.0]])])
    def test_stencil_commutes_with_shifts(self, d, a):
        # translation invariance is what lets one Green column stand for all
        spec = LatticeSpec(d=d, a=np.array(a), m2=0.25, N=8)
        L = stencil_operator(spec).toarray()
        idx = np.arange(spec.size).reshape(spec.shape)
        for axis in range(d):
            for step in (1, 3):
                perm = np.roll(idx, step, axis=axis).ravel()
                assert np.array_equal(L[np.ix_(perm, perm)], L)


class TestLatticeKernel:
    @pytest.mark.parametrize("d,N,t", [(1, 64, 2.3), (1, 64, 21.0),
                                       (2, 32, 6.5), (3, 16, 5.0)])
    def test_exact_finite_range(self, mollifier, norm1, d, N, t):
        a = np.eye(d) if d > 1 else np.array([[1.0]])
        spec = LatticeSpec(d=d, a=a, m2=0.25, N=N)
        table = build_symbol_table(spec)
        fam = make_family(mollifier, norm1, table.B)
        ker = lattice_kernel(table, fam, t)
        assert ker.max_out_of_range <= 1e-12 * ker.sup
        assert ker.imag_residue <= 1e-12 * ker.sup

    def test_even_under_negation(self, mollifier, norm1):
        spec = LatticeSpec(d=2, a=np.array([[1.0, 0.3], [0.3, 1.0]]), m2=0.1, N=32)
        table = build_symbol_table(spec)
        fam = make_family(mollifier, norm1, table.B)
        ker = lattice_kernel(table, fam, 6.0)
        flipped = ker.values[tuple(
            np.meshgrid(*[(-np.arange(32)) % 32] * 2, indexing="ij"))]
        assert np.max(np.abs(ker.values - flipped)) <= 1e-13 * ker.sup

    def test_psd_multiplier(self, mollifier, norm1):
        spec = LatticeSpec(d=2, a=np.eye(2), m2=0.0, N=32)
        table = build_symbol_table(spec)
        fam = make_family(mollifier, norm1, table.B)
        ker = lattice_kernel(table, fam, 9.5)
        assert 0 < ker.roundoff_bound <= 1e-12 * ker.multiplier_max
        assert -ker.multiplier_min <= ker.roundoff_bound

    def test_multiplier_is_the_certified_series(self, mollifier, norm1):
        # the multiplier is the very series whose roundoff bound the kernel
        # reports, evaluated on the symbol: recomputed, it matches bit for bit
        spec = LatticeSpec(d=2, a=np.array([[1.0, 0.3], [0.3, 1.5]]), m2=0.25, N=32)
        table = build_symbol_table(spec)
        fam = make_family(mollifier, norm1, table.B)
        t = 7.5
        ker = lattice_kernel(table, fam, t)
        series = t**2 * fam.C * fam.arg_scale * chebyshev_coefficients(mollifier, t)
        assert series_roundoff(series) == ker.roundoff_bound
        mult = clenshaw_folded(series, 1.0 - 0.5 * fam.arg_scale * table.spectrum)
        assert (float(mult.min()), float(mult.max())) == (ker.multiplier_min,
                                                           ker.multiplier_max)
        assert np.array_equal(np.fft.ifftn(mult).real, ker.values)

    def test_wraparound_guard(self, mollifier, norm1):
        spec = LatticeSpec(d=1, a=np.array([[1.0]]), m2=0.5, N=8)
        table = build_symbol_table(spec)
        fam = make_family(mollifier, norm1, table.B)
        with pytest.raises(WrapAroundError):
            lattice_kernel(table, fam, 4.0)

    def test_family_bound_mismatch_rejected(self, mollifier, norm1):
        spec = LatticeSpec(d=1, a=np.array([[1.0]]), m2=0.5, N=16)
        table = build_symbol_table(spec)
        # weights.check_family: off by more than 1e-12 B on either backend
        for B in (table.B * 2.0, table.B * (1.0 + 1e-10)):
            fam = make_family(mollifier, norm1, B)
            with pytest.raises(ValueError, match="does not match operator B"):
                lattice_kernel(table, fam, 3.0)


def _circulant_loop(column):
    """Reference unfold, one column at a time: G[x, y] = column[x - y]."""
    shape, n = column.shape, column.size
    coords = np.unravel_index(np.arange(n), shape)
    out = np.empty((n, n))
    for y in range(n):
        yc = np.unravel_index(y, shape)
        out[:, y] = column[tuple((coords[i] - yc[i]) % shape[i]
                                 for i in range(len(shape)))]
    return out


class TestDefaultScalePlan:
    @pytest.mark.parametrize("m2", [0.5, 0.0])
    def test_covers_the_tail(self, mollifier, norm1, m2):
        spec = LatticeSpec(d=2, a=np.eye(2), m2=m2, N=16)
        table = build_symbol_table(spec)
        fam = make_family(mollifier, norm1, table.B)
        lam_min = spectral_gap(table)
        assert lam_min == table.spectrum[table.spectrum > 1e-12].min()
        plan = default_scale_plan(fam, lam_min)
        assert plan.j_min == 1
        def tail(t):
            return fam.tail_high(np.array([lam_min]), t)[0]

        assert tail(plan.t_high) <= 1e-7
        assert plan.t_high <= 4.0 or tail(plan.t_high / 2) > 1e-7


class TestTorusReconstruction:
    def test_8x8_massive(self, mollifier, norm1):
        spec = LatticeSpec(d=2, a=np.eye(2), m2=0.5, N=8)
        table = build_symbol_table(spec)
        fam = make_family(mollifier, norm1, table.B)
        rec = reconstruct_green(table, fam)
        assert rec.max_rel_error <= 1e-5
        assert rec.tail_bound <= 1e-6

    def test_scale_sum_matches_kernel_route(self, mollifier, norm1):
        # the plan's closed-form series against scale kernels summed over a
        # 128-node Gauss-Legendre rule in t on each block, plus the white
        # piece C (3/B) phi_hat(0) t_low on the diagonal
        spec = LatticeSpec(d=1, a=np.array([[1.0]]), m2=1.0, N=16)
        table = build_symbol_table(spec)
        fam = make_family(mollifier, norm1, table.B)
        plan = ScalePlan(j_min=0, j_max=6)
        rec = reconstruct_green(table, fam, plan)
        kernel_sum = np.zeros(16)
        kernel_sum[0] = norm1 * fam.arg_scale * mollifier.phi_hat0 * plan.t_low
        for j in range(plan.j_min, plan.j_max + 1):
            tq, wq = gauss_legendre(plan.L_ratio ** (j - 1), plan.L_ratio**j, 128)
            for t, w in zip(tq, wq):
                # wrapped kernels: the scale sum targets the torus inverse
                kernel = np.fft.ifftn(t**2 * fam.value(table.spectrum, t)).real
                kernel_sum += w / t * kernel
        np.testing.assert_allclose(kernel_sum, rec.values.ravel(),
                                   rtol=0, atol=2e-14 * np.abs(rec.values).max())

    @pytest.mark.parametrize("N", [32, 64])
    def test_benchmark_configs_below_5e_11(self, mollifier, norm1, N):
        # the torus-sample (32 x 32) and torus-reconstruct (64 x 64) configs;
        # C from the phi_hat table agrees with the blocks, so no 2.3e-10 floor
        spec = LatticeSpec(d=2, a=np.eye(2), m2=0.5, N=N)
        table = build_symbol_table(spec)
        rec = reconstruct_green(table, make_family(mollifier, norm1, table.B))
        assert rec.max_rel_error <= 5e-11

    def test_torus_reconstruct_config_below_3e_13(self, mollifier, norm1):
        # the 64 x 64 torus-reconstruct config; phi_hat tabulated by the
        # trapezoid rule on its own grid makes C and the blocks agree
        spec = LatticeSpec(d=2, a=np.eye(2), m2=0.5, N=64)
        table = build_symbol_table(spec)
        rec = reconstruct_green(table, make_family(mollifier, norm1, table.B))
        assert rec.max_rel_error <= 3e-13

    @pytest.mark.parametrize("m2", [0.5, 0.0])
    def test_kernel_is_sum_of_mode_variances(self, mollifier, norm1, m2):
        # the kernel evaluates the plan the sampler draws: its transform is
        # the sum of the per-scale mode variances
        spec = LatticeSpec(d=2, a=np.eye(2), m2=m2, N=16)
        table = build_symbol_table(spec)
        fam = make_family(mollifier, norm1, table.B)
        plan = default_scale_plan(fam, spectral_gap(table))
        rec = reconstruct_green(table, fam, plan)
        per_scale = mode_variances(table.spectrum, fam, plan.series(fam), m2 == 0.0)
        expect = np.fft.ifftn(sum(per_scale)).real
        assert np.max(np.abs(rec.values - expect)) <= 1e-12 * np.max(np.abs(rec.values))
        if m2 == 0.0:   # deflated: the zero mode carries no variance
            assert abs(rec.values.sum()) <= 1e-12 * np.max(np.abs(rec.values))

    def test_massless_deflated(self, mollifier, norm1):
        spec = LatticeSpec(d=2, a=np.eye(2), m2=0.0, N=8)
        table = build_symbol_table(spec)
        fam = make_family(mollifier, norm1, table.B)
        rec = reconstruct_green(table, fam)
        assert rec.deflated
        assert rec.max_rel_error <= 1e-4

    @pytest.mark.parametrize("d,m2", [(2, 0.5), (2, 0.0), (3, 0.5)])
    def test_one_column_equals_full_comparison(self, mollifier, norm1, d, m2):
        spec = LatticeSpec(d=d, a=np.eye(d), m2=m2, N=8)
        table = build_symbol_table(spec)
        fam = make_family(mollifier, norm1, table.B)
        rec = reconstruct_green(table, fam)
        L = stencil_operator(spec).toarray()
        full = np.linalg.pinv(L) if m2 == 0.0 else np.linalg.inv(L)
        green = _circulant_loop(rec.values)
        full_rel = np.max(np.abs(green - full)) / np.max(np.abs(full))
        # both errors are relative to max |G|; the two oracles differ by
        # roundoff (~1e-15 of max |G|), far below the ~1e-10 error itself
        assert abs(rec.max_rel_error - full_rel) <= 1e-12

    @pytest.mark.parametrize("d,N,m2,a", [
        pytest.param(1, 16, 0.0, None, id="1-16-0.0"),
        pytest.param(2, 8, 0.25, None, id="2-8-0.25"),
        pytest.param(3, 8, 0.0, None, id="3-8-0.0"),
        pytest.param(2, 8, 0.25, ANISOTROPIC_2D, id="2-8-0.25-anisotropic"),
        pytest.param(2, 8, 0.0, ANISOTROPIC_2D, id="2-8-0.0-anisotropic"),
        pytest.param(3, 8, 0.5, ANISOTROPIC_3D, id="3-8-0.5-anisotropic"),
        pytest.param(3, 8, 0.0, ANISOTROPIC_3D, id="3-8-0.0-anisotropic")])
    def test_green_column_is_inverse_column(self, d, N, m2, a):
        spec = LatticeSpec(d=d, a=np.eye(d) if a is None else np.array(a), m2=m2, N=N)
        column = green_column(spec)
        L = stencil_operator(spec).toarray()
        full = np.linalg.pinv(L) if m2 == 0.0 else np.linalg.inv(L)
        np.testing.assert_allclose(column.ravel(), full[:, 0], rtol=0,
                                   atol=1e-12 * np.max(np.abs(full)))
        if m2 == 0.0:
            assert abs(column.sum()) <= 1e-12 * np.max(np.abs(column))

    @pytest.mark.parametrize("m2, tol", [(0.25, 1e-12), (0.0, 1e-11)])
    def test_green_column_matches_sparse_lu_at_64(self, m2, tol):
        # the sparse LU the oracle was before its FFT diagonalization; at
        # m^2 = 0 it grounds site 0, solves against the mean-zero part of e_0
        # and subtracts the mean, which leaves a residual of about 1.3e-12
        from scipy.sparse.linalg import spsolve
        spec = LatticeSpec(d=2, a=np.array(ANISOTROPIC_2D), m2=m2, N=64)
        L = stencil_operator(spec)
        rhs = np.zeros(spec.size)
        rhs[0] = 1.0
        if m2 > 0.0:
            reference = spsolve(L, rhs)
        else:
            reference = np.zeros(spec.size)
            reference[1:] = spsolve(L[1:, 1:], rhs[1:] - 1.0 / spec.size)
            reference -= reference.mean()
        column = green_column(spec).ravel()
        np.testing.assert_allclose(column, reference, rtol=0,
                                   atol=tol * np.max(np.abs(reference)))
        # the residual of L g = e_0 (minus its mean when massless) is roundoff
        residual = L @ column - (rhs - 1.0 / spec.size if m2 == 0.0 else rhs)
        assert np.max(np.abs(residual)) <= 1e-14

    def test_circulant_matrix_matches_loop(self):
        rng = np.random.default_rng(3)
        for shape in ((16,), (8, 8), (4, 8, 2)):
            column = rng.standard_normal(shape)
            assert np.array_equal(circulant_matrix(column), _circulant_loop(column))

    def test_above_old_dense_cap(self, mollifier, norm1):
        spec = LatticeSpec(d=2, a=np.eye(2), m2=0.5, N=128)   # 16,384 sites
        table = build_symbol_table(spec)
        fam = make_family(mollifier, norm1, table.B)
        rec = reconstruct_green(table, fam)
        assert rec.oracle.shape == spec.shape
        assert rec.max_rel_error <= 1e-5


class TestContinuumKernel:
    def test_scale_invariance_independent_quadratures(self, cont_family):
        worst = 0.0
        for t in (2.0, 4.0):
            for r in (0.0, 0.1, 0.25, 0.4, 0.5):
                x = np.array([r * t, 0.3 * r * t, 0.0])
                v_t = continuum_kernel(3, np.eye(3), 0.0, t, x, cont_family,
                                       xi_cutoff=40.0, n_nodes=400)
                v_1 = continuum_kernel(3, np.eye(3), 0.0, 1.0, x / t, cont_family,
                                       xi_cutoff=60.0, n_nodes=640)
                worst = max(worst, abs(v_t - v_1 / t) / abs(v_1 / t))
        assert worst <= 1e-4

    def test_support(self, cont_family):
        t = 2.0
        inside = continuum_kernel(3, np.eye(3), 0.0, t, np.zeros(3), cont_family)
        outside = continuum_kernel(3, np.eye(3), 0.0, t,
                                   np.array([1.25 * t, 0, 0]), cont_family)
        assert abs(outside) <= 1e-6 * abs(inside)

    def test_point_value_scales_inverse_t(self, cont_family):
        v2 = continuum_kernel(3, np.eye(3), 0.0, 2.0, np.zeros(3), cont_family,
                              n_nodes=400)
        v4 = continuum_kernel(3, np.eye(3), 0.0, 4.0, np.zeros(3), cont_family,
                              n_nodes=512, xi_cutoff=50.0)
        assert v2 / v4 == pytest.approx(2.0, rel=1e-4)

    def test_tail_bound_below_comparison_tolerance(self, cont_family):
        # the omitted cutoff mass must sit below the 1e-4 scale-invariance
        # tolerance the kernel comparisons run at
        peak = continuum_kernel(3, np.eye(3), 0.0, 2.0, np.zeros(3), cont_family)
        assert continuum_tail_bound(3, 2.0, cont_family) <= 1e-4 * peak

    def test_anisotropic_reduction(self, cont_family):
        # a = c I reduces to the isotropic kernel with rescaled argument
        c = 0.25
        x = np.array([1.0, 0.5, 0.0])
        va = continuum_kernel(3, c * np.eye(3), 0.0, 2.0, x, cont_family)
        vi = continuum_kernel(3, np.eye(3), 0.0, 2.0, x / np.sqrt(c), cont_family)
        assert va == pytest.approx(vi / c ** 1.5, rel=1e-12)

    def test_one_dimensional_against_brute_force(self, mollifier, norm1, cont_family):
        t, m2 = 3.0, 0.2
        xi = np.linspace(-60 / t, 60 / t, 200001)
        W = norm1 * mollifier.phi(np.sqrt(xi**2 + m2) * t)
        for x in (0.0, 0.7, 1.9):
            brute = t**2 / (2 * np.pi) * np.trapezoid(W * np.cos(xi * x), xi)
            got = continuum_kernel(1, np.array([[1.0]]), m2, t,
                                   np.array([x]), cont_family)
            assert got == pytest.approx(brute, rel=1e-5)

    def test_two_dimensional_against_brute_force(self, mollifier, norm1, cont_family):
        t = 2.0
        g = np.linspace(-25 / t, 25 / t, 1201)
        X, Y = np.meshgrid(g, g, indexing="ij")
        W = norm1 * mollifier.phi(np.sqrt(X**2 + Y**2) * t)
        for x in ((0.0, 0.0), (0.8, 0.3)):
            integrand = W * np.cos(X * x[0] + Y * x[1])
            brute = t**2 / (2 * np.pi) ** 2 * np.trapezoid(
                np.trapezoid(integrand, g, axis=1), g)
            got = continuum_kernel(2, np.eye(2), 0.0, t, np.array(x), cont_family)
            # tolerance set by the brute-force trapezoid resolution
            assert got == pytest.approx(brute, rel=5e-4)

    @pytest.mark.parametrize("d,m2", [(1, 0.2), (2, 0.0), (3, 0.1)])
    def test_derivative_against_finite_difference(self, cont_family, d, m2):
        a = np.eye(d) if d > 1 else np.array([[1.0]])
        t, h = 3.0, 1e-5
        x = np.zeros(d)
        x[0] = 0.9
        xp, xm = x.copy(), x.copy()
        xp[0] += h
        xm[0] -= h
        num = (continuum_kernel(d, a, m2, t, xp, cont_family)
               - continuum_kernel(d, a, m2, t, xm, cont_family)) / (2 * h)
        got = continuum_kernel(d, a, m2, t, x, cont_family, order=1)
        assert got == pytest.approx(num, rel=1e-7)


class TestDecayFit:
    def test_exponents_narrow_profile(self, narrow_mollifier, narrow_norm):
        spec = LatticeSpec(d=3, a=np.eye(3), m2=0.0, N=128)
        table = build_symbol_table(spec)
        fam = make_family(narrow_mollifier, narrow_norm, table.B)
        kernels = [lattice_kernel(table, fam, t) for t in (4, 8, 16, 32)]
        fit0 = decay_fit(kernels)
        assert fit0.slope == pytest.approx(-1.0, abs=0.1)
        fit1 = decay_fit(kernels, l_x=1)
        assert fit1.slope == pytest.approx(-2.0, abs=0.15)

    def test_default_profile_upper_bound(self, mollifier, norm1):
        # the decay law is an upper bound: sup * t^{d-2} stays bounded even
        # where the default (wide) profile is pre-asymptotic
        spec = LatticeSpec(d=3, a=np.eye(3), m2=0.0, N=64)
        table = build_symbol_table(spec)
        fam = make_family(mollifier, norm1, table.B)
        fit = decay_fit([lattice_kernel(table, fam, t) for t in (4, 8, 16)])
        comp = fit.max_abs * fit.t_list
        assert comp.max() <= 2.5 * comp.min()

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("l_x, l_y", [(1, 0), (0, 1), (1, 1), (2, 0)])
    def test_differences_match_fourier_route(self, mollifier, norm1, d, l_x, l_y):
        # the reference: the differences as Fourier multipliers,
        # (e^{i xi_1} - 1) per forward and (e^{-i xi_1} - 1) per backward one
        N = 16
        a = np.array(ANISOTROPIC_2D) if d == 2 else np.eye(d)
        table = build_symbol_table(LatticeSpec(d=d, a=a, m2=0.5, N=N))
        fam = make_family(mollifier, norm1, table.B)
        t = 5.5
        ker = lattice_kernel(table, fam, t)
        xi1 = (2.0 * np.pi * np.arange(N) / N).reshape((N,) + (1,) * (d - 1))
        mult = (t**2 * fam.value(table.spectrum, t) * (np.exp(1j * xi1) - 1.0) ** l_x
                * (np.exp(-1j * xi1) - 1.0) ** l_y)
        expect = np.fft.ifftn(mult).real
        got = axis_differences(ker.values, l_x, l_y)
        assert np.max(np.abs(got - expect)) <= 1e-13 * ker.sup
        fit = decay_fit([ker, lattice_kernel(table, fam, 2.5)], l_x, l_y)
        assert fit.max_abs[0] == np.max(np.abs(got))


class TestDiscreteContinuumGap:
    def test_bounded_compensated_gap(self, narrow_mollifier, narrow_norm):
        spec = LatticeSpec(d=3, a=np.eye(3), m2=0.0, N=64)
        table = build_symbol_table(spec)
        fam = make_family(narrow_mollifier, narrow_norm, table.B)
        rep = discrete_continuum_gap(table, fam, [6, 8, 12, 16, 24], l=0)
        assert rep.compensated.max() <= 2.0 * rep.compensated.min()

    def test_normalized_kernels_converge_at_origin(self, narrow_mollifier,
                                                   narrow_norm):
        spec = LatticeSpec(d=3, a=np.eye(3), m2=0.0, N=64)
        table = build_symbol_table(spec)
        fam = make_family(narrow_mollifier, narrow_norm, table.B)
        rels = []
        for t in (8.0, 16.0, 24.0, 30.0):
            ker = lattice_kernel(table, fam, t)
            cont = matched_continuum_kernel_at_points(
                spec, fam, t, np.zeros((1, 3)))[0]
            rels.append(abs(ker.values[0, 0, 0] - cont) / abs(cont))
        assert np.all(np.diff(rels) < 0)   # monotone approach from t = 8 on
        assert rels[-1] <= 0.05
        # consistent with the first-order rate: rel * t stays bounded
        scaled = np.asarray(rels) * np.array([8.0, 16.0, 24.0, 30.0])
        assert scaled.max() <= 2.0 * scaled.min()

    def test_gradient_gap_rate(self, narrow_mollifier, narrow_norm):
        # with the c=1 point identification the l=1 gap decays at least like
        # the l=0 law with one extra derivative order unresolved
        spec = LatticeSpec(d=3, a=np.eye(3), m2=0.0, N=64)
        table = build_symbol_table(spec)
        fam = make_family(narrow_mollifier, narrow_norm, table.B)
        rep = discrete_continuum_gap(table, fam, [4, 8, 16], l=1)
        slope = np.polyfit(np.log(rep.t_list), np.log(rep.gaps), 1)[0]
        assert slope <= -1.9

    def test_mass_suppression(self, narrow_mollifier, narrow_norm):
        spec = LatticeSpec(d=3, a=np.eye(3), m2=1.0, N=32)
        table = build_symbol_table(spec)
        fam = make_family(narrow_mollifier, narrow_norm, table.B)
        rep0 = discrete_continuum_gap(table, fam, [4, 8], l=0)
        assert rep0.gaps[1] < rep0.gaps[0]  # mass kills the gap quickly

    def test_rejects_high_order(self, mollifier, norm1):
        spec = LatticeSpec(d=1, a=np.array([[1.0]]), m2=0.0, N=16)
        table = build_symbol_table(spec)
        fam = make_family(mollifier, norm1, table.B)
        with pytest.raises(LatticeError):
            discrete_continuum_gap(table, fam, [2], l=2)


class TestMassFamilySweep:
    def test_sweep(self, mollifier, norm1):
        spec = LatticeSpec(d=2, a=np.eye(2), m2=0.0, N=32)
        rep = mass_family_sweep(
            spec, lambda B: DiscreteWeightFamily(mollifier, norm1, B=B),
            [0.0, 0.5, 1.0, 2.0], t=4.0)
        assert rep.monotone_at_probe
        assert np.all(np.isfinite(rep.compensated_sup))

    def test_zero_mass_entry_matches_massless_kernel(self, mollifier, norm1):
        spec = LatticeSpec(d=2, a=np.eye(2), m2=0.0, N=32)
        m2_list = [0.0, 1.0]
        rep = mass_family_sweep(
            spec, lambda B: DiscreteWeightFamily(mollifier, norm1, B=B),
            m2_list, t=4.0)
        table0 = build_symbol_table(spec)
        B = table0.B + max(m2_list)
        fam = DiscreteWeightFamily(mollifier, norm1, B=B)
        from frdecomp.lattice import SymbolTable
        ker = lattice_kernel(SymbolTable(spec=spec, spectrum=table0.spectrum,
                                               B=B), fam, 4.0)
        np.testing.assert_array_equal(rep.kernels[0].values, ker.values)


def test_torus_linf_distance():
    d = torus_linf_distance(8, 2)
    assert d[0, 0] == 0
    assert d[4, 0] == 4
    assert d[7, 7] == 1
    assert d[5, 2] == 3
