import numpy as np
import pytest

from frdecomp.lattice import (PLAN_T_MIN, LatticeError, LatticeSpec,
                              WrapAroundError, build_symbol_table,
                              circulant_matrix, continuum_kernel,
                              continuum_tail_bound, decay_fit,
                              discrete_continuum_gap, green_column,
                              lattice_kernel, mass_family_sweep,
                              matched_continuum_kernel_at_points,
                              reconstruct_torus_green, stencil_operator,
                              torus_linf_distance)
from frdecomp.weights import DiscreteWeightFamily, ScalePlan, default_scale_plan


def make_family(m, norm, B):
    return DiscreteWeightFamily(m, norm, B=B)


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

    def test_rejects_eigenvalues_outside_window(self):
        with pytest.raises(LatticeError):
            LatticeSpec(d=1, a=np.array([[2.0]]), m2=0.0, N=8,
                        b_minus2=0.5, b_plus2=1.5)


class TestSymbolTable:
    def test_one_dimensional_endpoint(self):
        spec = LatticeSpec(d=1, a=np.array([[1.0]]), m2=0.0, N=8)
        table = build_symbol_table(spec)
        assert table.values[4] == pytest.approx(4.0, abs=1e-14)

    def test_zero_mode_is_mass(self):
        spec = LatticeSpec(d=2, a=np.eye(2), m2=0.7, N=8)
        table = build_symbol_table(spec)
        assert table.values[0, 0] == pytest.approx(0.7, abs=1e-14)
        assert table.values.min() >= 0.7 - 1e-13

    def test_two_dimensional_closed_form(self):
        spec = LatticeSpec(d=2, a=np.eye(2), m2=0.0, N=8)
        table = build_symbol_table(spec)
        # a*(xi) = 4 sin^2(xi1/2) + 4 sin^2(xi2/2) at xi = (pi/2, pi/2)
        assert table.values[2, 2] == pytest.approx(4.0, rel=1e-13)
        grid = 2.0 * np.pi * np.arange(8) / 8
        expect = (4 * np.sin(grid[:, None] / 2) ** 2
                  + 4 * np.sin(grid[None, :] / 2) ** 2)
        np.testing.assert_allclose(table.values, expect, atol=1e-13)

    def test_cross_terms_real_nonnegative(self):
        spec = LatticeSpec(d=2, a=np.array([[1.0, 0.4], [0.4, 2.0]]), m2=0.0, N=16)
        table = build_symbol_table(spec)
        assert table.values.min() >= -1e-13
        assert table.B == table.values.max()

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
        assert np.allclose(ratio, table.values[k], atol=1e-10)

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
        ker = lattice_kernel(spec, table, fam, t)
        assert ker.max_out_of_range <= 1e-12 * ker.sup
        assert ker.imag_residue <= 1e-12 * ker.sup

    def test_even_under_negation(self, mollifier, norm1):
        spec = LatticeSpec(d=2, a=np.array([[1.0, 0.3], [0.3, 1.0]]), m2=0.1, N=32)
        table = build_symbol_table(spec)
        fam = make_family(mollifier, norm1, table.B)
        ker = lattice_kernel(spec, table, fam, 6.0)
        flipped = ker.values[tuple(
            np.meshgrid(*[(-np.arange(32)) % 32] * 2, indexing="ij"))]
        assert np.max(np.abs(ker.values - flipped)) <= 1e-13 * ker.sup

    def test_psd_multiplier(self, mollifier, norm1):
        spec = LatticeSpec(d=2, a=np.eye(2), m2=0.0, N=32)
        table = build_symbol_table(spec)
        fam = make_family(mollifier, norm1, table.B)
        ker = lattice_kernel(spec, table, fam, 9.5)
        assert ker.multiplier_min >= -1e-12 * ker.multiplier_max

    def test_wraparound_guard(self, mollifier, norm1):
        spec = LatticeSpec(d=1, a=np.array([[1.0]]), m2=0.5, N=8)
        table = build_symbol_table(spec)
        fam = make_family(mollifier, norm1, table.B)
        with pytest.raises(WrapAroundError):
            lattice_kernel(spec, table, fam, 4.0)
        lattice_kernel(spec, table, fam, 4.0, allow_wraparound=True)

    def test_family_bound_mismatch_rejected(self, mollifier, norm1):
        spec = LatticeSpec(d=1, a=np.array([[1.0]]), m2=0.5, N=16)
        table = build_symbol_table(spec)
        fam = make_family(mollifier, norm1, table.B * 2.0)
        with pytest.raises(LatticeError):
            lattice_kernel(spec, table, fam, 3.0)


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
        lam_min = table.spectral_gap()
        assert lam_min == table.values[table.values > 1e-12].min()
        plan = default_scale_plan(fam, lam_min, PLAN_T_MIN)
        assert plan.j_min == 0
        def tail(t):
            return fam.tail_high(np.array([lam_min]), t)[0]

        assert tail(plan.t_high) <= 1e-7
        assert plan.t_high <= 4.0 or tail(plan.t_high / 2) > 1e-7


class TestTorusReconstruction:
    def test_8x8_massive(self, mollifier, norm1):
        spec = LatticeSpec(d=2, a=np.eye(2), m2=0.5, N=8)
        table = build_symbol_table(spec)
        fam = make_family(mollifier, norm1, table.B)
        rec = reconstruct_torus_green(spec, fam, table=table)
        assert rec.max_rel_error <= 1e-5
        assert rec.tail_bound <= 1e-6

    def test_scale_sum_matches_kernel_route(self, mollifier, norm1):
        # summing quadrature-weighted scale kernels must equal the
        # mode-integral route (same math, different assembly order)
        spec = LatticeSpec(d=1, a=np.array([[1.0]]), m2=1.0, N=16)
        table = build_symbol_table(spec)
        fam = make_family(mollifier, norm1, table.B)
        rec = reconstruct_torus_green(spec, fam, ScalePlan(j_min=0, j_max=6), table=table)
        from frdecomp.quadrature import log_gauss_legendre
        tq, wq = log_gauss_legendre(1.0, 64.0, 16)
        kernel_sum = np.zeros(16)
        kernel_sum[0] = fam.low_scale_integral(0.0, 1.0)  # exact delta piece
        for t, w in zip(tq, wq):
            ker = lattice_kernel(spec, table, fam, t, allow_wraparound=True)
            kernel_sum += w * ker.values
        np.testing.assert_allclose(kernel_sum, rec.kernel.ravel(),
                                   rtol=0, atol=1e-12 * np.abs(rec.kernel).max())

    def test_massless_deflated(self, mollifier, norm1):
        spec = LatticeSpec(d=2, a=np.eye(2), m2=0.0, N=8)
        table = build_symbol_table(spec)
        fam = make_family(mollifier, norm1, table.B)
        rec = reconstruct_torus_green(spec, fam, table=table)
        assert rec.deflated
        assert rec.max_rel_error <= 1e-4

    @pytest.mark.parametrize("d,m2", [(2, 0.5), (2, 0.0), (3, 0.5)])
    def test_one_column_equals_full_comparison(self, mollifier, norm1, d, m2):
        spec = LatticeSpec(d=d, a=np.eye(d), m2=m2, N=8)
        table = build_symbol_table(spec)
        fam = make_family(mollifier, norm1, table.B)
        rec = reconstruct_torus_green(spec, fam, table=table)
        L = stencil_operator(spec).toarray()
        full = np.linalg.pinv(L) if m2 == 0.0 else np.linalg.inv(L)
        green = _circulant_loop(rec.kernel)
        full_rel = np.max(np.abs(green - full)) / np.max(np.abs(full))
        # both errors are relative to max |G|; the two oracles differ by
        # roundoff (~1e-15 of max |G|), far below the ~1e-10 error itself
        assert abs(rec.max_rel_error - full_rel) <= 1e-12

    @pytest.mark.parametrize("d,N,m2", [(1, 16, 0.0), (2, 8, 0.25), (3, 8, 0.0)])
    def test_green_column_is_inverse_column(self, d, N, m2):
        spec = LatticeSpec(d=d, a=np.eye(d), m2=m2, N=N)
        column = green_column(spec)
        L = stencil_operator(spec).toarray()
        full = np.linalg.pinv(L) if m2 == 0.0 else np.linalg.inv(L)
        np.testing.assert_allclose(column.ravel(), full[:, 0], rtol=0,
                                   atol=1e-12 * np.max(np.abs(full)))
        if m2 == 0.0:
            assert abs(column.sum()) <= 1e-12 * np.max(np.abs(column))

    def test_circulant_matrix_matches_loop(self):
        rng = np.random.default_rng(3)
        for shape in ((16,), (8, 8), (4, 8, 2)):
            column = rng.standard_normal(shape)
            assert np.array_equal(circulant_matrix(column), _circulant_loop(column))

    def test_above_old_dense_cap(self, mollifier, norm1):
        spec = LatticeSpec(d=2, a=np.eye(2), m2=0.5, N=128)   # 16,384 sites
        table = build_symbol_table(spec)
        fam = make_family(mollifier, norm1, table.B)
        rec = reconstruct_torus_green(spec, fam, table=table)
        assert rec.oracle_column.shape == spec.shape
        assert rec.max_rel_error <= 1e-5


class TestContinuumKernel:
    def test_scale_invariance_independent_quadratures(self, mollifier, norm1):
        worst = 0.0
        for t in (2.0, 4.0):
            for r in (0.0, 0.1, 0.25, 0.4, 0.5):
                x = np.array([r * t, 0.3 * r * t, 0.0])
                v_t = continuum_kernel(3, np.eye(3), 0.0, t, x, mollifier, norm1,
                                       xi_cutoff=40.0, n_nodes=400)
                v_1 = continuum_kernel(3, np.eye(3), 0.0, 1.0, x / t, mollifier,
                                       norm1, xi_cutoff=60.0, n_nodes=640)
                worst = max(worst, abs(v_t - v_1 / t) / abs(v_1 / t))
        assert worst <= 1e-4

    def test_support(self, mollifier, norm1):
        t = 2.0
        inside = continuum_kernel(3, np.eye(3), 0.0, t, np.zeros(3),
                                  mollifier, norm1)
        outside = continuum_kernel(3, np.eye(3), 0.0, t,
                                   np.array([1.25 * t, 0, 0]), mollifier, norm1)
        assert abs(outside) <= 1e-6 * abs(inside)

    def test_point_value_scales_inverse_t(self, mollifier, norm1):
        v2 = continuum_kernel(3, np.eye(3), 0.0, 2.0, np.zeros(3), mollifier,
                              norm1, n_nodes=400)
        v4 = continuum_kernel(3, np.eye(3), 0.0, 4.0, np.zeros(3), mollifier,
                              norm1, n_nodes=512, xi_cutoff=50.0)
        assert v2 / v4 == pytest.approx(2.0, rel=1e-4)

    def test_tail_bound_below_comparison_tolerance(self, mollifier, norm1):
        # the omitted cutoff mass must sit below the 1e-4 scale-invariance
        # tolerance the kernel comparisons run at
        peak = continuum_kernel(3, np.eye(3), 0.0, 2.0, np.zeros(3),
                                mollifier, norm1)
        assert continuum_tail_bound(3, 2.0, mollifier, norm1) <= 1e-4 * peak

    def test_anisotropic_reduction(self, mollifier, norm1):
        # a = c I reduces to the isotropic kernel with rescaled argument
        c = 0.25
        x = np.array([1.0, 0.5, 0.0])
        va = continuum_kernel(3, c * np.eye(3), 0.0, 2.0, x, mollifier, norm1)
        vi = continuum_kernel(3, np.eye(3), 0.0, 2.0, x / np.sqrt(c),
                              mollifier, norm1)
        assert va == pytest.approx(vi / c ** 1.5, rel=1e-12)

    def test_one_dimensional_against_brute_force(self, mollifier, norm1):
        t, m2 = 3.0, 0.2
        xi = np.linspace(-60 / t, 60 / t, 200001)
        W = norm1.constant * mollifier.phi(np.sqrt(xi**2 + m2) * t)
        for x in (0.0, 0.7, 1.9):
            brute = t**2 / (2 * np.pi) * np.trapezoid(W * np.cos(xi * x), xi)
            got = continuum_kernel(1, np.array([[1.0]]), m2, t,
                                   np.array([x]), mollifier, norm1)
            assert got == pytest.approx(brute, rel=1e-5)

    def test_two_dimensional_against_brute_force(self, mollifier, norm1):
        t = 2.0
        g = np.linspace(-25 / t, 25 / t, 1201)
        X, Y = np.meshgrid(g, g, indexing="ij")
        W = norm1.constant * mollifier.phi(np.sqrt(X**2 + Y**2) * t)
        for x in ((0.0, 0.0), (0.8, 0.3)):
            integrand = W * np.cos(X * x[0] + Y * x[1])
            brute = t**2 / (2 * np.pi) ** 2 * np.trapezoid(
                np.trapezoid(integrand, g, axis=1), g)
            got = continuum_kernel(2, np.eye(2), 0.0, t, np.array(x),
                                   mollifier, norm1)
            # tolerance set by the brute-force trapezoid resolution
            assert got == pytest.approx(brute, rel=5e-4)

    @pytest.mark.parametrize("d,m2", [(1, 0.2), (2, 0.0), (3, 0.1)])
    def test_derivative_against_finite_difference(self, mollifier, norm1, d, m2):
        a = np.eye(d) if d > 1 else np.array([[1.0]])
        t, h = 3.0, 1e-5
        x = np.zeros(d)
        x[0] = 0.9
        xp, xm = x.copy(), x.copy()
        xp[0] += h
        xm[0] -= h
        num = (continuum_kernel(d, a, m2, t, xp, mollifier, norm1)
               - continuum_kernel(d, a, m2, t, xm, mollifier, norm1)) / (2 * h)
        got = continuum_kernel(d, a, m2, t, x, mollifier, norm1, order=1)
        assert got == pytest.approx(num, rel=1e-7)


class TestDecayFit:
    def test_exponents_narrow_profile(self, narrow_mollifier, narrow_norm):
        spec = LatticeSpec(d=3, a=np.eye(3), m2=0.0, N=128)
        table = build_symbol_table(spec)
        fam = make_family(narrow_mollifier, narrow_norm, table.B)
        fit0 = decay_fit(spec, fam, [4, 8, 16, 32], table=table)
        assert fit0.slope == pytest.approx(-1.0, abs=0.1)
        fit1 = decay_fit(spec, fam, [4, 8, 16, 32], l_x=1, table=table)
        assert fit1.slope == pytest.approx(-2.0, abs=0.15)

    def test_default_profile_upper_bound(self, mollifier, norm1):
        # the decay law is an upper bound: sup * t^{d-2} stays bounded even
        # where the default (wide) profile is pre-asymptotic
        spec = LatticeSpec(d=3, a=np.eye(3), m2=0.0, N=64)
        table = build_symbol_table(spec)
        fam = make_family(mollifier, norm1, table.B)
        fit = decay_fit(spec, fam, [4, 8, 16], table=table)
        comp = fit.max_abs * fit.t_list
        assert comp.max() <= 2.5 * comp.min()

    def test_mass_compensation_flattens(self, mollifier, norm1):
        spec = LatticeSpec(d=3, a=np.eye(3), m2=0.5, N=64)
        table = build_symbol_table(spec)
        fam = make_family(mollifier, norm1, table.B)
        raw = decay_fit(spec, fam, [4, 8, 16], table=table)
        comp = decay_fit(spec, fam, [4, 8, 16], table=table, mass_power=2)
        assert comp.slope > raw.slope + 0.5


class TestDiscreteContinuumGap:
    def test_bounded_compensated_gap(self, narrow_mollifier, narrow_norm):
        spec = LatticeSpec(d=3, a=np.eye(3), m2=0.0, N=64)
        table = build_symbol_table(spec)
        fam = make_family(narrow_mollifier, narrow_norm, table.B)
        rep = discrete_continuum_gap(spec, fam, [6, 8, 12, 16, 24], l=0,
                                     table=table)
        assert rep.compensated.max() <= 2.0 * rep.compensated.min()

    def test_normalized_kernels_converge_at_origin(self, narrow_mollifier,
                                                   narrow_norm):
        spec = LatticeSpec(d=3, a=np.eye(3), m2=0.0, N=64)
        table = build_symbol_table(spec)
        fam = make_family(narrow_mollifier, narrow_norm, table.B)
        rels = []
        for t in (8.0, 16.0, 24.0, 30.0):
            ker = lattice_kernel(spec, table, fam, t)
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
        rep = discrete_continuum_gap(spec, fam, [4, 8, 16], l=1, table=table)
        slope = np.polyfit(np.log(rep.t_list), np.log(rep.gaps), 1)[0]
        assert slope <= -1.9

    def test_mass_suppression(self, narrow_mollifier, narrow_norm):
        spec = LatticeSpec(d=3, a=np.eye(3), m2=1.0, N=32)
        table = build_symbol_table(spec)
        fam = make_family(narrow_mollifier, narrow_norm, table.B)
        rep0 = discrete_continuum_gap(spec, fam, [4, 8], l=0, table=table)
        assert rep0.gaps[1] < rep0.gaps[0]  # mass kills the gap quickly

    def test_rejects_high_order(self, mollifier, norm1):
        spec = LatticeSpec(d=1, a=np.array([[1.0]]), m2=0.0, N=16)
        table = build_symbol_table(spec)
        fam = make_family(mollifier, norm1, table.B)
        with pytest.raises(LatticeError):
            discrete_continuum_gap(spec, fam, [2], l=2, table=table)


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
        ker = lattice_kernel(spec, SymbolTable(spec=spec, values=table0.values,
                                               B=B), fam, 4.0)
        np.testing.assert_array_equal(rep.kernels[0].values, ker.values)


def test_torus_linf_distance():
    d = torus_linf_distance(8, 2)
    assert d[0, 0] == 0
    assert d[4, 0] == 4
    assert d[7, 7] == 1
    assert d[5, 2] == 3
