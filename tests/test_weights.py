import numpy as np
import pytest

from frdecomp.quadrature import log_gauss_legendre
from frdecomp.weights import (PLAN_T_CAP, DiscreteWeightFamily,
                              approximation_rate, chebyshev_coefficients,
                              chebyshev_polynomial_coeffs,
                              check_decomposition_identity, clenshaw_folded,
                              decay_constants, default_lambda_grid,
                              default_scale_plan, eval_discrete_weight,
                              eval_discrete_weight_direct,
                              wave_identity_max_residual)


def test_clenshaw_against_cosine_form():
    # c_0 + 2 sum c_k T_k(cos x) == sum over k of c_k cos(k x) folded
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(9)
    x = np.linspace(0.0, np.pi, 41)
    direct = coeffs[0] + 2.0 * sum(
        c * np.cos(k * x) for k, c in enumerate(coeffs) if k >= 1)
    got = clenshaw_folded(coeffs, np.cos(x))
    np.testing.assert_allclose(got, direct, rtol=1e-12, atol=1e-14)


class TestIntervalCoefficients:
    @pytest.mark.parametrize("t_lo, t_hi", [(0.5, 2.0), (1.0, 16.0), (8.0, 64.0)])
    def test_matches_periodization_quadrature(self, mollifier, norm1, t_lo, t_hi):
        fam = DiscreteWeightFamily(mollifier, norm1, B=2.1)
        coeffs, nodes = fam.interval_coefficients(t_lo, t_hi, 16)
        assert len(coeffs) <= int(np.floor(t_hi)) + 1
        lam = np.linspace(0.01, fam.lambda_max, 101)
        got = clenshaw_folded(coeffs, 1.0 - 0.5 * fam.arg_scale * lam)
        tq, wq = log_gauss_legendre(t_lo, t_hi, 16)
        assert nodes == len(tq)
        scale = norm1.constant * fam.multiplier
        # independent route: the periodized sum, quadrature over the same nodes
        oracle = sum(w * scale * t**2
                     * eval_discrete_weight_direct(mollifier, fam.arg_scale * lam, t)
                     for t, w in zip(tq, wq))
        # floor: the phi and phi_hat tables agree to ~1e-11 (see
        # TestPeriodizationOracle); folding itself is exact to roundoff
        assert np.max(np.abs(got - oracle)) <= 2e-11 * np.max(np.abs(oracle))
        per_node = sum(w * t**2 * fam.value(lam, t) for t, w in zip(tq, wq))
        assert np.max(np.abs(got - per_node)) <= 1e-13 * np.max(np.abs(per_node))


class TestChebyshevCoefficients:
    @pytest.mark.parametrize("t", [0.5, 1.0, 3.7, 8.0, 17.2, 100.0])
    def test_count_is_floor_plus_one(self, mollifier, t):
        w = chebyshev_coefficients(mollifier, t)
        assert len(w) == int(np.floor(t)) + 1

    def test_half_scale_single_constant(self, mollifier):
        w = chebyshev_coefficients(mollifier, 0.5)
        assert len(w) == 1
        assert w[0] == pytest.approx(2.0 * mollifier.phi_hat0, rel=1e-14)
        vals = eval_discrete_weight(w, np.linspace(0, 4, 17))
        assert np.all(vals == vals[0])

    def test_integer_scale_boundary_coefficient_vanishes(self, mollifier):
        w = chebyshev_coefficients(mollifier, 8.0)
        assert len(w) == 9
        assert w[8] == 0.0  # phi_hat(1) = 0 at the support edge

    def test_rejects_nonpositive_scale(self, mollifier):
        with pytest.raises(ValueError):
            chebyshev_coefficients(mollifier, 0.0)


class TestEvalDiscreteWeight:
    def test_lambda_zero_sums_coefficients(self, mollifier):
        w = chebyshev_coefficients(mollifier, 6.3)
        expect = w[0] + 2.0 * np.sum(w[1:])
        assert eval_discrete_weight(w, 0.0) == pytest.approx(expect, rel=1e-13)

    def test_lambda_four_alternating_sum(self, mollifier):
        w = chebyshev_coefficients(mollifier, 6.3)
        signs = (-1.0) ** np.arange(len(w))
        expect = w[0] + 2.0 * np.sum(signs[1:] * w[1:])
        assert eval_discrete_weight(w, 4.0) == pytest.approx(expect, rel=1e-12)

    def test_out_of_range_rejected(self, mollifier):
        w = chebyshev_coefficients(mollifier, 3.0)
        with pytest.raises(ValueError):
            eval_discrete_weight(w, 4.5)
        with pytest.raises(ValueError):
            eval_discrete_weight(w, -0.1)

    def test_trailing_zeros_bit_idempotent(self, mollifier):
        w = chebyshev_coefficients(mollifier, 9.4)
        padded = np.concatenate([w, np.zeros(5)])
        lam = np.linspace(0.0, 4.0, 101)
        assert np.array_equal(eval_discrete_weight(w, lam),
                              eval_discrete_weight(padded, lam))

    @pytest.mark.parametrize("t", [0.5, 1.0, 3.7, 10.0, 100.0])
    def test_nonnegativity_floor(self, mollifier, t):
        w = chebyshev_coefficients(mollifier, t)
        lam = np.linspace(0.0, 4.0, 1000)
        vals = eval_discrete_weight(w, lam)
        assert vals.min() >= -1e-12 * np.sum(np.abs(w))


class TestPeriodizationOracle:
    def test_single_point_agreement(self, mollifier):
        w = chebyshev_coefficients(mollifier, 7.0)
        clen = eval_discrete_weight(w, 1.3)
        direct = eval_discrete_weight_direct(mollifier, 1.3, 7.0)
        assert clen == pytest.approx(direct, rel=1e-10)

    def test_grid_agreement(self, mollifier):
        lam = np.linspace(0.05, 3.2, 20)
        worst = 0.0
        for t in np.geomspace(0.5, 6.0, 20):
            w = chebyshev_coefficients(mollifier, t)
            a = eval_discrete_weight(w, lam)
            b = eval_discrete_weight_direct(mollifier, lam, t)
            worst = max(worst, float(np.max(np.abs(a - b) / np.abs(b))))
        assert worst <= 1e-9

    def test_unit_scale_closed_form(self, mollifier):
        # t=1, lambda=2: x = arccos(0) = pi/2, sum_n phi(pi/2 - 2 pi n).
        ns = np.arange(-40, 41)
        expect = float(np.sum(mollifier.phi(np.pi / 2 - 2 * np.pi * ns)))
        got = eval_discrete_weight_direct(mollifier, 2.0, 1.0)
        assert got == pytest.approx(expect, rel=1e-13)

    def test_large_t_dominated_by_central_term(self, mollifier):
        lam, t = 1.0, 12.0
        x = np.arccos(1.0 - lam / 2.0)
        central = mollifier.phi(x * t)
        total = eval_discrete_weight_direct(mollifier, lam, t)
        # wrap terms live at arguments >= (2 pi - x) t, deep in the phi tail
        tail = mollifier.weight_tail_integral((2 * np.pi - x) * t - 1.0, 0.0)
        assert abs(total - central) <= 2.0 * tail + 1e-300
        assert total == pytest.approx(central, rel=1e-4)

    def test_domain_validation(self, mollifier):
        with pytest.raises(ValueError):
            eval_discrete_weight_direct(mollifier, 0.0, 1.0)
        with pytest.raises(ValueError):
            eval_discrete_weight_direct(mollifier, 4.2, 1.0)


class TestContinuousFamily:
    def test_lambda_zero_collapses(self, cont_family, mollifier, norm1):
        assert cont_family.value(0.0, 3.7) == pytest.approx(
            norm1.constant * mollifier.phi_max, rel=1e-14)

    def test_ballistic_scaling_exact(self, cont_family):
        # gamma=1: W_t(lam) = W_1(lam t^2), identical arguments bit for bit
        a = cont_family.value(0.7, 3.0)
        b = cont_family.value(0.7 * 9.0, 1.0)
        assert float(a) == float(b)

    def test_tail_vanishes(self, cont_family, mollifier):
        lam = (1.5 * mollifier.x_max) ** 2  # sqrt(lam) * 1 beyond the table
        assert cont_family.value(lam, 1.0) == 0.0


class TestDecompositionIdentity:
    def test_continuous_identity(self, cont_family):
        rep = check_decomposition_identity(cont_family, np.array([1.0]))
        assert rep.max_certified_residual() <= 1e-6

    def test_discrete_identity(self, disc_family):
        rep = check_decomposition_identity(disc_family, np.array([1.0]))
        assert rep.max_certified_residual() <= 1e-5

    def test_endpoint_stress(self, disc_family):
        # configurable eps: approach the arccos singularity at lambda = 4
        lam = default_lambda_grid(eps=0.5)
        rep = check_decomposition_identity(disc_family, lam)
        assert rep.max_certified_residual() <= 1e-4

    def test_uniform_grid_residual(self, disc_family):
        lam = np.arange(0.05, 3.0001, 0.05)
        rep = check_decomposition_identity(disc_family, lam)
        assert rep.identity_residuals.max() <= 1e-5
        assert np.all(np.isfinite(rep.identity_residuals))

    @pytest.mark.parametrize("B, t_min, t_max", [(3.0, 1.0, 64.0), (2.0, 0.0, 1e3),
                                                 (2.5, 4.0, 4.0)])
    def test_tail_high_is_scale_integral_tail(self, mollifier, norm1, B, t_min, t_max):
        fam = DiscreteWeightFamily(mollifier, norm1, B=B)
        lam = np.array([1e-12, 1e-3, 0.4, 1.7, fam.lambda_max])
        _, _, tail = fam.scale_integral(lam, t_min, t_max, nodes_per_octave=4)
        assert np.array_equal(fam.tail_high(lam, t_max), tail)

    def test_report_csv_columns(self, disc_family, tmp_path):
        rep = check_decomposition_identity(disc_family, np.array([0.5, 1.0]))
        path = tmp_path / "report.csv"
        rep.to_csv(path)
        with open(path) as fh:
            header = fh.readline().strip().split(",")
        assert header == ["lambda", "t", "W_cont", "W_disc", "identity_residual"]


class TestRescaling:
    def test_rescaled_identity(self, mollifier, norm1):
        fam = DiscreteWeightFamily(mollifier, norm1, B=2.0)
        rep = check_decomposition_identity(fam, np.array([0.8]))
        assert rep.max_certified_residual() <= 1e-5


class TestDecayConstants:
    def test_order_zero_bounded_by_max(self, cont_family, disc_family):
        sups_c = decay_constants(cont_family, orders=(0,))
        assert sups_c[0] <= cont_family.max_value() * (1 + 1e-12)
        sups_d = decay_constants(disc_family, orders=(0,))
        assert sups_d[0] <= disc_family.max_value() * (1 + 1e-12)

    def test_stable_under_t_extension(self, disc_family):
        a = decay_constants(disc_family, orders=(3,), t_hi=1e3)
        b = decay_constants(disc_family, orders=(3,), t_hi=2e3, n_t=140)
        assert abs(a[3] - b[3]) <= 0.05 * a[3]

    def test_monotone_growth_in_order(self, disc_family):
        sups = decay_constants(disc_family)
        assert sups[0] <= sups[1] <= sups[2] <= sups[3]


class TestDefaultScalePlan:
    def test_refuses_target_beyond_cap(self, disc_family):
        def tail(t):
            return disc_family.tail_high(np.array([0.2]), t)[0]

        target = 1e-40
        assert tail(PLAN_T_CAP) > target
        with pytest.raises(ValueError, match="target_tail_rel=1e-40 is not reached"):
            default_scale_plan(disc_family, 0.2, 0.25, target_tail_rel=target)
        # the cap itself is planned when it meets the target
        plan = default_scale_plan(disc_family, 0.2, 0.25, target_tail_rel=tail(PLAN_T_CAP))
        assert plan.j_max == 20

    def test_rejects_ratio_at_most_one(self, disc_family):
        with pytest.raises(ValueError, match="L_ratio=1.0 must exceed 1"):
            default_scale_plan(disc_family, 0.2, 0.25, L_ratio=1.0)


class TestApproximationRate:
    def test_slope_contract(self, mollifier, norm1):
        fit = approximation_rate(mollifier, 1.0, normalization=norm1)
        assert fit.slope <= -0.9
        assert not fit.degenerate

    def test_small_t_branch(self, cont_family, disc_family):
        # for t <= 1 both weights are individually bounded by the order-0 sup
        c0 = max(decay_constants(cont_family, orders=(0,), t_lo=0.1)[0],
                 decay_constants(disc_family, orders=(0,), t_lo=0.1)[0])
        for t in (0.25, 0.5, 1.0):
            assert abs(float(cont_family.value(1.0, t))) <= c0 * (1 + 1e-12)
            assert abs(float(disc_family.value(1.0, t))) <= c0 * (1 + 1e-12)

    def test_scaled_limit(self, mollifier, norm1, disc_family):
        target = norm1.constant * mollifier.phi(1.0)
        rels = []
        for t in (8.0, 16.0, 32.0, 64.0):
            got = float(disc_family.value(1.0 / t**2, t))
            rels.append(abs(got - target) / target)
        assert rels[-1] <= 1e-5
        assert rels[-1] < rels[0]

    def test_first_order_bound_scaled(self, mollifier, norm1):
        # the upper bound |W* - W| = O(1/t): t * err is bounded and shrinking
        fit = approximation_rate(mollifier, 1.0, normalization=norm1, scaled=True)
        terr = fit.t_list * fit.diffs
        assert terr[-1] <= terr[0]
        assert np.all(terr <= 1.5 * terr.max())


class TestWaveIdentity:
    def test_exact_to_tolerance(self):
        assert wave_identity_max_residual(32) <= 1e-12

    def test_polynomial_recurrence_values(self):
        polys = chebyshev_polynomial_coeffs(8)
        theta = 0.3
        for n, p in enumerate(polys):
            assert np.polyval(p[::-1], theta) == pytest.approx(
                np.cos(n * np.arccos(theta)), abs=1e-12)
