from functools import lru_cache

import numpy as np
import pytest

from frdecomp import weights
from frdecomp.graphs import GraphOperator, WeightedGraph
from frdecomp.lattice import LatticeSpec, build_symbol_table
from frdecomp.mollifier import default_mollifier
from frdecomp.quadrature import gauss_legendre
from frdecomp.weights import (PLAN_T_CAP, REPORT_T_GRID, BlockQualityError,
                              DiscreteWeightFamily, ScalePlan, approximation_rate,
                              chebyshev_coefficients, chebyshev_polynomial_coeffs,
                              check_decomposition_identity, clenshaw_folded,
                              decay_constants,
                              default_scale_plan, eval_discrete_weight_direct,
                              mode_variances, series_roundoff, spectral_gap,
                              wave_identity_max_residual, write_identity_csv)


def test_clenshaw_against_cosine_form():
    # c_0 + 2 sum c_k T_k(cos x) == sum over k of c_k cos(k x) folded
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(9)
    x = np.linspace(0.0, np.pi, 41)
    direct = coeffs[0] + 2.0 * sum(
        c * np.cos(k * x) for k, c in enumerate(coeffs) if k >= 1)
    got = clenshaw_folded(coeffs, np.cos(x))
    np.testing.assert_allclose(got, direct, rtol=1e-12, atol=1e-14)


def test_series_roundoff_bounds_clenshaw():
    # (len(a) - 1) eps sum|a|: 0 for a degree-0 series, which is exact
    eps = np.finfo(float).eps
    assert series_roundoff([-3.0]) == 0.0
    assert series_roundoff([1.0, -2.0, 3.0]) == 2 * eps * 6.0
    # a degree-300 series against its cosine form in long double
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(301) / np.arange(1, 302)
    theta = np.cos(np.linspace(0.0, np.pi, 97))
    x = np.arccos(theta.astype(np.longdouble))
    k = np.arange(1, coeffs.size, dtype=np.longdouble)
    exact = coeffs[0] + 2 * (np.cos(np.outer(x, k)) @ coeffs[1:].astype(np.longdouble))
    got = clenshaw_folded(coeffs, theta)
    assert np.max(np.abs(got - exact)) <= series_roundoff(coeffs)


@lru_cache(maxsize=None)
def reference_integrals(t_lo, t_hi, nodes=4096):
    """int_{t_lo}^{t_hi} phi_hat(k/t) dt for k < t_hi by one many-node
    Gauss-Legendre rule in t (the default mollifier's phi_hat table)."""
    m = default_mollifier()
    t, w = gauss_legendre(t_lo, t_hi, nodes)
    k = np.arange(int(np.ceil(t_hi)), dtype=float)
    return sum(w[i:i + 256] @ m.phi_hat(k / t[i:i + 256, None])
               for i in range(0, nodes, 256))


class TestIntervalCoefficients:
    @pytest.mark.parametrize("t_lo, t_hi", [(0.5, 2.0), (1.0, 16.0), (8.0, 64.0)])
    def test_matches_periodization_quadrature(self, mollifier, norm1, t_lo, t_hi):
        fam = DiscreteWeightFamily(mollifier, norm1, B=2.1)
        coeffs = fam.interval_coefficients(t_lo, t_hi)
        assert len(coeffs) == int(np.ceil(t_hi))
        lam = np.linspace(0.01, fam.lambda_max, 101)
        got = clenshaw_folded(coeffs, 1.0 - 0.5 * fam.arg_scale * lam)
        tq, wq = gauss_legendre(t_lo, t_hi, 400)
        scale = norm1 * fam.arg_scale
        # independent route: the periodized sum, by a 400-node rule in t
        oracle = sum(w * scale * t
                     * eval_discrete_weight_direct(mollifier, fam.arg_scale * lam, t)
                     for t, w in zip(tq, wq))
        # floor: the phi and phi_hat tables agree to ~1e-11 (see
        # TestPeriodizationOracle)
        assert np.max(np.abs(got - oracle)) <= 2e-11 * np.max(np.abs(oracle))
        per_node = sum(w * t * fam.value(lam, t) for t, w in zip(tq, wq))
        assert np.max(np.abs(got - per_node)) <= 2e-14 * np.max(np.abs(per_node))

    @pytest.mark.parametrize("t_lo, t_hi", [(0.5, 1.0), (1.0, 64.0), (1.0, 1000.0),
                                            (1024.0, 2048.0)])
    def test_panel_fold_matches_per_node_sum(self, mollifier, norm1, t_lo, t_hi):
        # the closed form against the per-node sum of the filters' coefficients
        # over a 4096-node rule in t
        fam = DiscreteWeightFamily(mollifier, norm1, B=7.9)
        got = fam.interval_coefficients(t_lo, t_hi)
        expect = norm1 * fam.arg_scale * reference_integrals(t_lo, t_hi)
        assert np.max(np.abs(got - expect)) <= 2e-14 * np.max(np.abs(expect))

    @pytest.mark.parametrize("B", [2.1, 7.9])
    @pytest.mark.parametrize("L_ratio, j_max", [(2.0, 11), (3.0, 7)])
    def test_blocks_match_many_node_reference(self, mollifier, norm1, B, L_ratio, j_max):
        fam = DiscreteWeightFamily(mollifier, norm1, B=B)
        plan = ScalePlan(j_min=1, j_max=j_max, L_ratio=L_ratio)
        for j, got in zip(range(1, j_max + 1), plan.series(fam)[1:]):
            expect = norm1 * fam.arg_scale * reference_integrals(
                L_ratio ** (j - 1), L_ratio**j)
            assert len(got) == len(expect) == int(np.ceil(L_ratio**j))
            assert np.max(np.abs(got - expect)) <= 2e-14 * np.max(np.abs(expect)), j

    def test_from_zero_is_the_white_piece(self, mollifier, norm1):
        fam = DiscreteWeightFamily(mollifier, norm1, B=2.5)
        for t_low in (0.125, 0.25, 1.0 / 3.0, 1.0):
            white = norm1 * fam.arg_scale * (mollifier.phi_hat0 * t_low)
            assert fam.interval_coefficients(0.0, t_low).tolist() == [white]

    @pytest.mark.parametrize("L_ratio, j_min, j_max", [(2.0, -2, 11), (3.0, -1, 7)])
    def test_blocks_telescope_to_one_interval(self, mollifier, norm1, L_ratio, j_min,
                                              j_max):
        fam = DiscreteWeightFamily(mollifier, norm1, B=7.9)
        plan = ScalePlan(j_min=j_min, j_max=j_max, L_ratio=L_ratio)
        one = fam.interval_coefficients(0.0, plan.t_high)
        total = plan.total_series(fam)
        assert len(total) == len(one)
        assert np.max(np.abs(total - one)) <= 1e-15 * np.max(np.abs(one))

    def test_refuses_bad_interval(self, disc_family):
        for t_lo, t_hi in ((-1.0, 2.0), (3.0, 2.0), (0.0, np.inf)):
            with pytest.raises(ValueError, match="invalid scale interval"):
                disc_family.interval_coefficients(t_lo, t_hi)


class TestChebyshevCoefficients:
    @pytest.mark.parametrize("t", [0.5, 1.0, 3.7, 8.0, 17.2, 100.0])
    def test_count_is_floor_plus_one(self, mollifier, t):
        w = chebyshev_coefficients(mollifier, t)
        assert len(w) == int(np.floor(t)) + 1

    def test_half_scale_single_constant(self, mollifier, disc_family):
        w = chebyshev_coefficients(mollifier, 0.5)
        assert len(w) == 1
        assert w[0] == pytest.approx(2.0 * mollifier.phi_hat0, rel=1e-14)
        vals = disc_family.value(np.linspace(0, 4, 17), 0.5)
        assert np.all(vals == vals[0])

    def test_integer_scale_boundary_coefficient_vanishes(self, mollifier):
        w = chebyshev_coefficients(mollifier, 8.0)
        assert len(w) == 9
        assert w[8] == 0.0  # phi_hat(1) = 0 at the support edge

    def test_rejects_nonpositive_scale(self, mollifier):
        with pytest.raises(ValueError):
            chebyshev_coefficients(mollifier, 0.0)

    @pytest.mark.parametrize("t", [0.0, -1.0])
    def test_direct_oracle_rejects_nonpositive_scale(self, mollifier, t):
        with pytest.raises(ValueError, match="scale t must be positive"):
            eval_discrete_weight_direct(mollifier, 1.3, t)


class TestEvalDiscreteWeight:
    """W*_t through the bare family (B = 3): C W*_t(lambda), the Clenshaw sum
    of the coefficients at theta = 1 - lambda/2."""

    def test_lambda_zero_sums_coefficients(self, mollifier, norm1, disc_family):
        w = chebyshev_coefficients(mollifier, 6.3)
        expect = w[0] + 2.0 * np.sum(w[1:])
        assert disc_family.value(0.0, 6.3) == pytest.approx(norm1 * expect, rel=1e-13)

    def test_lambda_four_alternating_sum(self, mollifier, norm1, disc_family):
        w = chebyshev_coefficients(mollifier, 6.3)
        signs = (-1.0) ** np.arange(len(w))
        expect = w[0] + 2.0 * np.sum(signs[1:] * w[1:])
        assert disc_family.value(4.0, 6.3) == pytest.approx(norm1 * expect, rel=1e-12)

    def test_out_of_range_rejected(self, disc_family):
        with pytest.raises(ValueError, match="lambda outside"):
            disc_family.value(4.5, 3.0)
        with pytest.raises(ValueError, match="lambda outside"):
            disc_family.value(-0.1, 3.0)

    def test_trailing_zeros_bit_idempotent(self, mollifier):
        w = chebyshev_coefficients(mollifier, 9.4)
        padded = np.concatenate([w, np.zeros(5)])
        theta = 1.0 - 0.5 * np.linspace(0.0, 4.0, 101)
        assert np.array_equal(clenshaw_folded(w, theta), clenshaw_folded(padded, theta))

    @pytest.mark.parametrize("t", [0.5, 1.0, 3.7, 10.0, 100.0])
    def test_nonnegativity_floor(self, mollifier, norm1, disc_family, t):
        w = chebyshev_coefficients(mollifier, t)
        vals = disc_family.value(np.linspace(0.0, 4.0, 1000), t)
        assert vals.min() >= -1e-12 * norm1 * np.sum(np.abs(w))


class TestPeriodizationOracle:
    def test_single_point_agreement(self, mollifier, norm1, disc_family):
        clen = disc_family.value(1.3, 7.0)
        direct = norm1 * eval_discrete_weight_direct(mollifier, 1.3, 7.0)
        assert clen == pytest.approx(direct, rel=1e-10)

    def test_grid_agreement(self, mollifier, norm1, disc_family):
        lam = np.linspace(0.05, 3.2, 20)
        worst = 0.0
        for t in np.geomspace(0.5, 6.0, 20):
            a = disc_family.value(lam, t)
            b = norm1 * eval_discrete_weight_direct(mollifier, lam, t)
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
        # wrap terms live at arguments >= (2 pi - x) t, deep in the phi tail,
        # where int_u^inf phi <= u^-1 int_u^inf v phi(v) dv
        u = (2 * np.pi - x) * t - 1.0
        tail = mollifier.phi_tail_moment(u) / u
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
            norm1 * mollifier.phi_max, rel=1e-14)

    def test_ballistic_scaling_exact(self, cont_family):
        # W_t(lam) = W_1(lam t^2), identical arguments bit for bit
        a = cont_family.value(0.7, 3.0)
        b = cont_family.value(0.7 * 9.0, 1.0)
        assert float(a) == float(b)

    def test_tail_vanishes(self, cont_family, mollifier):
        lam = (1.5 * mollifier.x_max) ** 2  # sqrt(lam) * 1 beyond the table
        assert cont_family.value(lam, 1.0) == 0.0

    @pytest.mark.parametrize("t_min, t_max", [(0.3, 50.0), (2.0, 2.5)])
    def test_scale_integral_against_many_node_rule(self, cont_family, t_min, t_max):
        # the closed form in F against a 20,000-node rule in log t on the phi table
        lam = np.array([0.05, 1.0, 3.9])
        got, _, _ = cont_family.scale_integral(lam, t_min, t_max)
        v, w = gauss_legendre(np.log(t_min), np.log(t_max), 20_000)
        t = np.exp(v)
        expect = np.array([np.sum(w * t**2 * cont_family.value(l, t)) for l in lam])
        np.testing.assert_allclose(got, expect, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("lam", [0.0, -1.0, np.nan])
    def test_scale_integral_refuses_nonpositive_lambda(self, cont_family, disc_family,
                                                       lam):
        refused = [lambda: cont_family.scale_integral(np.array([1.0, lam]), 0.3, 50.0),
                   lambda: disc_family.scale_integral(np.array([1.0, lam]), 0.3, 50.0),
                   lambda: disc_family.tail_high(np.array([1.0, lam]), 64.0),
                   lambda: check_decomposition_identity(disc_family, [lam, 1.0])]
        for call in refused:
            with pytest.raises(ValueError, match="lambda must be positive"):
                call()


class TestDecompositionIdentity:
    def test_continuous_identity(self, cont_family):
        rep = check_decomposition_identity(cont_family, np.array([1.0]))
        assert rep.max_certified_residual() <= 1e-6

    def test_discrete_identity(self, disc_family):
        rep = check_decomposition_identity(disc_family, np.array([1.0]))
        assert rep.max_certified_residual() <= 1e-5

    def test_endpoint_stress(self, disc_family):
        # approach the arccos singularity at lambda = 4
        lam = np.arange(0.05, 3.5 + 1e-12, 0.05)
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
        _, _, tail = fam.scale_integral(lam, t_min, t_max)
        assert np.array_equal(fam.tail_high(lam, t_max), tail)
        # one array expression: each eigenvalue's tail as if alone
        alone = [fam.tail_high(np.array([x]), t_max)[0] for x in lam]
        assert np.array_equal(tail, alone)

    def test_report_csv_columns(self, disc_family, cont_family, tmp_path):
        lam = np.array([0.5, 1.0])
        rep = check_decomposition_identity(disc_family, lam)
        rep_c = check_decomposition_identity(cont_family, lam)
        path = tmp_path / "report.csv"
        write_identity_csv(path, rep, rep_c)
        table = np.genfromtxt(path, delimiter=",", names=True)
        assert table.dtype.names == ("lambda", "t", "W_cont", "W_disc",
                                     "identity_residual")
        # one row per (lambda, t), t running fastest, on the report's grid
        assert np.array_equal(REPORT_T_GRID, np.geomspace(0.5, 64.0, 8))
        assert np.array_equal(table["lambda"], np.repeat(lam, REPORT_T_GRID.size))
        assert np.array_equal(table["t"], np.tile(REPORT_T_GRID, lam.size))
        assert np.array_equal(table["W_cont"], rep_c.values.ravel())
        assert np.array_equal(table["W_disc"], rep.values.ravel())
        assert np.array_equal(table["identity_residual"],
                              np.repeat(rep.identity_residuals, REPORT_T_GRID.size))


class TestRescaling:
    def test_rescaled_identity(self, mollifier, norm1):
        fam = DiscreteWeightFamily(mollifier, norm1, B=2.0)
        rep = check_decomposition_identity(fam, np.array([0.8]))
        assert rep.max_certified_residual() <= 1e-5

    @pytest.mark.parametrize("B", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_bound_outside_positive_reals(self, mollifier, norm1, B):
        with pytest.raises(ValueError, match="must be positive and finite"):
            DiscreteWeightFamily(mollifier, norm1, B=B)


class TestDecayConstants:
    def test_order_zero_bounded_by_max(self, mollifier, norm1, cont_family,
                                       disc_family):
        # C phi_max bounds W_t; C phi_hat(0)/t at the grid's lowest t = 0.1
        # bounds W*_t (its t < 1 value dominates)
        sups_c = decay_constants(cont_family, orders=(0,))
        assert sups_c[0] <= norm1 * mollifier.phi_max * (1 + 1e-12)
        sups_d = decay_constants(disc_family, orders=(0,), t_lo=0.1)
        assert sups_d[0] <= (norm1 * disc_family.arg_scale * mollifier.phi_hat0
                            / 0.1 * (1 + 1e-12))

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
            default_scale_plan(disc_family, 0.2, target_tail_rel=target)
        # the cap itself is planned when it meets the target
        plan = default_scale_plan(disc_family, 0.2, target_tail_rel=tail(PLAN_T_CAP))
        assert plan.j_max == 20

    def test_rejects_ratio_at_most_one(self, disc_family):
        with pytest.raises(ValueError, match="L_ratio=1.0 must exceed 1"):
            default_scale_plan(disc_family, 0.2, L_ratio=1.0)

    @pytest.mark.parametrize("target", [0.0, -1e-7, float("nan")])
    def test_rejects_target_not_positive(self, disc_family, target):
        # a NaN target would end the doubling at t = 4 without meeting a tail
        with pytest.raises(ValueError, match=f"target_tail_rel={target} must be positive"):
            default_scale_plan(disc_family, 0.5, target_tail_rel=target)

    def test_ratio_and_target_are_keyword_only(self, disc_family):
        # a third positional argument (the retired lower end) must not bind
        # to L_ratio
        with pytest.raises(TypeError):
            default_scale_plan(disc_family, 0.2, 0.25)

    @pytest.mark.parametrize("backend", ["graph", "torus"])
    @pytest.mark.parametrize("L_ratio", [2.0, 3.0])
    def test_white_piece_is_all_of_t_below_one(self, mollifier, norm1, backend,
                                               L_ratio):
        # every weight below t = 1 has degree 0: the white piece [0, 1] is one
        # coefficient and every block has degree >= 1
        from frdecomp.graphs import GraphOperator, cycle_graph
        from frdecomp.lattice import LatticeSpec, build_symbol_table
        op = (GraphOperator(cycle_graph(16), "resolvent", m2=1.0) if backend == "graph"
              else build_symbol_table(LatticeSpec(d=2, a=np.eye(2), m2=0.5, N=8)))
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        plan = default_scale_plan(fam, spectral_gap(op), L_ratio=L_ratio)
        assert plan.j_min == 1 and plan.t_low == 1.0
        white, *blocks = plan.series(fam)
        assert len(white) == 1
        assert blocks and all(len(a) >= 2 for a in blocks)


class TestApproximationRate:
    def test_slope_contract(self, mollifier, norm1):
        fit = approximation_rate(mollifier, norm1, 1.0)
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
        target = norm1 * mollifier.phi(1.0)
        rels = []
        for t in (8.0, 16.0, 32.0, 64.0):
            got = float(disc_family.value(1.0 / t**2, t))
            rels.append(abs(got - target) / target)
        assert rels[-1] <= 1e-5
        assert rels[-1] < rels[0]

    def test_first_order_bound_scaled(self, mollifier, norm1):
        # the upper bound |W* - W| = O(1/t): t * err is bounded and shrinking
        fit = approximation_rate(mollifier, norm1, 1.0, scaled=True)
        terr = fit.t_list * fit.diffs
        assert terr[-1] <= terr[0]
        assert np.all(terr <= 1.5 * terr.max())


class TestWaveIdentity:
    def test_exact_to_tolerance(self):
        assert wave_identity_max_residual() <= 1e-12

    def test_polynomial_recurrence_values(self):
        polys = chebyshev_polynomial_coeffs(8)
        theta = 0.3
        for n, p in enumerate(polys):
            assert np.polyval(p[::-1], theta) == pytest.approx(
                np.cos(n * np.arccos(theta)), abs=1e-12)


def per_mode_variances(spectrum, family, series, singular):
    """Reference: mode_variances as one Clenshaw sweep over every mode, with
    the recurrence written out as b_k = 2 c_k + 2 theta b_{k+1} - b_{k+2}."""
    lam = np.asarray(spectrum, dtype=float)
    theta = 1.0 - 0.5 * family.arg_scale * lam
    variances = []
    for a in series:
        b1, b2 = np.zeros_like(theta), np.zeros_like(theta)
        for k in range(len(a) - 1, 0, -1):
            b1, b2 = 2.0 * a[k] + 2.0 * theta * b1 - b2, b1
        v = theta * b1 - b2 + a[0]
        v[v < 0] = 0.0
        v[(lam <= 1e-12) & bool(singular)] = 0.0
        variances.append(v)
    return variances


def mode_variance_operators():
    """(id, operator) of four spectra: a symmetric torus, an off-diagonal a,
    a massless torus (zero mode deflated) and a graph whose vertex measure is
    not constant."""
    rng = np.random.default_rng(4)
    edges = [(i, (i + 1) % 12, w) for i, w in enumerate(rng.uniform(0.5, 2.0, 12))]
    edges += [(0, 6, 1.0), (3, 8, 0.7)]
    graph = GraphOperator(WeightedGraph.from_edges(12, edges), "laplacian")
    assert np.ptp(graph.graph.mu) > 0
    return [
        ("torus", build_symbol_table(LatticeSpec(d=2, a=np.eye(2), m2=0.5, N=64))),
        ("off-diagonal", build_symbol_table(
            LatticeSpec(d=2, a=np.array([[1.0, 0.3], [0.3, 1.0]]), m2=0.5, N=16))),
        ("massless", build_symbol_table(LatticeSpec(d=2, a=np.eye(2), m2=0.0, N=16))),
        ("graph", graph),
    ]


class TestModeVariances:
    @pytest.mark.parametrize("index", range(4), ids=["torus", "off-diagonal", "massless",
                                                     "graph"])
    def test_bit_identical_to_per_mode(self, mollifier, norm1, index):
        name, op = mode_variance_operators()[index]
        spectrum = op.spectrum
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        plan = default_scale_plan(fam, spectral_gap(op))
        series = plan.series(fam) + [plan.total_series(fam)]
        got = mode_variances(spectrum, fam, series, op.is_singular)
        expect = per_mode_variances(spectrum, fam, series, op.is_singular)
        assert len(got) == len(expect)
        for g, e in zip(got, expect):
            assert g.shape == spectrum.shape and np.array_equal(g, e)
        if op.is_singular:
            assert all(np.all(v[spectrum <= 1e-12] == 0.0) for v in got)

    def test_one_sweep_per_distinct_eigenvalue(self, mollifier, norm1, monkeypatch):
        # a 64 x 64 torus has 4,096 modes and 547 distinct symbol values
        _, table = mode_variance_operators()[0]
        fam = DiscreteWeightFamily(mollifier, norm1, B=table.B)
        plan = default_scale_plan(fam, spectral_gap(table))
        sizes, clenshaw = [], weights.clenshaw_folded

        def recording(coeffs, theta):
            sizes.append(np.size(theta))
            return clenshaw(coeffs, theta)

        monkeypatch.setattr(weights, "clenshaw_folded", recording)
        weights.mode_variances(table.spectrum, fam, plan.series(fam), False)
        assert sizes == [547] * len(plan.series(fam))

    def test_repeated_offending_eigenvalue(self, mollifier, norm1):
        # the series 2 (theta - theta(2)) - w is negative only at lambda = 2,
        # which the spectrum holds three times: w beyond the roundoff bound is
        # refused, and the message names the worst value
        fam = DiscreteWeightFamily(mollifier, norm1, B=4.0)
        spectrum = np.array([[0.5, 2.0], [2.0, 1.0], [1.5, 2.0]])
        at_two = 1.0 - 0.5 * fam.arg_scale * 2.0
        series = np.array([-2.0 * at_two - 1e-3, 1.0])
        assert series_roundoff(series) < 1e-3
        assert np.sum(per_mode_variances(spectrum, fam, [series], False)[0] == 0) == 3
        with pytest.raises(BlockQualityError, match="negative mode variance 0.001 "):
            mode_variances(spectrum, fam, [series], False)
