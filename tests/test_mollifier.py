
import numpy as np
import pytest

from frdecomp.mollifier import (BumpProfile, DegenerateMollifierError,
                                ProfileError, build_default_profile,
                                build_mollifier, normalization_constant)
from frdecomp.quadrature import gauss_legendre



class TestDefaultProfile:
    def test_value_at_zero(self):
        p = build_default_profile()
        assert float(p.eval(np.array([0.0]))[0]) == pytest.approx(np.exp(-4.0), rel=1e-12)
        assert np.exp(-4.0) == pytest.approx(0.0183156, rel=1e-5)

    def test_support_edge(self):
        p = build_default_profile()
        assert float(p.eval(np.array([0.5]))[0]) == 0.0
        assert float(p.eval(np.array([0.7]))[0]) == 0.0

    def test_symmetry(self):
        p = build_default_profile()
        assert float(p.eval(np.array([-0.3]))[0]) == float(p.eval(np.array([0.3]))[0])

    def test_validate_passes(self):
        build_default_profile().validate()


class TestProfileValidation:
    def test_rejects_asymmetric(self):
        bad = BumpProfile(half_width=0.5,
                          eval=lambda s: np.clip(0.25 - np.asarray(s)**2, 0, None)
                          * (1.0 + 0.2 * np.asarray(s)))
        with pytest.raises(ProfileError):
            bad.validate()

    def test_rejects_negative(self):
        base = build_default_profile()
        bad = BumpProfile(half_width=0.5, eval=lambda s: -base.eval(s))
        with pytest.raises(ProfileError):
            bad.validate()

    def test_rejects_unsupported(self):
        bad = BumpProfile(half_width=0.5,
                          eval=lambda s: np.exp(-np.asarray(s, dtype=float)**2))
        with pytest.raises(ProfileError):
            bad.validate()

    def test_build_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            build_mollifier(grid_step=0.0)
        with pytest.raises(ValueError):
            build_mollifier(x_max=10.0)


class TestMollifierTables:
    def test_phi_nonnegative_on_grid(self, mollifier):
        assert np.all(mollifier.phi_values >= 0.0)

    def test_phi_hat_support_edge(self, mollifier):
        assert mollifier.phi_hat(1.0001) == 0.0
        assert mollifier.phi_hat(-3.0) == 0.0
        assert mollifier.phi_hat(np.array([1.5, 2.0])).tolist() == [0.0, 0.0]

    def test_phi_hat_even_bit_exact(self, mollifier):
        ks = np.array([0.1, 0.37, 0.999])
        assert np.array_equal(mollifier.phi_hat(ks), mollifier.phi_hat(-ks))

    def test_fourier_pair(self, mollifier):
        # phi_hat(0) against (2 pi)^{-1} int phi dx: the autoconvolution route
        # checked by direct quadrature of the phi table.
        from scipy.integrate import simpson
        integral = 2.0 * simpson(mollifier.phi_values, x=mollifier.x_grid)
        assert mollifier.phi_hat0 == pytest.approx(integral / (2 * np.pi), rel=1e-8)

    def test_rapid_decay_bounded(self, mollifier):
        for p in (1, 2, 3, 4):
            vals = (1.0 + mollifier.x_grid**2) ** p * mollifier.phi_values
            assert np.all(np.isfinite(vals))
            assert vals.max() == mollifier.decay_sups[p]

    def test_phi_vanishes_beyond_table(self, mollifier):
        assert mollifier.phi(mollifier.x_max + 1.0) == 0.0


class TestNormalization:
    def test_gamma_one_against_independent_quadrature(self, mollifier, norm1):
        # Oracle: fresh Gauss-Legendre quadrature of t*phi(t) with phi values
        # recomputed from the bump by direct Fourier quadrature (no tables).
        prof = build_default_profile()
        s, ws = gauss_legendre(0.0, prof.half_width, 300)
        wk = ws * prof.eval(s)
        t, wt = gauss_legendre(0.0, mollifier.x_max, 3000)
        kappa = 2.0 * np.cos(np.outer(t, s)) @ wk
        integral = float(np.sum(wt * t * kappa**2))
        assert norm1.constant == pytest.approx(1.0 / integral, rel=1e-8)

    def test_doubling_phi_halves_constant(self, mollifier, norm1):
        base = build_default_profile()
        scaled = BumpProfile(half_width=0.5,
                             eval=lambda s: np.sqrt(2.0) * base.eval(s))
        m2 = build_mollifier(scaled)
        n2 = normalization_constant(m2, gamma=1.0)
        assert n2.constant == pytest.approx(norm1.constant / 2.0, rel=1e-9)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_identity_gamma_one(self, mollifier, norm1, lam):
        # C * int t^2 phi(sqrt(lam) t) dt/t * lam = 1 by direct quadrature.
        t, wt = gauss_legendre(1e-9, mollifier.x_max / np.sqrt(lam), 4000)
        integral = float(np.sum(wt * t * mollifier.phi(np.sqrt(lam) * t)))
        assert lam * norm1.constant * integral == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("lam", [0.2, 1.0, 3.7])
    def test_homogeneity_general_gamma(self, mollifier, gamma, lam):
        norm = normalization_constant(mollifier, gamma=gamma)
        # cover the full phi table after the substitution v = lam^{gamma/2} u
        u_hi = mollifier.x_max / lam ** (gamma / 2.0)
        u, wu = gauss_legendre(1e-9, u_hi, 6000)
        integral = float(np.sum(wu * u ** (2.0 / gamma - 1.0)
                                * mollifier.phi(lam ** (gamma / 2.0) * u)))
        assert lam * norm.constant * integral == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_profile_rejected(self):
        flat = BumpProfile(half_width=0.5,
                           eval=lambda s: np.zeros_like(np.asarray(s, dtype=float)))
        with pytest.raises((DegenerateMollifierError, ProfileError)):
            m = build_mollifier(flat)
            normalization_constant(m, gamma=1.0)

    def test_tail_certificate_small(self, norm1):
        assert 0.0 < norm1.tail_bound_rel < 1e-6

    def test_narrow_profile_also_valid(self, narrow_mollifier, narrow_norm):
        assert narrow_norm.constant > 0
        assert np.all(narrow_mollifier.phi_values >= 0)
        assert narrow_mollifier.phi_hat(1.0) == 0.0
