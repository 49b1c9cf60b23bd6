
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import exp_bump
from frdecomp.mollifier import (BumpProfile, DegenerateMollifierError,
                                ProfileError, _cell_moment, _eval_cells, _tabulate_kappa,
                                build_default_profile, build_mollifier,
                                normalization_constant)
from frdecomp.quadrature import gauss_legendre


def direct_t_kappa_squared(profile, x_lo=0.0, x_hi=400.0):
    """int_x_lo^x_hi t kappa(t)^2 dt with kappa recomputed from the bump by a
    300-node rule in s and 200-node panels of width at most 10 in t (no
    tables)."""
    s, ws = gauss_legendre(0.0, profile.half_width, 300)
    wk = 2.0 * ws * profile.eval(s)
    edges = np.linspace(x_lo, x_hi, int(np.ceil((x_hi - x_lo) / 10.0)) + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        t, wt = gauss_legendre(a, b, 200)
        total += float(np.sum(wt * t * (np.cos(np.outer(t, s)) @ wk) ** 2))
    return total


def direct_autoconvolution(profile, k, nodes=96, chunk=512):
    """(khat * khat)(k) by a Gauss-Legendre rule per point over the overlap
    [k - hw, hw] of the two supports, chunk points at a time."""
    hw = profile.half_width
    g, w = gauss_legendre(-1.0, 1.0, nodes)
    out = np.empty_like(k)
    for lo in range(0, len(k), chunk):
        kc = k[lo:lo + chunk]
        half = 0.5 * (2.0 * hw - kc)
        s = (0.5 * kc)[:, None] + half[:, None] * g[None, :]
        vals = profile.eval(s) * profile.eval(kc[:, None] - s)
        out[lo:lo + chunk] = half * (vals @ w)
    return out


def direct_kappa(profile, x):
    """kappa(x) = 2 int_0^hw khat(s) cos(sx) ds by the table's 256-node rule,
    one cosine per (x, node)."""
    s, w = gauss_legendre(0.0, profile.half_width, 256)
    wk = 2.0 * w * profile.eval(s)
    return np.concatenate([np.cos(np.outer(x[i:i + 8192], s)) @ wk
                           for i in range(0, len(x), 8192)])


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

    @pytest.mark.parametrize("profile, message", [
        pytest.param(BumpProfile(half_width=0.5, eval=lambda s: np.where(
            np.asarray(s) == 0.0, np.nan, build_default_profile().eval(s))),
                     "non-finite values", id="nan-at-centre"),
        pytest.param(BumpProfile(half_width=0.5, eval=lambda s: np.where(
            np.asarray(s) == 0.0, np.inf, build_default_profile().eval(s))),
                     "non-finite values", id="inf-at-centre"),
        # the indicator of (-1/2, 1/2): a jump at each end
        pytest.param(BumpProfile(half_width=0.5,
                                 eval=lambda s: (np.abs(np.asarray(s)) < 0.5) * 1.0),
                     "smoothness check", id="box")])
    def test_rejects_non_finite_or_rough(self, profile, message):
        with pytest.raises(ProfileError, match=message):
            profile.validate()

    @pytest.mark.parametrize("half_width", [0.6, 0.0, -0.5])
    def test_rejects_half_width_outside_half(self, half_width):
        # phi_hat = khat * khat reaches |k| = 2 half_width, and its table ends
        # at k = 1
        wide = exp_bump(half_width=half_width)
        with pytest.raises(ProfileError, match="half_width"):
            wide.validate()
        with pytest.raises(ProfileError, match="half_width"):
            build_mollifier(wide)

    def test_tail_integral_between_last_nodes(self, mollifier):
        m = mollifier
        assert m.x_grid[-1] == m.x_max == 100.0
        beyond = m.phi_tail_moment(m.x_max)
        for x_lo in (99.998, 99.9995, np.nextafter(m.x_max, 0.0)):
            assert beyond <= m.phi_tail_moment(x_lo) < beyond + 1e-12
        # from x_max on, only the analytic remainder K_4 x^-6 / 6 is left
        x = np.array([m.x_max, np.nextafter(m.x_max, np.inf), 150.0, 1e9])
        assert np.array_equal(m.phi_tail_moment(x), m.decay_sups[4] * x**-6.0 / 6.0)


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


@pytest.fixture(params=["mollifier", "narrow_mollifier"])
def any_mollifier(request):
    return request.getfixturevalue(request.param)


class TestTableAccuracy:
    """The GEMM kappa and the Hermite / quintic interpolants against direct
    evaluation, on the default and the narrow profile."""

    def test_kappa_against_direct_sum(self, any_mollifier):
        m = any_mollifier
        kappa, _ = _tabulate_kappa(m.profile, m.x_grid)
        direct = direct_kappa(m.profile, m.x_grid)
        assert np.max(np.abs(kappa - direct)) <= 1e-14 * direct[0]

    def test_phi_off_grid(self, any_mollifier):
        m = any_mollifier
        x = np.random.default_rng(3).uniform(0.0, m.x_max, 40_000)
        exact = direct_kappa(m.profile, x) ** 2
        assert np.max(np.abs(m.phi(x) - exact)) <= 1e-14 * m.phi_max

    def test_phi_hat_off_grid(self, any_mollifier):
        m = any_mollifier
        k = np.random.default_rng(4).uniform(0.0, 1.0, 40_000)
        exact = direct_autoconvolution(m.profile, k)
        assert np.max(np.abs(m.phi_hat(k) - exact)) <= 1e-14 * m.phi_hat0

    def test_normalization_is_the_phi_hat_float(self, any_mollifier):
        m = any_mollifier
        C = normalization_constant(m)
        assert type(C) is float
        assert C == 1.0 / (2.0 * m.phi_hat0 - 2.0 * m.phi_hat_remainder(0.0))

    def test_gamma_one_normalization_against_direct_integral(self, any_mollifier):
        # 1/C = 2 phi_hat(0) - 2 R(0) truncates nothing; a rule on the phi
        # table would drop int_{x_max}^inf t phi (2.3e-10 of 1/C for the
        # default bump, 5.4e-7 for the narrow one)
        m = any_mollifier
        assert 1.0 / normalization_constant(m) == pytest.approx(
            direct_t_kappa_squared(m.profile), rel=1e-10, abs=0.0)

    def test_tail_moment_bounds_direct_integral(self, any_mollifier):
        # phi_tail_moment(x) = F(x_max) - F(x) plus the analytic remainder
        # beyond x_max is at least int_x^x_max u kappa(u)^2 du with kappa
        # recomputed from the bump, and exceeds it by at most that remainder
        # and roundoff
        m = any_mollifier
        slack = (m.decay_sups[4] * m.x_max**-6.0 / 6.0
                 + 1e-13 * m.phi_first_moment(m.x_max))
        for x in (0.0, 0.5, 3.0, 17.25, 60.0, 99.99, m.x_max):
            excess = m.phi_tail_moment(x) - direct_t_kappa_squared(m.profile, x, m.x_max)
            assert 0.0 <= excess <= slack, x

    def test_remainder_against_direct_quadrature(self, any_mollifier):
        # R(v) = int_v^1 (phi_hat(u) - phi_hat(0)) u^-2 du by a 400-node rule
        # on phi_hat per call, against the Hermite table; near v = 0 the
        # per-call route itself cancels in phi_hat(u) - phi_hat(0)
        m = any_mollifier
        near_zero = np.array([0.0, 1e-6, 1e-4])
        v = np.concatenate([near_zero, [0.999],
                            np.random.default_rng(6).uniform(1e-3, 1.0, 40)])
        direct = np.empty_like(v)
        for i, lo in enumerate(v):
            u, w = gauss_legendre(lo, 1.0, 400)
            direct[i] = np.sum(w * (m.phi_hat(u) - m.phi_hat0) / u**2)
        got = m.phi_hat_remainder(v)
        assert got.shape == v.shape
        err = np.abs(got - direct) / abs(direct[0])
        assert np.max(err[:3]) <= 1e-11 and np.max(err[3:]) <= 1e-14
        assert abs(m.phi_hat_remainder(1.0)) <= 1e-20

    def test_first_moment_against_many_node_rule(self, mollifier, norm1):
        # F(x) = int_0^x u phi(u) du from the Hermite cells against a
        # 20,000-node rule on the phi table; C F(x_max) misses 1 by the
        # phi tail beyond x_max, which C is blind to (it comes from phi_hat)
        m = mollifier
        f_max = m.phi_first_moment(m.x_max)
        for x in (0.5, 3.0, 17.25, 60.0, m.x_max):
            u, w = gauss_legendre(0.0, x, 20_000)
            assert abs(m.phi_first_moment(x) - np.sum(w * u * m.phi(u))) <= 1e-14 * f_max
        beyond = m.phi_first_moment(np.array([np.nextafter(m.x_max, np.inf), 150.0, 1e9]))
        assert np.all(beyond == f_max)
        assert abs(norm1 * f_max - 1.0) <= norm1 * m.phi_tail_moment(m.x_max)

    def test_first_moment_keeps_shape_and_is_elementwise(self, mollifier):
        # arguments on both sides of x_max, of either sign, in a 2-D array
        m = mollifier
        x = np.array([[0.0, -3.0, np.nextafter(m.x_max, 0.0)],
                      [m.x_max, -150.0, np.inf]])
        got = m.phi_first_moment(x)
        assert got.shape == x.shape
        assert got.tolist() == [[m.phi_first_moment(v) for v in row] for row in x]
        assert got[1].tolist() == [m.phi_first_moment(m.x_max)] * 3


class WholeTable:
    """phi, F and the phi tail from every phi cell tabulated at once, as the
    mollifier held them before it formed the cells of a query on demand."""

    def __init__(self, m):
        self.m = m
        v, d, h = m.phi_values, m._phi_slopes, m.grid_step
        y0, dy = v[:-1], np.diff(v)
        d0, d1 = h * d[:-1], h * d[1:]
        self.cells = np.array([y0, d0, 3.0 * dy - 2.0 * d0 - d1, d0 + d1 - 2.0 * dy])
        whole = _cell_moment(self.cells, np.arange(self.cells.shape[1]), 1.0)
        self.moment_nodes = np.append(0.0, np.cumsum(h**2 * whole))
        self.moment_top = self._moment_inside(np.array([m.x_max]))[0]

    def phi(self, x):
        x = np.abs(x)
        out = np.zeros_like(x)
        inside = x <= self.m.x_max
        out[inside] = np.clip(_eval_cells(self.cells, self.m.grid_step, x[inside]), 0.0, None)
        return out

    def _moment_inside(self, x):
        u = x / self.m.grid_step
        i = np.minimum(u.astype(np.intp), self.cells.shape[1] - 1)
        s = u - i
        partial = _cell_moment(self.cells[:, i], i, s)
        return self.moment_nodes[i] + self.m.grid_step**2 * partial

    def first_moment(self, x):
        x = np.abs(x)
        out = np.full(x.shape, self.moment_top)
        inside = x < self.m.x_max
        out[inside] = self._moment_inside(x[inside])
        return out

    def tail_moment(self, x):
        x = np.abs(x)
        return (np.maximum(self.moment_top - self.first_moment(x), 0.0)
                + self.m.decay_sups[4] * np.maximum(x, self.m.x_max) ** -6.0 / 6.0)


class TestOnDemandCells:
    """The phi cells formed per query give the bits of the whole table."""

    def test_against_whole_table(self, any_mollifier):
        m = any_mollifier
        old = WholeTable(m)
        nodes = m.x_grid
        midpoints = (np.arange(len(nodes) - 1) + 0.5) * m.grid_step
        edge = np.array([m.x_max, np.nextafter(m.x_max, 0.0), np.nextafter(m.x_max, np.inf),
                         100.5, 150.0, 1e9, -m.x_max, -0.37, 0.0])
        for x in (nodes, midpoints, edge):
            assert np.array_equal(m.phi(x), old.phi(x))
            assert np.array_equal(m.phi_first_moment(x), old.first_moment(x))
            assert np.array_equal(m.phi_tail_moment(x), old.tail_moment(x))
        assert np.array_equal(m._moment_nodes, old.moment_nodes)


class TestMemory:
    """tracemalloc bounds on the tables: what was measured plus less than one
    grid array (100,001 float64, 0.76 MiB), so that one more grid array kept,
    or live at the peak, fails them; a whole phi cell table is four."""

    def test_build_peak_and_kept_bytes(self):
        tracemalloc.start()
        try:
            m = build_mollifier()
            kept, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            m.phi_first_moment(3.0)
            moment_kept, moment_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        mib = 2.0**20
        # measured: 5.61 MiB peak (11.3 MiB with the whole cell table), 2.45
        # MiB kept (4.7 MiB with it)
        assert peak <= 6.2 * mib
        assert kept <= 2.9 * mib
        # the node table of F, 0.76 MiB, is built chunk by chunk on first use:
        # 0.35 MiB above the table measured (3.1 MiB from the whole table)
        table = m._moment_nodes.nbytes
        assert moment_kept - kept <= table + 0.01 * mib
        assert moment_peak - kept <= table + 0.7 * mib
        # no array the mollifier holds is larger than about one grid array
        arrays = [a for a in vars(m).values() if isinstance(a, np.ndarray)]
        largest = max(a.nbytes if a.base is None else a.base.nbytes for a in arrays)
        assert largest < 2 * m.phi_values.nbytes


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
        assert norm1 == pytest.approx(1.0 / integral, rel=1e-8)

    def test_doubling_phi_halves_constant(self, mollifier, norm1):
        base = build_default_profile()
        scaled = BumpProfile(half_width=0.5,
                             eval=lambda s: np.sqrt(2.0) * base.eval(s))
        m2 = build_mollifier(scaled)
        assert normalization_constant(m2) == pytest.approx(norm1 / 2.0, rel=1e-9)

    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
    def test_identity_gamma_one(self, mollifier, norm1, lam):
        # C * int t^2 phi(sqrt(lam) t) dt/t * lam = 1 by direct quadrature.
        t, wt = gauss_legendre(1e-9, mollifier.x_max / np.sqrt(lam), 4000)
        integral = float(np.sum(wt * t * mollifier.phi(np.sqrt(lam) * t)))
        assert lam * norm1 * integral == pytest.approx(1.0, abs=1e-6)

    # The homogeneity identity lam * C * int u^{2/gamma-1} phi(lam^{gamma/2} u) du = 1
    # in the substituted variable, at the one exponent the constant is built for.
    @pytest.mark.parametrize("gamma", [1.0])
    @pytest.mark.parametrize("lam", [0.2, 1.0, 3.7])
    def test_homogeneity_general_gamma(self, mollifier, norm1, gamma, lam):
        # cover the full phi table after the substitution v = lam^{gamma/2} u
        u_hi = mollifier.x_max / lam ** (gamma / 2.0)
        u, wu = gauss_legendre(1e-9, u_hi, 6000)
        integral = float(np.sum(wu * u ** (2.0 / gamma - 1.0)
                                * mollifier.phi(lam ** (gamma / 2.0) * u)))
        assert lam * norm1 * integral == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_profile_rejected(self):
        flat = BumpProfile(half_width=0.5,
                           eval=lambda s: np.zeros_like(np.asarray(s, dtype=float)))
        with pytest.raises((DegenerateMollifierError, ProfileError)):
            m = build_mollifier(flat)
            normalization_constant(m)

    @pytest.mark.parametrize("phi_hat0", [0.0, -1.0, np.nan, np.inf, 1e-310])
    def test_degenerate_integral_rejected(self, phi_hat0):
        # 1/C = 2 phi_hat0 here; 1e-310 is positive but C would overflow
        tables = SimpleNamespace(phi_hat0=phi_hat0, phi_hat_remainder=lambda v: 0.0)
        with pytest.raises(DegenerateMollifierError):
            normalization_constant(tables)

    def test_narrow_profile_also_valid(self, narrow_mollifier, narrow_norm):
        assert narrow_norm > 0
        assert np.all(narrow_mollifier.phi_values >= 0)
        assert narrow_mollifier.phi_hat(1.0) == 0.0
