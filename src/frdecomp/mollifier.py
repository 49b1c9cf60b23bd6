"""Construction of the weight seed.

Everything in the package is driven by a single nonnegative function phi
whose Fourier transform is smooth, symmetric and supported in [-1, 1].  It
is built from a bump profile khat supported in [-1/2, 1/2]:

    kappa(x) = int khat(s) e^{isx} ds,      phi = kappa^2,
    phi_hat  = khat * khat  (autoconvolution, supported in [-1, 1]),

with the Fourier convention phi_hat(k) = (2 pi)^{-1} int phi(x) e^{-ikx} dx.
phi is tabulated on a uniform grid with cubic interpolation (it is needed at
arbitrary arguments inside periodized sums); phi_hat on a finer grid with
quintic interpolation (its values become Chebyshev filter coefficients and
enter oracle comparisons at the 1e-9 level).

The normalization constant C makes the scale integral reproduce 1/lambda:

    1/lambda = C int_0^inf t^{2/gamma} phi(lambda^{gamma/2} t) dt/t,
    1/C      = int_0^inf t^{2/gamma - 1} phi(t) dt.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.integrate import simpson, trapezoid
from scipy.interpolate import CubicSpline, make_interp_spline

from .quadrature import gauss_legendre

DEFAULT_GRID_STEP = 1e-3
DEFAULT_X_MAX = 100.0
PHI_HAT_GRID_STEP = 1e-4

_KAPPA_QUAD_NODES = 256
_CONV_QUAD_NODES = 96
_DECAY_ORDERS = (1, 2, 3, 4)


class ProfileError(ValueError):
    """The bump profile violates its contract (sign, symmetry, support)."""


class DegenerateMollifierError(ValueError):
    """The normalization integral has no usable positive value."""


@dataclass(frozen=True)
class BumpProfile:
    """A smooth, symmetric, nonnegative bump supported in [-half_width, half_width]."""

    half_width: float
    eval: Callable[[np.ndarray], np.ndarray]

    def validate(self, probe_points=4001, smoothness_bound=1e12):
        s = np.linspace(-self.half_width, self.half_width, probe_points)
        v = np.asarray(self.eval(s), dtype=float)
        if not np.all(np.isfinite(v)):
            raise ProfileError("profile evaluates to non-finite values")
        if np.any(v < 0):
            raise ProfileError("profile must be nonnegative")
        vmax = v.max()
        if vmax <= 0:
            raise ProfileError("profile is identically zero")
        if np.max(np.abs(v - v[::-1])) > 1e-12 * vmax:
            raise ProfileError("profile must be symmetric")
        outside = np.array([-2.0, -1.0001, 1.0001, 2.0]) * self.half_width
        if np.any(np.asarray(self.eval(outside), dtype=float) != 0.0):
            raise ProfileError(f"profile must vanish for |s| >= {self.half_width}")
        # Interior smoothness: 4th-order differences stay bounded.
        h = s[1] - s[0]
        d4 = np.diff(v, n=4) / h**4
        if not np.all(np.isfinite(d4)) or np.max(np.abs(d4)) > smoothness_bound * vmax:
            raise ProfileError("profile fails the finite-difference smoothness check")


def build_default_profile():
    """The standard flat bump khat(s) = exp(-1/(1/4 - s^2)) for |s| < 1/2."""

    def eval_bump(s):
        s = np.asarray(s, dtype=float)
        out = np.zeros_like(s)
        inside = np.abs(s) < 0.5
        si = s[inside]
        out[inside] = np.exp(-1.0 / (0.25 - si * si))
        return out

    return BumpProfile(half_width=0.5, eval=eval_bump)


@dataclass(frozen=True, eq=False)
class Mollifier:
    """Tabulated phi / phi_hat pair with interpolation and tail certificates."""

    profile: BumpProfile
    grid_step: float
    x_max: float
    x_grid: np.ndarray
    phi_values: np.ndarray
    k_grid: np.ndarray
    phi_hat_values: np.ndarray
    decay_sups: dict = field(repr=False)
    _phi_spline: object = field(repr=False)
    _phi_hat_spline: object = field(repr=False)

    @property
    def phi_max(self):
        # kappa is maximal at 0 because khat >= 0, hence so is phi.
        return float(self.phi_values[0])

    @property
    def phi_hat0(self):
        return float(self.phi_hat_values[0])

    def phi(self, x):
        """phi evaluated at arbitrary arguments; identically 0 beyond x_max."""
        x = np.abs(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        inside = x <= self.x_max
        if np.any(inside):
            # phi = kappa^2 >= 0; clip spline undershoot near the double zeros.
            out[inside] = np.clip(self._phi_spline(x[inside]), 0.0, None)
        return out if out.ndim else float(out)

    def phi_hat(self, k):
        """phi_hat evaluated by mirroring |k|; literal 0 outside [-1, 1]."""
        k = np.abs(np.asarray(k, dtype=float))
        out = np.zeros_like(k)
        inside = k <= 1.0
        if np.any(inside):
            out[inside] = np.clip(self._phi_hat_spline(k[inside]), 0.0, None)
        return out if out.ndim else float(out)

    def weight_tail_integral(self, x_lo, power=1.0):
        """Upper estimate of int_{x_lo}^inf u^power phi(u) du.

        Table part by trapezoid on [x_lo, x_max]; beyond x_max the analytic
        remainder from (1+u^2)^4 phi(u) <= K_4.  Drives every truncation
        certificate (normalization tail, identity tails, scale planning).
        """
        p = float(power)
        if p >= 7.0:
            raise ValueError("tail bound requires power < 7")
        k4 = self.decay_sups[4]
        analytic = k4 * self.x_max ** (p - 7.0) / (7.0 - p)
        if x_lo >= self.x_max:
            # Crude but safe: decrease is monotone in x_lo for the bound used.
            return k4 * x_lo ** (p - 7.0) / (7.0 - p)
        i0 = int(np.searchsorted(self.x_grid, x_lo))
        xs = self.x_grid[i0:]
        ys = xs**p * self.phi_values[i0:]
        table = float(trapezoid(ys, xs))
        if i0 > 0:
            # Partial cell between x_lo and the first grid node.
            xa, xb = x_lo, self.x_grid[i0]
            ya = xa**p * self.phi(xa)
            table += 0.5 * (ya + ys[0] if len(ys) else ya) * (xb - xa)
        return table + analytic


def _tabulate_kappa(profile, x_grid):
    s, w = gauss_legendre(0.0, profile.half_width, _KAPPA_QUAD_NODES)
    wk = w * np.asarray(profile.eval(s), dtype=float)
    out = np.empty_like(x_grid)
    chunk = 8192
    for i in range(0, len(x_grid), chunk):
        xs = x_grid[i:i + chunk]
        out[i:i + chunk] = 2.0 * (np.cos(np.outer(xs, s)) @ wk)
    return out


def _tabulate_autoconvolution(profile, k_grid):
    hw = profile.half_width
    g, w = gauss_legendre(-1.0, 1.0, _CONV_QUAD_NODES)
    lo = k_grid - hw
    hi = np.full_like(k_grid, hw)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    ym = mid[:, None] + half[:, None] * g[None, :]
    vals = np.asarray(profile.eval(ym), dtype=float) \
        * np.asarray(profile.eval(k_grid[:, None] - ym), dtype=float)
    return half * (vals @ w)


def build_mollifier(profile=None, grid_step=DEFAULT_GRID_STEP, x_max=DEFAULT_X_MAX):
    """Tabulate phi = kappa^2 and phi_hat = khat * khat from a bump profile."""
    if profile is None:
        profile = build_default_profile()
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    if x_max < 50.0:
        raise ValueError("x_max must be at least 50 (tail certificates)")
    profile.validate()

    x_grid = np.arange(0.0, x_max + 0.5 * grid_step, grid_step)
    kappa = _tabulate_kappa(profile, x_grid)
    phi = kappa * kappa

    k_grid = np.arange(0.0, 1.0 + 0.5 * PHI_HAT_GRID_STEP, PHI_HAT_GRID_STEP)
    k_grid[-1] = 1.0
    phi_hat = _tabulate_autoconvolution(profile, k_grid)
    phi_hat[-1] = 0.0  # support edge, exact

    decay = {p: float(np.max((1.0 + x_grid**2) ** p * phi)) for p in _DECAY_ORDERS}

    return Mollifier(
        profile=profile,
        grid_step=grid_step,
        x_max=float(x_max),
        x_grid=x_grid,
        phi_values=phi,
        k_grid=k_grid,
        phi_hat_values=phi_hat,
        decay_sups=decay,
        _phi_spline=CubicSpline(x_grid, phi),
        _phi_hat_spline=make_interp_spline(k_grid, phi_hat, k=5),
    )


@dataclass(frozen=True)
class Normalization:
    """The constant C with 1/C = int_0^inf t^{2/gamma} phi(t) dt/t."""

    gamma: float
    constant: float
    integral: float
    tail_bound_rel: float


def normalization_constant(m, gamma=1.0, positivity_floor=1e-300):
    """Compute the normalization for a given propagation exponent gamma."""
    if gamma <= 0.25:
        raise ValueError("gamma must exceed 1/4 (tail certificate order)")
    a = 2.0 / gamma - 1.0  # integrand is t^a phi(t)
    x = m.x_grid
    h = m.grid_step
    # [0, h]: phi is even and smooth, phi(t) = phi(0) + O(t^2).
    head = m.phi_max * h ** (a + 1.0) / (a + 1.0)
    body = float(simpson(x[1:] ** a * m.phi_values[1:], x=x[1:]))
    tail = m.weight_tail_integral(m.x_max, power=a)
    integral = head + body
    if not np.isfinite(integral) or integral <= positivity_floor:
        raise DegenerateMollifierError(
            f"normalization integral {integral!r} below positivity floor")
    return Normalization(
        gamma=float(gamma),
        constant=1.0 / integral,
        integral=integral,
        tail_bound_rel=tail / integral,
    )


@lru_cache(maxsize=4)
def default_mollifier(grid_step=DEFAULT_GRID_STEP, x_max=DEFAULT_X_MAX):
    """Shared default-profile mollifier (construction is quadrature-heavy)."""
    return build_mollifier(build_default_profile(), grid_step, x_max)
