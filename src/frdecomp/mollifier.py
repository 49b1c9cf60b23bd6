"""Construction of the weight seed.

Everything in the package is driven by a single nonnegative function phi
whose Fourier transform is smooth, symmetric and supported in [-1, 1].  It
is built from a bump profile khat supported in [-1/2, 1/2]:

    kappa(x) = int khat(s) e^{isx} ds,      phi = kappa^2,
    phi_hat  = khat * khat  (autoconvolution, supported in [-1, 1]),

with the Fourier convention phi_hat(k) = (2 pi)^{-1} int phi(x) e^{-ikx} dx.
kappa and kappa' are tabulated by one Gauss-Legendre rule in s on one
fixed uniform grid, step GRID_STEP = 1e-3 up to X_MAX = 100: every
certificate built on the tables is checked on that grid.  With x = X + y
split into a coarse grid X and a fine offset y, and
cos s(X+y) = cos sX cos sy - sin sX sin sy, each table is two matrix
products.  phi_hat is tabulated on a finer uniform grid in k by the
trapezoid rule on that same grid, one discrete convolution of the sampled
khat (spectrally accurate for the smooth compactly supported bump).  phi is
interpolated between the grid nodes by the cubic Hermite through phi and
phi' = 2 kappa kappa' (it is needed at arbitrary arguments inside
periodized sums); phi_hat by the local quintic through the six nearest
nodes (its values become Chebyshev filter coefficients and enter oracle
comparisons at the 1e-9 level).

The remainder R(v) = int_v^1 (phi_hat(u) - phi_hat(0)) u^{-2} du, 0 <= v <= 1,
is tabulated on the phi_hat grid (_remainder_cells); it turns every scale
integral of the discrete weights into a closed form
(weights.DiscreteWeightFamily.interval_coefficients); the first moment
F(x) = int_0^x u phi(u) du, exact on the phi cells, does so for the
continuous weights.  F also gives the one phi tail that every truncation
certificate uses (phi_tail_moment): int_x^inf u phi(u) du is at most
F(x_max) - F(x) plus the analytic remainder beyond x_max from
(1 + u^2)^4 phi(u) <= K_4.

The normalization constant C makes the scale integral reproduce 1/lambda:

    1/lambda = C int_0^inf t^2 phi(sqrt(lambda) t) dt/t,
    1/C      = int_0^inf t phi(t) dt.

1/C is the finite part of the Fourier pairing of |t|/2 with phi_hat,
1/C = 2 phi_hat(0) - 2 R(0), which truncates nothing since phi_hat has
compact support.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .quadrature import gauss_legendre

# The one phi grid (module docstring), on which the K_4 tail remainder, the
# phi_hat oracle and the identity residuals are checked.
GRID_STEP = 1e-3
X_MAX = 100.0
PHI_HAT_GRID_STEP = 1e-4

_KAPPA_QUAD_NODES = 256
_REMAINDER_CELL_NODES = 8
_DECAY_ORDERS = (1, 2, 3, 4)

# Row j holds the coefficients of u^0..u^5 in the Lagrange basis polynomial of
# the node at offset j - 2 among the offsets -2..3 (the six nodes around the
# cell [0, 1]); numerators are integers, so the row of offset 0 is exactly e_0.
_QUINTIC_BASIS = np.array([
    [0.0, -6.0, 5.0, 5.0, -5.0, 1.0],
    [0.0, -12.0, 16.0, -1.0, -4.0, 1.0],
    [-12.0, 4.0, 15.0, -5.0, -3.0, 1.0],
    [0.0, 12.0, 8.0, -7.0, -2.0, 1.0],
    [0.0, 6.0, 1.0, -7.0, -1.0, 1.0],
    [0.0, 4.0, 0.0, -5.0, 0.0, 1.0],
]) / np.array([-120.0, 24.0, -12.0, 12.0, -24.0, 120.0])[:, None]


class ProfileError(ValueError):
    """The bump profile violates its contract (sign, symmetry, support)."""


class DegenerateMollifierError(ValueError):
    """The normalization integral has no usable positive value."""


@dataclass(frozen=True)
class BumpProfile:
    """A smooth, symmetric, nonnegative bump supported in [-half_width, half_width]."""

    half_width: float
    eval: Callable[[np.ndarray], np.ndarray]

    def validate(self):
        """Raise ProfileError unless the profile, probed at 4001 points, is a
        smooth, symmetric, nonnegative bump on [-half_width, half_width]."""
        if not 0.0 < self.half_width <= 0.5:
            raise ProfileError(f"half_width={self.half_width} must lie in (0, 1/2]: "
                               "phi_hat = khat * khat is tabulated on [-1, 1]")
        s = np.linspace(-self.half_width, self.half_width, 4001)
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
        if not np.all(np.isfinite(d4)) or np.max(np.abs(d4)) > 1e12 * vmax:
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
    """Tabulated phi / phi_hat pair, the remainder table R of phi_hat and the
    first moment F of phi, with interpolation and the one tail bound of phi.
    Every table is on the module's one grid: grid_step and x_max are
    GRID_STEP and X_MAX."""

    grid_step = GRID_STEP
    x_max = X_MAX
    profile: BumpProfile
    phi_values: np.ndarray
    k_grid: np.ndarray
    phi_hat_values: np.ndarray
    decay_sups: dict = field(repr=False)
    _phi_cells: np.ndarray = field(repr=False)
    _phi_hat_cells: np.ndarray = field(repr=False)
    _remainder_cells: np.ndarray = field(repr=False)

    @property
    def x_grid(self):
        """The phi nodes, the last one x_max; computed, as no evaluation needs it."""
        return np.append(np.arange(len(self.phi_values) - 1) * self.grid_step, self.x_max)

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
            # phi = kappa^2 >= 0; clip interpolant undershoot near the double zeros.
            out[inside] = np.clip(
                _eval_cells(self._phi_cells, self.grid_step, x[inside]), 0.0, None)
        return out if out.ndim else float(out)

    def phi_hat(self, k):
        """phi_hat evaluated by mirroring |k|; literal 0 outside [-1, 1]."""
        k = np.abs(np.asarray(k, dtype=float))
        out = np.zeros_like(k)
        inside = k <= 1.0
        if np.any(inside):
            out[inside] = np.clip(
                _eval_cells(self._phi_hat_cells, PHI_HAT_GRID_STEP, k[inside]), 0.0, None)
        return out if out.ndim else float(out)

    def phi_hat_remainder(self, v):
        """R(v) = int_v^1 (phi_hat(u) - phi_hat(0)) u^{-2} du for v in [0, 1]."""
        out = _eval_cells(self._remainder_cells, PHI_HAT_GRID_STEP, np.asarray(v, dtype=float))
        return out if np.ndim(out) else float(out)

    @cached_property
    def _moment_nodes(self):
        """F(i step) = int_0^{i step} u phi(u) du at the phi nodes: the whole
        cells' _cell_moment cumulated from 0.  Built on first use."""
        c = self._phi_cells
        whole = _cell_moment(c, np.arange(c.shape[1]), 1.0)
        return np.append(0.0, np.cumsum(self.grid_step**2 * whole))

    def phi_first_moment(self, x):
        """F(x) = int_0^|x| u phi(u) du, exact on the phi cells: the node table
        plus the partial cell; F(x_max) beyond x_max, where phi is 0."""
        x = np.abs(np.asarray(x, dtype=float))
        out = np.full(x.shape, self._moment_top)
        inside = x < self.x_max
        out[inside] = self._moment_inside(x[inside])
        return out if out.ndim else float(out)

    @cached_property
    def _moment_top(self):
        """F(x_max), by the same arithmetic as F inside the table."""
        return float(self._moment_inside(np.array([self.x_max]))[0])

    def _moment_inside(self, x):
        """F at 0 <= x <= x_max: the node table plus the partial cell."""
        u = x / self.grid_step
        i = np.minimum(u.astype(np.intp), self._phi_cells.shape[1] - 1)
        s = u - i
        partial = _cell_moment(self._phi_cells[:, i], i, s)
        return self._moment_nodes[i] + self.grid_step**2 * partial

    def phi_tail_moment(self, x):
        """Upper bound on int_|x|^inf u phi(u) du, vectorized over x: every
        truncation certificate (identity tails, scale planning) is built from
        it.  max(F(x_max) - F(x), 0), exact on the phi cells, plus the
        remainder K_4 max(|x|, x_max)^-6 / 6 from (1 + u^2)^4 phi(u) <= K_4.
        """
        x = np.abs(np.asarray(x, dtype=float))
        out = (np.maximum(self._moment_top - self.phi_first_moment(x), 0.0)
               + self.decay_sups[4] * np.maximum(x, self.x_max) ** -6.0 / 6.0)
        return out if np.ndim(out) else float(out)


def _tabulate_kappa(profile, x_grid):
    """kappa and kappa' on the uniform grid x_grid (first node 0).

    kappa(x) = 2 sum_q w_q khat(s_q) cos(s_q x) by Gauss-Legendre on
    [0, half_width].  Node i = a f + b is X_a + y_b with the coarse grid
    X = x_grid[::f] and the fine offsets y = x_grid[:f], f ~ sqrt(len), and
    cos s(X+y) = cos sX cos sy - sin sX sin sy, sin s(X+y) = sin sX cos sy +
    cos sX sin sy turn both tables into two GEMMs each.
    """
    s, w = gauss_legendre(0.0, profile.half_width, _KAPPA_QUAD_NODES)
    wk = 2.0 * w * np.asarray(profile.eval(s), dtype=float)
    n = len(x_grid)
    f = math.isqrt(n - 1) + 1  # f * f >= n
    sx, sy = np.outer(x_grid[::f], s), np.outer(s, x_grid[:f])
    cos_x, sin_x, cos_y, sin_y = np.cos(sx), np.sin(sx), np.cos(sy), np.sin(sy)
    kappa = (cos_x * wk) @ cos_y - (sin_x * wk) @ sin_y
    dkappa = -((sin_x * (wk * s)) @ cos_y + (cos_x * (wk * s)) @ sin_y)
    return kappa.ravel()[:n], dkappa.ravel()[:n]


def _tabulate_autoconvolution(profile):
    """(khat * khat)(k) at k = i PHI_HAT_GRID_STEP, 0 <= i <= 1/PHI_HAT_GRID_STEP.

    The trapezoid rule on the phi_hat grid itself: khat sampled at
    s = j PHI_HAT_GRID_STEP over [-1/2, 1/2], its support, and one discrete
    convolution.  The integrand khat(s) khat(k - s) is smooth and vanishes
    with all derivatives at the ends, so the rule is spectrally accurate,
    and its error is a smooth function of k.
    """
    half = round(0.5 / PHI_HAT_GRID_STEP)
    n = 2 * half + 1
    kh = np.asarray(profile.eval((np.arange(n) - half) * PHI_HAT_GRID_STEP), dtype=float)
    return PHI_HAT_GRID_STEP * np.convolve(kh, kh)[n - 1:2 * n - 1]


def _hermite_cells(values, slopes, step):
    """Cells of the cubic Hermite through values with derivatives slopes on a
    uniform grid of step step (layout of _eval_cells)."""
    y0, dy = values[:-1], np.diff(values)
    d0, d1 = step * slopes[:-1], step * slopes[1:]
    return np.array([y0, d0, 3.0 * dy - 2.0 * d0 - d1, d0 + d1 - 2.0 * dy])


def _quintic_cells(values):
    """Cells of the local quintic through the six nodes i-2..i+3 around cell i
    (layout of _eval_cells).  values tabulate on [0, 1] an even function that
    is smooth and vanishes beyond 1, so the table is mirrored across 0 and
    continued by zeros past its last node."""
    padded = np.concatenate([values[2:0:-1], values, np.zeros(2)])
    stencils = np.lib.stride_tricks.sliding_window_view(padded, 6)[:len(values) - 1]
    return _QUINTIC_BASIS.T @ stencils.T


def _remainder_cells(k_grid, phi_hat, phi_hat_cells):
    """Cells of R(v) = int_v^1 (phi_hat(u) - phi_hat(0)) u^{-2} du on the
    phi_hat grid k_grid (layout of _eval_cells).

    Each cell's integral is one Gauss-Legendre rule applied to its quintic
    with phi_hat(0) taken off the constant term, so near 0 the difference
    comes from the quintic's own coefficients and nothing cancels.  The
    cells are cumulated from 1 down and joined by the cubic Hermite through
    R and R'.  phi_hat is even, so the linear coefficient of cell 0 is
    roundoff: it is dropped (it would add a log singularity at 0), and
    R'(0) is that cell's u^2 coefficient.
    """
    step = PHI_HAT_GRID_STEP
    diff = phi_hat_cells.copy()
    diff[0] -= phi_hat[0]
    diff[1, 0] = 0.0
    s, w = gauss_legendre(0.0, 1.0, _REMAINDER_CELL_NODES)
    u = (np.arange(diff.shape[1]) + s[:, None]) * step
    per_cell = step * (w @ ((np.vander(s, len(diff), increasing=True) @ diff) / u**2))
    remainder = np.append(np.cumsum(per_cell[::-1])[::-1], 0.0)
    integrand = np.empty_like(phi_hat)
    integrand[0] = diff[2, 0] / step**2
    integrand[1:] = (phi_hat[1:] - phi_hat[0]) / k_grid[1:] ** 2
    return _hermite_cells(remainder, -integrand, step)


def _cell_moment(c, i, s):
    """step^-2 int_{i step}^{(i + s) step} u phi(u) du, where c holds the phi
    cells i (layout of _eval_cells): there u phi(u) du = step^2 (i + r)
    sum_j c_j r^j dr, so the integral is sum_j c_j s^{j+1} (i/(j+1) + s/(j+2))."""
    out = 0.0
    for j in range(len(c) - 1, -1, -1):
        out = out * s + c[j] * (i / (j + 1) + s / (j + 2))
    return out * s


def _eval_cells(cells, step, x):
    """Piecewise polynomial at x >= 0: cell i covers [i step, (i+1) step] and
    holds sum_j cells[j, i] u^j in u = x/step - i (Horner's rule)."""
    u = x / step
    i = np.minimum(u.astype(np.intp), cells.shape[1] - 1)
    u -= i
    out = cells[-1, i]
    for c in cells[-2::-1]:
        out = out * u + c[i]
    return out


def build_mollifier(profile=None):
    """Tabulate phi = kappa^2 and phi_hat = khat * khat from a bump profile."""
    if profile is None:
        profile = build_default_profile()
    profile.validate()

    x_grid = np.arange(round(X_MAX / GRID_STEP) + 1) * GRID_STEP
    x_grid[-1] = X_MAX  # the last cell ends at X_MAX
    kappa, dkappa = _tabulate_kappa(profile, x_grid)
    phi = kappa * kappa

    k_grid = np.arange(0.0, 1.0 + 0.5 * PHI_HAT_GRID_STEP, PHI_HAT_GRID_STEP)
    k_grid[-1] = 1.0
    phi_hat = _tabulate_autoconvolution(profile)
    phi_hat[-1] = 0.0  # support edge, exact

    phi_hat_cells = _quintic_cells(phi_hat)
    decay = {p: float(np.max((1.0 + x_grid**2) ** p * phi)) for p in _DECAY_ORDERS}

    return Mollifier(
        profile=profile,
        phi_values=phi,
        k_grid=k_grid,
        phi_hat_values=phi_hat,
        decay_sups=decay,
        _phi_cells=_hermite_cells(phi, 2.0 * kappa * dkappa, GRID_STEP),
        _phi_hat_cells=phi_hat_cells,
        _remainder_cells=_remainder_cells(k_grid, phi_hat, phi_hat_cells),
    )


def normalization_constant(m):
    """C = 1/(2 phi_hat(0) - 2 R(0)) from the phi_hat tables, a float.

    Raises DegenerateMollifierError unless 1/C is finite and positive and C
    is finite.
    """
    integral = 2.0 * m.phi_hat0 - 2.0 * m.phi_hat_remainder(0.0)
    if not 0.0 < integral < np.inf or 1.0 / integral == np.inf:
        raise DegenerateMollifierError(
            f"normalization integral {integral!r} is not finite and positive, "
            "or too small to invert")
    return 1.0 / integral


@lru_cache(maxsize=1)
def default_mollifier():
    """Shared default-profile mollifier (construction is quadrature-heavy)."""
    return build_mollifier()
