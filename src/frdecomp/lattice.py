"""Finite-range kernels for constant-coefficient operators on d-dimensional tori.

The operator is diagonalized by the discrete Fourier transform: its symbol is

    a*(xi) + m^2,   a*(xi) = sum_ij a_ij (1 - e^{i xi_i}) (1 - e^{-i xi_j}),

on the dual grid xi = 2 pi k / N.  Scale kernels are inverse transforms of
the multiplier C (3/B) t^2 W*_t((3/B)(a*(xi) + m^2)); because W*_t is a
polynomial of degree floor(t) in the operator and the operator couples only
infinity-distance-1 neighbours, the kernel vanishes exactly beyond
infinity-distance floor(t) whenever N > 2t (no wrap-around).

lattice_kernel is the one place a kernel is built: one folded Chebyshev
series, evaluated once on the symbol, whose roundoff bound certifies it,
and one inverse transform.  The estimate checks (decay_fit,
discrete_continuum_gap) take differences of those kernels in real space
(axis_differences) and transform nothing again.

The continuum comparison kernel is the same construction with the continuous
weight family (weights.ContinuousWeightFamily) and symbol
a(xi) = sum a_ij xi_i xi_j, normalized with (2 pi)^{-d} to match the lattice
convention N^{-d} sum_xi.
"""

from dataclasses import dataclass

import numpy as np

from .quadrature import gauss_legendre
from .weights import (ContinuousWeightFamily, Reconstruction, chebyshev_coefficients,
                      check_family, clenshaw_folded, default_scale_plan,
                      mode_variances, plan_tail_bound, series_roundoff, zero_modes)

DEFAULT_XI_CUTOFF = 40.0
# The window every LatticeSpec lies in: the eigenvalues of a in
# [B_MINUS2, B_PLUS2] and m^2 in [0, M_PLUS2].
B_MINUS2, B_PLUS2, M_PLUS2 = 1e-6, 1e6, 64.0


class LatticeError(ValueError):
    pass


class WrapAroundError(LatticeError):
    """t is too large for the torus: range floor(t) reaches the far side."""


def _is_power_of_two(n):
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class LatticeSpec:
    """Constant-coefficient operator a* + m^2 on the torus (Z/N)^d."""

    d: int
    a: np.ndarray
    m2: float
    N: int

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise LatticeError("dimension must be 1, 2 or 3")
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        if a.shape != (self.d, self.d):
            raise LatticeError(f"coefficient matrix must be {self.d}x{self.d}")
        if not np.allclose(a, a.T, rtol=0, atol=1e-13 * max(1.0, np.abs(a).max())):
            raise LatticeError("coefficient matrix must be symmetric")
        eigs = np.linalg.eigvalsh(a)
        if eigs.min() <= 0:
            raise LatticeError("coefficient matrix must be positive definite")
        if eigs.min() < B_MINUS2 or eigs.max() > B_PLUS2:
            raise LatticeError(f"eigenvalues {eigs} outside [{B_MINUS2}, {B_PLUS2}]")
        if not 0.0 <= self.m2 <= M_PLUS2:
            raise LatticeError(f"m2={self.m2} outside [0, {M_PLUS2}]")
        if not (_is_power_of_two(self.N) and self.N >= 8):
            raise LatticeError("N must be a power of two >= 8")
        object.__setattr__(self, "a", a)

    @property
    def shape(self):
        return (self.N,) * self.d

    @property
    def size(self):
        return self.N**self.d


@dataclass(frozen=True)
class SymbolTable:
    """a*(xi) + m^2 tabulated on the dual grid, with the norm bound B: the
    torus operator that every kernel, variance and reconstruction takes."""

    spec: LatticeSpec
    values: np.ndarray
    B: float

    @property
    def is_singular(self):
        """m^2 == 0: the constants are the operator's zero mode."""
        return self.spec.m2 == 0.0

    def spectral_gap(self):
        """Smallest symbol value off the zero modes (weights.zero_modes): the
        zero mode of a massless torus is deflated, so it sets no scale."""
        return float(np.min(self.values[~zero_modes(self.values, self.is_singular)]))


def build_symbol_table(spec):
    """Tabulate the symbol on the dual grid xi_k = 2 pi k / N, k in FFT order.

    k is taken signed (np.fft.fftfreq), so xi(-k) = -xi(k) exactly and the
    table is even in k bit for bit: cos is even and sin is odd.  k = N/2 is
    its own negative, so its sine is set to the exact sin(pi) = 0.
    """
    xi = 2.0 * np.pi * np.fft.fftfreq(spec.N)
    p = 1.0 - np.cos(xi)     # Re(1 - e^{i xi})
    q = -np.sin(xi)          # Im(1 - e^{i xi})
    q[spec.N // 2] = 0.0
    vals = np.zeros(spec.shape)
    for i in range(spec.d):
        for j in range(spec.d):
            aij = spec.a[i, j]
            if aij == 0.0:
                continue
            shape_i = [1] * spec.d
            shape_i[i] = spec.N
            shape_j = [1] * spec.d
            shape_j[j] = spec.N
            vals += aij * (p.reshape(shape_i) * p.reshape(shape_j)
                           + q.reshape(shape_i) * q.reshape(shape_j))
    vals += spec.m2
    if vals.flat[0] > spec.m2 + 1e-12 * (1.0 + abs(spec.m2)):
        raise LatticeError("zero mode of the symbol must equal m^2")
    return SymbolTable(spec=spec, values=vals, B=float(vals.max()))


def torus_linf_distance(N, d):
    """Infinity distance to the origin for every torus site."""
    axis = np.minimum(np.arange(N), N - np.arange(N))
    out = np.zeros((N,) * d)
    for i in range(d):
        shape = [1] * d
        shape[i] = N
        out = np.maximum(out, axis.reshape(shape))
    return out


@dataclass
class LatticeKernel:
    """One scale kernel phi*_t on the torus (translation invariant), with the
    extremes of its multiplier and roundoff_bound, the series_roundoff of the
    multiplier's series, which bounds -multiplier_min."""

    t: float
    values: np.ndarray
    range_bound: int
    max_out_of_range: float
    imag_residue: float
    multiplier_min: float
    multiplier_max: float
    roundoff_bound: float

    @property
    def sup(self):
        return float(np.max(np.abs(self.values)))


def check_wraparound(spec, t):
    """Refuse a t whose range floor(t) reaches the far side of the torus:
    the exact finite range needs N > 2t."""
    if 2.0 * t >= spec.N:
        raise WrapAroundError(
            f"t={t} needs N > {2 * t} for an uncontaminated range check (N={spec.N})")


def lattice_kernel(table, family, t):
    """Inverse-transform the multiplier C (3/B) t^2 W*_t((3/B) symbol).

    The multiplier is one folded series, t^2 C (3/B) chebyshev_coefficients,
    evaluated by clenshaw_folded at theta = 1 - (3/(2B)) symbol;
    roundoff_bound is series_roundoff of that same series.  family must be a
    DiscreteWeightFamily built with B = table.B, and t must pass
    check_wraparound.
    """
    check_family(table, family)
    spec = table.spec
    check_wraparound(spec, t)
    series = t**2 * family.C * family.arg_scale * chebyshev_coefficients(
        family.mollifier, t)
    mult = clenshaw_folded(series, 1.0 - 0.5 * family.arg_scale * table.values)
    kernel_c = np.fft.ifftn(mult)
    kernel = kernel_c.real
    imag = float(np.max(np.abs(kernel_c.imag)))
    rng = int(np.floor(t))
    outside = torus_linf_distance(spec.N, spec.d) > rng
    oor = float(np.max(np.abs(kernel[outside]))) if outside.any() else 0.0
    return LatticeKernel(
        t=float(t), values=kernel, range_bound=rng, max_out_of_range=oor,
        imag_residue=imag, multiplier_min=float(mult.min()),
        multiplier_max=float(mult.max()), roundoff_bound=series_roundoff(series))


# ---------------------------------------------------------------------------
# real-space oracle and reconstruction

def stencil_coefficients(spec):
    """The operator's real-space stencil: {offset: c} with (L u)(x) = sum c u(x + offset).

    Independent of the Fourier route: L = sum_ij a_ij grad_i^T grad_j + m^2
    with forward differences and periodic wrap, so
    (L u)(x) = sum_ij a_ij [u(x) - u(x - e_i) - u(x + e_j) + u(x - e_i + e_j)].
    The legs are summed into one coefficient per offset, so L commutes
    exactly with lattice shifts.
    """
    unit = np.eye(spec.d, dtype=int)
    stencil = {(0,) * spec.d: float(spec.m2)}
    for i in range(spec.d):
        for j in range(spec.d):
            aij = spec.a[i, j]
            if aij == 0.0:
                continue
            for offset, v in ((0 * unit[i], aij), (-unit[i], -aij),
                              (unit[j], -aij), (unit[j] - unit[i], aij)):
                key = tuple(offset)
                stencil[key] = stencil.get(key, 0.0) + v
    return stencil


def green_column(spec):
    """Column x -> G(x, 0) of the torus Green function, as a torus array.

    L commutes with lattice shifts, so G(x, y) = column[x - y mod N] and this
    one column settles every entry.  L is the convolution with its stencil
    reflected onto the torus, c at -offset, so the fftn of that array is L's
    spectrum and the inverse fftn of its reciprocal is the column of L^{-1}:
    the real-space stencil diagonalized, never the closed-form symbol it
    checks.  At m^2 = 0 the constants span the kernel of L; dropping the zero
    mode gives the column of the pseudo-inverse, which has mean zero.
    """
    reflected = np.zeros(spec.shape)
    for offset, c in stencil_coefficients(spec).items():
        reflected[tuple(-o % spec.N for o in offset)] += c
    spectrum = np.fft.fftn(reflected).real   # L is symmetric
    if spec.m2 <= 0.0:
        spectrum.flat[0] = np.inf            # the zero mode: 1 / inf = 0
    return np.fft.ifftn(1.0 / spectrum).real


def reconstruct_torus_green(table, family, plan=None):
    """Sum the plan's scale series and compare to the real-space oracle;
    plan defaults to default_scale_plan(family, table.spectral_gap()).

    The plan's total_series is evaluated on the symbol by mode_variances
    (with its zero-mode deflation at m^2 = 0) and transformed back.  The
    reconstructed Green matrix is circulant by construction and the oracle
    commutes with shifts, so the largest entrywise error is the largest
    error over the one column green_column(table.spec).  tail_bound is
    plan_tail_bound over the symbol, as on a graph.
    """
    spec = table.spec
    if plan is None:
        plan = default_scale_plan(family, table.spectral_gap())
    check_family(table, family)
    v, = mode_variances(table.values, family, [plan.total_series(family)],
                        table.is_singular)
    kernel = np.fft.ifftn(v).real
    oracle = green_column(spec)
    max_rel = float(np.max(np.abs(kernel - oracle)) / np.max(np.abs(oracle)))
    return Reconstruction(
        values=kernel, oracle=oracle, max_rel_error=max_rel, plan=plan,
        tail_bound=plan_tail_bound(family, plan, table.values, table.is_singular),
        deflated=table.is_singular)


# ---------------------------------------------------------------------------
# continuum comparison kernels

def _continuum_radial(d, r, weight_vals, rho, w, order=0):
    """Angular-reduced Fourier integral for radial multipliers.

    Vectorized over an array of radii r.  order 0: the kernel; order 1: its
    radial derivative.  Conventions match (2 pi)^{-d} int W(a(xi) + m^2)
    e^{i x.xi} dxi for isotropic arguments.
    """
    from scipy.special import j0, j1

    r = np.atleast_1d(np.asarray(r, dtype=float))
    out = np.empty_like(r)
    chunk = max(1, int(2**22 / max(len(rho), 1)))
    for i in range(0, len(r), chunk):
        z = np.outer(r[i:i + chunk], rho)
        if d == 1:
            if order == 0:
                out[i:i + chunk] = (1.0 / np.pi) * (np.cos(z) @ (w * weight_vals))
            else:
                out[i:i + chunk] = -(1.0 / np.pi) * (np.sin(z) @ (w * weight_vals * rho))
        elif d == 2:
            if order == 0:
                out[i:i + chunk] = (1.0 / (2.0 * np.pi)) * (j0(z) @ (w * weight_vals * rho))
            else:
                out[i:i + chunk] = -(1.0 / (2.0 * np.pi)) * (j1(z) @ (w * weight_vals * rho**2))
        elif d == 3:
            if order == 0:
                sinc = np.where(z == 0.0, 1.0, np.sin(z) / np.where(z == 0.0, 1.0, z))
                out[i:i + chunk] = (1.0 / (2.0 * np.pi**2)) * (sinc @ (w * weight_vals * rho**2))
            else:
                # d/dr sinc(rho r) = -rho j_1(rho r) with the spherical j_1
                zz = np.where(z == 0.0, 1.0, z)
                sph_j1 = np.where(z == 0.0, 0.0, np.sin(z) / zz**2 - np.cos(z) / zz)
                out[i:i + chunk] = -(1.0 / (2.0 * np.pi**2)) * (sph_j1 @ (w * weight_vals * rho**3))
        else:
            raise LatticeError("continuum kernels support d in {1, 2, 3}")
    return out


def continuum_kernel_at_points(d, a, m2, t, coords, family,
                               xi_cutoff=DEFAULT_XI_CUTOFF, n_nodes=400, order=0):
    """Continuum kernel (order 0) or its x_1-partial (order 1) at points.

    family is a ContinuousWeightFamily; coords has shape (npoints, d).
    General SPD a is reduced to the isotropic case by xi -> a^{-1/2} xi,
    which maps the points to y = a^{-1/2} x; for order 1 the radial
    derivative is chained back to d/dx_1.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    evals, evecs = np.linalg.eigh(a)
    y = (coords @ evecs) / np.sqrt(evals)
    r = np.linalg.norm(y, axis=1)
    det_factor = 1.0 / np.sqrt(np.prod(evals))
    rho, w = gauss_legendre(0.0, xi_cutoff / t, n_nodes)
    weight_vals = family.value(rho**2 + m2, t)
    vals = _continuum_radial(d, r, weight_vals, rho, w, order=order)
    if order == 1:
        # d|y|/dx_1 = (a^{-1/2} y/|y|)_1 in the eigenbasis representation
        safe_r = np.where(r == 0.0, 1.0, r)
        dir_fac = (y / safe_r[:, None] / np.sqrt(evals)) @ evecs[0, :]
        vals = vals * np.where(r == 0.0, 0.0, dir_fac)
    return t**2 * det_factor * vals


def continuum_kernel(d, a, m2, t, x, family,
                     xi_cutoff=DEFAULT_XI_CUTOFF, n_nodes=400, order=0):
    """phi_t(x) = t^2 (2 pi)^{-d} int W_t(a(xi) + m^2) e^{i x.xi} dxi, with
    W_t = family.value, a ContinuousWeightFamily."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    vals = continuum_kernel_at_points(d, a, m2, t, x[None, :], family,
                                      xi_cutoff=xi_cutoff, n_nodes=n_nodes,
                                      order=order)
    return float(vals[0])


def matched_continuum_kernel_at_points(spec, family, t, coords, order=0,
                                       xi_cutoff=DEFAULT_XI_CUTOFF, n_nodes=400):
    """Continuum kernel in the spectral units of the rescaled lattice family.

    The lattice multiplier is C (3/B) t^2 W*_t((3/B)(a*(xi) + m^2)), so its
    scaling limit is the continuum kernel of the effective operator with
    coefficients (3/B) a and mass (3/B) m^2, carrying the same (3/B)
    compensation factor.  (For B = 3 the mapping is the identity.)
    """
    s = family.arg_scale
    vals = continuum_kernel_at_points(
        spec.d, s * spec.a, s * spec.m2, t, coords,
        ContinuousWeightFamily(family.mollifier, family.C),
        xi_cutoff=xi_cutoff, n_nodes=n_nodes, order=order)
    return s * vals


# ---------------------------------------------------------------------------
# estimate checks

def axis_differences(values, l_x=0, l_y=0):
    """l_x forward differences u(x + e_1) - u(x) and l_y backward ones
    u(x - e_1) - u(x) along the first axis of a torus array: the Fourier
    multiplier (e^{i xi_1} - 1)^{l_x} (e^{-i xi_1} - 1)^{l_y}."""
    for shift, order in ((-1, l_x), (1, l_y)):
        for _ in range(order):
            values = np.roll(values, shift, axis=0) - values
    return values


@dataclass
class DecayFit:
    t_list: np.ndarray
    max_abs: np.ndarray
    slope: float
    constant: float
    l_x: int
    l_y: int


def decay_fit(kernels, l_x=0, l_y=0):
    """Fit log max_x |axis_differences(phi*_t, l_x, l_y)| against log t over
    kernels built by lattice_kernel, one per t."""
    t_arr = np.array([ker.t for ker in kernels])
    sup = np.array([float(np.max(np.abs(axis_differences(ker.values, l_x, l_y))))
                    for ker in kernels])
    slope, intercept = np.polyfit(np.log(t_arr), np.log(sup), 1)
    return DecayFit(t_list=t_arr, max_abs=sup, slope=float(slope),
                    constant=float(np.exp(intercept)), l_x=l_x, l_y=l_y)


@dataclass
class GapReport:
    t_list: np.ndarray
    gaps: np.ndarray              # max over axis points of |discrete - continuum|
    compensated: np.ndarray       # gaps * t^{(d-2)+l+1}
    l: int


def discrete_continuum_gap(table, family, t_list, l=0):
    """Compare lattice kernels to continuum kernels at lattice points (c = 1).

    l = 0 compares values on all sites within the kernel range; l = 1
    compares the forward difference along axis 1 (axis_differences) with
    the continuum derivative on axis points.  The gaps are multiplied by
    t^{(d-2)+l+1} into compensated; the contract is that it remains bounded
    as t grows.
    """
    if l not in (0, 1):
        raise LatticeError("gap check supports l in {0, 1}")
    spec = table.spec
    gaps = []
    for t in t_list:
        ker = lattice_kernel(table, family, t)
        arr = ker.values
        if l == 0:
            dist = torus_linf_distance(spec.N, spec.d)
            sel = dist <= min(int(np.floor(t)) + 2, spec.N // 2 - 1)
            pts = np.argwhere(sel)
            disc_vals = arr[sel]
            coords = np.where(pts > spec.N // 2, pts - spec.N, pts).astype(float)
            cont_vals = matched_continuum_kernel_at_points(spec, family, t, coords)
            gaps.append(float(np.max(np.abs(disc_vals - cont_vals))))
        else:
            grad = axis_differences(arr, l_x=1)
            reach = min(int(np.floor(t)) + 2, spec.N // 2 - 1)
            ks = np.arange(reach + 1)
            coords = np.zeros((len(ks), spec.d))
            coords[:, 0] = ks
            cont_vals = matched_continuum_kernel_at_points(spec, family, t, coords,
                                                           order=1)
            disc_vals = np.array([grad[(k,) + (0,) * (spec.d - 1)] for k in ks])
            gaps.append(float(np.max(np.abs(disc_vals - cont_vals))))
    t_arr = np.asarray(t_list, dtype=float)
    gaps = np.asarray(gaps)
    comp = gaps * t_arr ** (spec.d - 2 + l + 1)
    return GapReport(t_list=t_arr, gaps=gaps, compensated=comp, l=l)


@dataclass
class MassSweepReport:
    m2_list: np.ndarray
    kernels: list
    sup_values: np.ndarray
    probe_values: np.ndarray      # kernel at the probe site per m^2
    compensated_sup: np.ndarray   # (1 + m t)^l * sup
    monotone_at_probe: bool
    l: int


def mass_family_sweep(spec, family_builder, m2_list, t, l=2):
    """Kernels for a family of masses sharing one symbol table and one B,
    probed at the origin.

    family_builder(B) must return a discrete family rescaled by that B.  The
    shared bound is B = max a* + max m^2 (uniformity over the mass family).
    """
    m2_list = np.asarray(sorted(m2_list), dtype=float)
    base = LatticeSpec(d=spec.d, a=spec.a, m2=0.0, N=spec.N)
    table0 = build_symbol_table(base)
    B = table0.B + float(m2_list.max())
    family = family_builder(B)
    probe = (0,) * spec.d
    kernels, sups, probes = [], [], []
    for m2 in m2_list:
        spec_m = LatticeSpec(d=spec.d, a=spec.a, m2=float(m2), N=spec.N)
        table = SymbolTable(spec=spec_m, values=table0.values + m2, B=B)
        ker = lattice_kernel(table, family, t)
        kernels.append(ker)
        sups.append(ker.sup)
        probes.append(float(ker.values[probe]))
    sups = np.asarray(sups)
    probes = np.asarray(probes)
    comp = (1.0 + np.sqrt(m2_list) * t) ** l * sups
    monotone = bool(np.all(np.diff(probes) <= 1e-12 * max(abs(probes[0]), 1e-300)))
    return MassSweepReport(m2_list=m2_list, kernels=kernels, sup_values=sups,
                           probe_values=probes, compensated_sup=comp,
                           monotone_at_probe=monotone, l=l)
