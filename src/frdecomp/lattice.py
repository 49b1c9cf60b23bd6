"""Finite-range kernels for constant-coefficient operators on d-dimensional tori.

The operator is diagonalized by the discrete Fourier transform: its symbol is

    a*(xi) + m^2,   a*(xi) = sum_ij a_ij (1 - e^{i xi_i}) (1 - e^{-i xi_j}),

on the dual grid xi = 2 pi k / N.  Scale kernels are inverse transforms of
the multiplier C (3/B) t^2 W*_t((3/B)(a*(xi) + m^2)); because W*_t is a
polynomial of degree floor(t) in the operator and the operator couples only
infinity-distance-1 neighbours, the kernel vanishes exactly beyond
infinity-distance floor(t) whenever N > 2t (no wrap-around).

The continuum comparison kernel is the same construction with the continuous
weight and symbol a(xi) = sum a_ij xi_i xi_j, normalized with (2 pi)^{-d} to
match the lattice convention N^{-d} sum_xi.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve
from scipy.special import j0, j1

from .quadrature import gauss_legendre
from .weights import default_scale_plan

DEFAULT_XI_CUTOFF = 40.0
# Lower end of the default torus plan: the exact white piece covers t < 1.
PLAN_T_MIN = 1.0


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
    b_minus2: float = 1e-6
    b_plus2: float = 1e6
    m_plus2: float = 64.0

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
        if eigs.min() < self.b_minus2 or eigs.max() > self.b_plus2:
            raise LatticeError(
                f"eigenvalues {eigs} outside configured [{self.b_minus2}, {self.b_plus2}]")
        if not 0.0 <= self.m2 <= self.m_plus2:
            raise LatticeError(f"m2={self.m2} outside [0, {self.m_plus2}]")
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
    """a*(xi) + m^2 tabulated on the dual grid, with the norm bound B."""

    spec: LatticeSpec
    values: np.ndarray
    B: float

    def spectral_gap(self):
        """Smallest symbol value above 1e-12: the zero mode of a massless
        torus is deflated, so it sets no scale."""
        return float(np.min(self.values[self.values > 1e-12]))


def build_symbol_table(spec):
    """Tabulate the symbol on the dual grid xi_k = 2 pi k / N."""
    xi = 2.0 * np.pi * np.arange(spec.N) / spec.N
    p = 1.0 - np.cos(xi)     # Re(1 - e^{i xi})
    q = -np.sin(xi)          # Im(1 - e^{i xi})
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
    """One scale kernel phi*_t on the torus (translation invariant)."""

    t: float
    values: np.ndarray
    m2: float
    spec: LatticeSpec
    B: float
    range_bound: int
    max_out_of_range: float
    imag_residue: float
    multiplier_min: float
    multiplier_max: float

    @property
    def sup(self):
        return float(np.max(np.abs(self.values)))


def lattice_kernel(spec, table, family, t, allow_wraparound=False):
    """Inverse-transform the multiplier C (3/B) t^2 W*_t((3/B) symbol).

    family must be a DiscreteWeightFamily built with B = table.B.  The exact
    finite range floor(t) requires N > 2t; violations raise WrapAroundError
    unless allow_wraparound is set (scale integrals targeting the torus
    inverse are exact with wrap-around and may set it).
    """
    if abs(family.B - table.B) > 1e-9 * table.B:
        raise LatticeError(f"family B={family.B} does not match table B={table.B}")
    if not allow_wraparound and 2.0 * t >= spec.N:
        raise WrapAroundError(
            f"t={t} needs N > {2 * t} for an uncontaminated range check (N={spec.N})")
    mult = t**2 * family.value(table.values.ravel(), t).reshape(spec.shape)
    kernel_c = np.fft.ifftn(mult)
    kernel = kernel_c.real
    sup = float(np.max(np.abs(kernel)))
    imag = float(np.max(np.abs(kernel_c.imag)))
    rng = int(np.floor(t))
    dist = torus_linf_distance(spec.N, spec.d)
    outside = dist > rng
    oor = float(np.max(np.abs(kernel[outside]))) if outside.any() else 0.0
    return LatticeKernel(
        t=float(t), values=kernel, m2=spec.m2, spec=spec, B=table.B,
        range_bound=rng, max_out_of_range=oor, imag_residue=imag,
        multiplier_min=float(mult.min()), multiplier_max=float(mult.max()))


# ---------------------------------------------------------------------------
# real-space oracle and reconstruction

def stencil_operator(spec):
    """The operator as a sparse matrix assembled from its real-space stencil.

    Independent of the Fourier route: L = sum_ij a_ij grad_i^T grad_j + m^2
    with forward differences and periodic wrap, so
    (L u)(x) = sum_ij a_ij [u(x) - u(x - e_i) - u(x + e_j) + u(x - e_i + e_j)].
    The legs are summed into one coefficient per offset before assembly, so
    every row holds bit-identical values and L commutes exactly with lattice
    shifts.
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
    n = spec.size
    idx = np.arange(n).reshape(spec.shape)
    axes = tuple(range(spec.d))
    # row x couples to column x + offset
    cols = [np.roll(idx, tuple(-o for o in offset), axis=axes).ravel()
            for offset in stencil]
    vals = [np.full(n, v) for v in stencil.values()]
    return sp.csc_matrix((np.concatenate(vals),
                          (np.tile(idx.ravel(), len(stencil)), np.concatenate(cols))),
                         shape=(n, n))


def green_column(spec):
    """Column x -> G(x, 0) of the torus Green function, as a torus array.

    L commutes with lattice shifts, so G(x, y) = column[x - y mod N] and this
    one column settles every entry.  It comes from one sparse direct solve
    of L g = e_0 with the real-space stencil.  At m^2 = 0 the constants span
    the kernel of L and the column of the pseudo-inverse is returned: pin
    site 0, solve the grounded system against the mean-zero part of e_0,
    then subtract the mean.
    """
    n = spec.size
    L = stencil_operator(spec)
    rhs = np.zeros(n)
    rhs[0] = 1.0
    if spec.m2 > 0.0:
        g = spsolve(L, rhs)
    else:
        g = np.zeros(n)
        g[1:] = spsolve(L[1:, 1:], rhs[1:] - 1.0 / n)
        g -= g.mean()
    return g.reshape(spec.shape)


def circulant_matrix(column):
    """Unfold a torus column into the n x n matrix M[x, y] = column[x - y]."""
    shape = column.shape
    coords = np.unravel_index(np.arange(column.size), shape)
    return column[tuple((c[:, None] - c[None, :]) % size
                        for c, size in zip(coords, shape))]


@dataclass
class TorusReconstruction:
    kernel: np.ndarray          # reconstructed Green kernel column (torus array)
    oracle_column: np.ndarray   # green_column(spec), the real-space oracle
    max_rel_error: float
    t_max: float
    tail_bound: float
    deflated: bool


def reconstruct_torus_green(spec, family, plan=None, table=None):
    """Integrate scale kernels over [0, plan.t_high] and compare to the
    real-space oracle; plan defaults to
    default_scale_plan(family, table.spectral_gap(), PLAN_T_MIN).

    The mode-wise integral equals the sum of t^2-weighted kernels over a
    log-t quadrature with plan.nodes_per_block nodes per octave plus the
    exact [0, 1] piece; at m^2 = 0 the zero mode is deflated (projection
    onto mean-zero functions).  The reconstructed Green matrix is circulant
    by construction and the oracle commutes with shifts, so the largest
    entrywise error is the largest error over the one column
    green_column(spec).
    """
    if table is None:
        table = build_symbol_table(spec)
    lam = table.values.ravel()
    deflated = spec.m2 <= 0.0
    keep = lam > 1e-12 if deflated else np.ones(lam.shape, dtype=bool)
    if plan is None:
        plan = default_scale_plan(family, table.spectral_gap(), PLAN_T_MIN)
    t_max = plan.t_high
    integral, _, tail = family.scale_integral(lam[keep], 0.0, t_max,
                                              plan.nodes_per_block)
    v = np.zeros_like(lam)
    v[keep] = integral
    kernel = np.fft.ifftn(v.reshape(spec.shape)).real
    oracle = green_column(spec)
    max_rel = float(np.max(np.abs(kernel - oracle)) / np.max(np.abs(oracle)))
    return TorusReconstruction(kernel=kernel, oracle_column=oracle,
                               max_rel_error=max_rel, t_max=float(t_max),
                               tail_bound=float(np.max(tail)), deflated=deflated)


# ---------------------------------------------------------------------------
# continuum comparison kernels

def _continuum_radial(d, r, weight_vals, rho, w, order=0):
    """Angular-reduced Fourier integral for radial multipliers.

    Vectorized over an array of radii r.  order 0: the kernel; order 1: its
    radial derivative.  Conventions match (2 pi)^{-d} int W(a(xi) + m^2)
    e^{i x.xi} dxi for isotropic arguments.
    """
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


def continuum_kernel_at_points(d, a, m2, t, coords, mollifier, normalization,
                               xi_cutoff=DEFAULT_XI_CUTOFF, n_nodes=400, order=0):
    """Continuum kernel (order 0) or its x_1-partial (order 1) at points.

    coords has shape (npoints, d).  General SPD a is reduced to the isotropic
    case by xi -> a^{-1/2} xi, which maps the points to y = a^{-1/2} x; for
    order 1 the radial derivative is chained back to d/dx_1.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    coords = np.atleast_2d(np.asarray(coords, dtype=float))
    evals, evecs = np.linalg.eigh(a)
    y = (coords @ evecs) / np.sqrt(evals)
    r = np.linalg.norm(y, axis=1)
    det_factor = 1.0 / np.sqrt(np.prod(evals))
    rho, w = gauss_legendre(0.0, xi_cutoff / t, n_nodes)
    weight_vals = normalization.constant * mollifier.phi(np.sqrt(rho**2 + m2) * t)
    vals = _continuum_radial(d, r, weight_vals, rho, w, order=order)
    if order == 1:
        # d|y|/dx_1 = (a^{-1/2} y/|y|)_1 in the eigenbasis representation
        safe_r = np.where(r == 0.0, 1.0, r)
        dir_fac = (y / safe_r[:, None] / np.sqrt(evals)) @ evecs[0, :]
        vals = vals * np.where(r == 0.0, 0.0, dir_fac)
    return t**2 * det_factor * vals


def continuum_kernel(d, a, m2, t, x, mollifier, normalization,
                     xi_cutoff=DEFAULT_XI_CUTOFF, n_nodes=400, order=0):
    """phi_t(x) = t^2 (2 pi)^{-d} int W_t(a(xi) + m^2) e^{i x.xi} dxi."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    vals = continuum_kernel_at_points(d, a, m2, t, x[None, :], mollifier,
                                      normalization, xi_cutoff=xi_cutoff,
                                      n_nodes=n_nodes, order=order)
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
        family.mollifier, family.normalization,
        xi_cutoff=xi_cutoff, n_nodes=n_nodes, order=order)
    return family.multiplier * vals


def continuum_tail_bound(d, t, mollifier, normalization, xi_cutoff=DEFAULT_XI_CUTOFF):
    """Bound on the omitted |xi| > cutoff mass of the continuum integral."""
    angular = {1: 2.0, 2: 2.0 * np.pi, 3: 4.0 * np.pi}[d]
    pref = angular / (2.0 * np.pi) ** d
    # int_{cutoff}^inf rho^{d-1} C phi(rho t) drho = t^{-d} C int_{ct}^inf u^{d-1} phi
    tail = mollifier.weight_tail_integral(xi_cutoff, power=float(d - 1))
    return float(t**2 * pref * normalization.constant * tail / t**d)


# ---------------------------------------------------------------------------
# estimate checks

@dataclass
class DecayFit:
    t_list: np.ndarray
    max_abs: np.ndarray
    slope: float
    constant: float
    l_x: int
    l_y: int
    compensated: bool


def decay_fit(spec, family, t_list, l_x=0, l_y=0, table=None, mass_power=0):
    """Fit log max_x |grad^{l_x} grad^{l_y} phi*_t| against log t.

    Forward differences act along the first coordinate axis (multiplier
    (e^{i xi_1} - 1) per x-order and its conjugate per y-order).  With
    mass_power = k the values are compensated by (1 + m^2 t^2)^k before the
    fit.
    """
    if table is None:
        table = build_symbol_table(spec)
    xi1 = 2.0 * np.pi * np.arange(spec.N) / spec.N
    shape1 = [1] * spec.d
    shape1[0] = spec.N
    fwd = (np.exp(1j * xi1) - 1.0).reshape(shape1)
    diff_mult = fwd**l_x * np.conj(fwd) ** l_y
    sup = []
    for t in t_list:
        mult = t**2 * family.value(table.values.ravel(), t).reshape(spec.shape)
        arr = np.fft.ifftn(mult * diff_mult)
        m = float(np.max(np.abs(arr.real)))
        if mass_power:
            m *= (1.0 + spec.m2 * t**2) ** mass_power
        sup.append(m)
    t_arr = np.asarray(t_list, dtype=float)
    sup = np.asarray(sup)
    slope, intercept = np.polyfit(np.log(t_arr), np.log(sup), 1)
    return DecayFit(t_list=t_arr, max_abs=sup, slope=float(slope),
                    constant=float(np.exp(intercept)), l_x=l_x, l_y=l_y,
                    compensated=bool(mass_power))


@dataclass
class GapReport:
    t_list: np.ndarray
    gaps: np.ndarray              # max over axis points of |discrete - continuum|
    compensated: np.ndarray       # gaps * t^{(d-2)+l+1}, optionally mass-compensated
    l: int


def discrete_continuum_gap(spec, family, t_list, l=0, table=None, mass_power=0):
    """Compare lattice kernels to continuum kernels at lattice points (c = 1).

    l = 0 compares values on all sites within the kernel range; l = 1
    compares the forward difference along axis 1 with the continuum
    derivative on axis points.  Values are multiplied by t^{(d-2)+l+1}; the
    contract is that they remain bounded as t grows.
    """
    if l not in (0, 1):
        raise LatticeError("gap check supports l in {0, 1}")
    if table is None:
        table = build_symbol_table(spec)
    gaps = []
    for t in t_list:
        ker = lattice_kernel(spec, table, family, t)
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
            grad = np.roll(arr, -1, axis=0) - arr
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
    if mass_power:
        comp = comp * (1.0 + spec.m2 * t_arr**2) ** mass_power
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


def mass_family_sweep(spec, family_builder, m2_list, t, probe=None, l=2):
    """Kernels for a family of masses sharing one symbol table and one B.

    family_builder(B) must return a discrete family rescaled by that B.  The
    shared bound is B = max a* + max m^2 (uniformity over the mass family).
    """
    m2_list = np.asarray(sorted(m2_list), dtype=float)
    base = LatticeSpec(d=spec.d, a=spec.a, m2=0.0, N=spec.N,
                       b_minus2=spec.b_minus2, b_plus2=spec.b_plus2,
                       m_plus2=spec.m_plus2)
    table0 = build_symbol_table(base)
    B = table0.B + float(m2_list.max())
    family = family_builder(B)
    if probe is None:
        probe = (0,) * spec.d
    kernels, sups, probes = [], [], []
    for m2 in m2_list:
        spec_m = LatticeSpec(d=spec.d, a=spec.a, m2=float(m2), N=spec.N,
                             b_minus2=spec.b_minus2, b_plus2=spec.b_plus2,
                             m_plus2=spec.m_plus2)
        table = SymbolTable(spec=spec_m, values=table0.values + m2, B=B)
        ker = lattice_kernel(spec_m, table, family, t)
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
