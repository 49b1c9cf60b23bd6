"""Scalar weight families for the scale decomposition of 1/lambda.

Two families share one mollifier and one normalization constant C:

* continuous:  W_t(lambda) = C phi(lambda^{gamma/2} t), defined for all
  lambda >= 0, with the exact homogeneity identity
  1/lambda = int_0^inf t^{2/gamma} W_t(lambda) dt/t.

* discrete (gamma = 1):  W*_t(lambda) = sum_n phi((x - 2 pi n) t) at
  x = arccos(1 - lambda/2), lambda in [0, 4].  By Poisson summation this is
  the Chebyshev polynomial sum_{|k| <= t} t^{-1} phi_hat(k/t) T_k(1 - lambda/2),
  i.e. a polynomial in lambda of degree at most t -- the property that turns
  the decomposition into finite-range operator filters.

For an operator with spectrum in [0, B] the discrete family is used through
the argument rescaling lambda -> (3/B) lambda with compensation factor 3/B,
so that int t^2 * (3/B) C W*_t((3/B) lambda) dt/t = 1/lambda exactly.

For t < 1 only the k = 0 coefficient survives, so W*_t is the constant
phi_hat(0)/t and the scale integral over [0, 1] equals C phi_hat(0) exactly;
every truncated integral in the package uses that closed form for its low
end and tabulated tail integrals of phi for the high end.

The integrand t^2 C (3/B) W*_t is linear in the coefficients phi_hat(k/t)/t,
so a scale integral over [t_lo, t_hi] is itself one Chebyshev series of
degree floor(t_hi) whose coefficients are the quadrature sum of the per-scale
ones.  Every scale integral, torus mode variance and graph block in the
package evaluates that single series (DiscreteWeightFamily.interval_coefficients).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .fileio import write_columns_csv
from .quadrature import log_gauss_legendre

DEFAULT_NODES_PER_OCTAVE = 16
DEFAULT_EPS = 1.0
ZERO_FLOOR = 1e-12
# Largest upper scale a default plan may reach; a tail target not met there
# is refused rather than planned (blocks up to degree 2^20 at L = 2).
PLAN_T_CAP = 1e6


# ---------------------------------------------------------------------------
# single-scale weights

def clenshaw_folded(coeffs, theta):
    """Evaluate c[0] + 2 sum_{k>=1} c[k] T_k(theta) for an array of theta.

    Backward (Clenshaw) recurrence on the folded series, i.e. sum' a_k T_k
    with a_0 = c_0 and a_k = 2 c_k; stable for |theta| <= 1 at the degrees
    used here (up to a few thousand).
    """
    coeffs = np.asarray(coeffs, dtype=float)
    theta = np.asarray(theta, dtype=float)
    b1 = np.zeros_like(theta)
    b2 = np.zeros_like(theta)
    two_theta = 2.0 * theta
    for k in range(coeffs.shape[0] - 1, 0, -1):
        b1, b2 = 2.0 * coeffs[k] + two_theta * b1 - b2, b1
    return theta * b1 - b2 + coeffs[0]


def chebyshev_coefficients(m, t):
    """Coefficients c_k = phi_hat(k/t)/t for 0 <= k <= floor(t): the filter W*_t."""
    if t <= 0:
        raise ValueError("scale t must be positive")
    k = np.arange(int(np.floor(t)) + 1, dtype=float)
    return np.asarray(m.phi_hat(k / t)) / t


def eval_discrete_weight(coeffs, lam):
    """Clenshaw evaluation of W*_t(lambda) = c_0 + 2 sum_k c_k T_k(1 - lambda/2)."""
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    if np.any(lam_arr < 0.0) or np.any(lam_arr > 4.0):
        raise ValueError("lambda outside [0, 4]")
    out = clenshaw_folded(coeffs, 1.0 - 0.5 * lam_arr)
    return out if np.ndim(lam) else float(out[0])


def eval_discrete_weight_direct(m, lam, t):
    """Periodized-sum oracle W*_t(lambda) = sum_n phi((x - 2 pi n) t).

    Independent of the Chebyshev route: uses only the phi table.  The sum is
    truncated where |argument| > x_max, where the table is identically zero.
    """
    lam_arr = np.atleast_1d(np.asarray(lam, dtype=float))
    if np.any(lam_arr <= 0.0) or np.any(lam_arr > 4.0):
        raise ValueError("lambda outside (0, 4]")
    if t <= 0:
        raise ValueError("scale t must be positive")
    x = np.arccos(1.0 - 0.5 * lam_arr)
    reach = m.x_max / t
    n_lo = int(np.floor((x.min() - reach) / (2.0 * np.pi)))
    n_hi = int(np.ceil((x.max() + reach) / (2.0 * np.pi)))
    ns = 2.0 * np.pi * np.arange(n_lo, n_hi + 1)
    out = m.phi((x[:, None] - ns[None, :]) * t).sum(axis=1)
    return out if np.ndim(lam) else float(out[0])


# ---------------------------------------------------------------------------
# weight families

class ContinuousWeightFamily:
    """W_t(lambda) = C phi(lambda^{gamma/2} t)."""

    kind = "continuous"

    def __init__(self, mollifier, normalization):
        self.mollifier = mollifier
        self.normalization = normalization
        self.gamma = normalization.gamma
        self.lambda_max = np.inf

    def value(self, lam, t):
        lam = np.asarray(lam, dtype=float)
        arg = lam ** (0.5 * self.gamma) * t
        return self.normalization.constant * self.mollifier.phi(arg)

    def max_value(self):
        return self.normalization.constant * self.mollifier.phi_max

    def scale_integral(self, lam, t_min, t_max, nodes_per_octave=DEFAULT_NODES_PER_OCTAVE):
        """int_{t_min}^{t_max} t^{2/gamma} W_t(lambda) dt/t plus tail residual bounds.

        Returned tails are in identity units, i.e. bounds on the missing
        contribution to lambda * integral.
        """
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        g = self.gamma
        C = self.normalization.constant
        tq, wq = log_gauss_legendre(t_min, t_max, nodes_per_octave)
        args = np.outer(lam ** (0.5 * g), tq)
        vals = C * self.mollifier.phi(args)
        integral = vals @ (wq * tq ** (2.0 / g))
        tail_low = lam * C * self.mollifier.phi_max * (0.5 * g) * t_min ** (2.0 / g)
        tail_high = np.array([
            C * self.mollifier.weight_tail_integral(l ** (0.5 * g) * t_max, 2.0 / g - 1.0)
            for l in lam])
        return integral, tail_low, tail_high


class DiscreteWeightFamily:
    """Normalized Chebyshev family C * (3/B) * W*_t((3/B) lambda).

    B = 3 gives the bare family on [0, 4].  The family fulfils
    int_0^inf t^2 value(lambda, t) dt/t = 1/lambda for lambda in (0, 4B/3).
    """

    kind = "discrete"

    def __init__(self, mollifier, normalization, B=3.0):
        if abs(normalization.gamma - 1.0) > 1e-14:
            raise ValueError("discrete weights require gamma = 1")
        if B <= 0:
            raise ValueError("operator norm bound B must be positive")
        self.mollifier = mollifier
        self.normalization = normalization
        self.gamma = 1.0
        self.B = float(B)
        self.arg_scale = 3.0 / self.B
        self.multiplier = 3.0 / self.B
        self.lambda_max = 4.0 / self.arg_scale
        self._coeff_cache = {}

    # -- coefficients ------------------------------------------------------
    def coefficients(self, t):
        c = self._coeff_cache.get(t)
        if c is None:
            c = chebyshev_coefficients(self.mollifier, t)
            c.setflags(write=False)  # shared by every caller through the cache
            self._coeff_cache[t] = c
        return c

    # -- evaluation --------------------------------------------------------
    def _check_lambda(self, lam):
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        if np.any(lam < 0.0) or np.any(lam > self.lambda_max + 1e-12):
            raise ValueError(f"lambda outside [0, {self.lambda_max}]")
        return lam

    def value(self, lam, t):
        """C (3/B) W*_t((3/B) lambda), vectorized over lambda."""
        arr = self._check_lambda(lam)
        theta = 1.0 - 0.5 * self.arg_scale * arr
        out = clenshaw_folded(self.coefficients(t), theta)
        out = self.normalization.constant * self.multiplier * out
        return out if np.ndim(lam) else float(out[0])

    def max_value(self, t_lo=0.1):
        # W*_t <= phi_hat(0)/t for t < 1 dominates every practical grid.
        return (self.normalization.constant * self.multiplier
                * self.mollifier.phi_hat0 / t_lo)

    # -- scale integrals ----------------------------------------------------
    def low_scale_integral(self, t_lo, t_hi):
        """Exact int over [t_lo, t_hi] of t^2 value dt/t for t_hi <= 1.

        W*_t is the constant phi_hat(0)/t there (degree-0 polynomial), so
        the integrand is the constant C (3/B) phi_hat(0).
        """
        if not 0.0 <= t_lo <= t_hi <= 1.0 + 1e-15:
            raise ValueError("exact low piece requires 0 <= t_lo <= t_hi <= 1")
        return (self.normalization.constant * self.multiplier
                * self.mollifier.phi_hat0 * (t_hi - t_lo))

    def interval_coefficients(self, t_lo, t_hi,
                              nodes_per_octave=DEFAULT_NODES_PER_OCTAVE):
        """Folded coefficients of int_{t_lo}^{t_hi} t^2 value(., t) dt/t.

        On the log-Gauss-Legendre nodes t_q with weights w_q,
        a_k = sum_q w_q C (3/B) t_q^2 phi_hat(k/t_q)/t_q for k <= floor(t_hi):
        the whole scale integral is one Chebyshev series in
        1 - (3/(2B)) lambda.  Returns (a, number of quadrature nodes).
        """
        tq, wq = log_gauss_legendre(t_lo, t_hi, nodes_per_octave)
        factors = self.normalization.constant * self.multiplier * wq * tq**2
        a = np.zeros(int(np.floor(tq.max())) + 1)
        for t, f in zip(tq, factors):
            c = self.coefficients(t)
            a[:len(c)] += f * c
        return a, len(tq)

    def scale_integral(self, lam, t_min, t_max, nodes_per_octave=DEFAULT_NODES_PER_OCTAVE):
        """Scale integral with the degree-0 region handled in closed form.

        For t <= 1 the weight is the constant phi_hat(0)/t, so whenever
        t_min <= 1 the whole piece [0, min(1, t_max)] is included exactly
        (tail_low = 0); quadrature covers the rest.
        """
        lam = self._check_lambda(lam)
        theta = 1.0 - 0.5 * self.arg_scale * lam
        integral = np.zeros_like(lam)
        scale = self.normalization.constant * self.multiplier
        split = min(1.0, t_max)
        if t_min <= 1.0:
            integral += self.low_scale_integral(0.0, split)
            tail_low = np.zeros_like(lam)
            q_lo = split
        else:
            # Window excludes the exactly-known region; bound what is missed.
            tail_low = lam * scale * (
                self.mollifier.phi_hat0
                + self.mollifier.phi_max * (0.5 * t_min**2
                                            + self.mollifier.x_max * t_min / np.pi))
            q_lo = t_min
        if t_max > q_lo * (1.0 + 1e-12):
            coeffs, _ = self.interval_coefficients(q_lo, t_max, nodes_per_octave)
            integral += clenshaw_folded(coeffs, theta)
        return integral, tail_low, self.tail_high(lam, t_max)

    def tail_high(self, lam, t_max):
        """Bound, in identity units, on lambda times the scale integral above t_max.

        The n = 0 term of the periodization tail of phi plus the wrap terms;
        scale_integral returns the same bound as its third value.
        """
        lam = self._check_lambda(lam)
        scale = self.normalization.constant * self.multiplier
        x = np.arccos(1.0 - 0.5 * (self.arg_scale * lam))
        wrap = self.mollifier.weight_tail_integral(np.pi * t_max, 1.0)
        return np.array([
            scale * (self.mollifier.weight_tail_integral(xi * t_max, 1.0) / xi**2
                     + 0.25 * wrap)
            for xi in x]) * lam


# ---------------------------------------------------------------------------
# scale plans

@dataclass(frozen=True)
class ScalePlan:
    """The exact white piece [0, L^{j_min - 1}] plus blocks C_j over
    [L^{j-1}, L^j] for j_min <= j <= j_max, nodes_per_block nodes each."""

    j_min: int
    j_max: int
    L_ratio: float = 2.0
    nodes_per_block: int = DEFAULT_NODES_PER_OCTAVE

    def __post_init__(self):
        if self.j_max < self.j_min:
            raise ValueError(f"j_max={self.j_max} must be >= j_min={self.j_min}")
        if not self.L_ratio > 1.0:
            raise ValueError(f"L_ratio={self.L_ratio} must exceed 1")
        if self.t_low > 1.0:
            raise ValueError(f"plan must start at t <= 1 (exact white piece), "
                             f"got L_ratio^(j_min - 1) = {self.t_low}")
        if self.nodes_per_block < 4:
            raise ValueError(f"nodes_per_block={self.nodes_per_block} must be at least 4")

    @property
    def t_low(self):
        return self.L_ratio ** (self.j_min - 1)

    @property
    def t_high(self):
        return self.L_ratio ** self.j_max

    def scale_labels(self):
        """White piece first (labelled j_min - 1), then the blocks."""
        return list(range(self.j_min - 1, self.j_max + 1))


def default_scale_plan(family, lambda_min, t_min, L_ratio=2.0,
                       nodes_per_block=DEFAULT_NODES_PER_OCTAVE,
                       target_tail_rel=1e-7):
    """The plan whose blocks cover [t_min, t_max] with the tail below target.

    Everything below t_min is the exactly-known degree-0 region.  t_max is
    the first of 4, 8, 16, ... (capped at PLAN_T_CAP) at which the
    periodization tail of phi (family.tail_high) at lambda_min, the smallest
    eigenvalue of the operator on its working subspace, is at or below
    target_tail_rel; a target the cap does not meet raises ValueError.
    """
    if not L_ratio > 1.0:
        raise ValueError(f"L_ratio={L_ratio} must exceed 1")
    lam = np.array([max(lambda_min, 1e-12)])
    t_max = 4.0
    while (tail := float(family.tail_high(lam, t_max)[0])) > target_tail_rel:
        if t_max >= PLAN_T_CAP:
            raise ValueError(
                f"target_tail_rel={target_tail_rel} is not reached by t = {PLAN_T_CAP:g} "
                f"(tail {tail:.3g} at the smallest eigenvalue {lambda_min:.6g})")
        t_max = min(2.0 * t_max, PLAN_T_CAP)
    log_l = np.log(L_ratio)
    return ScalePlan(j_min=int(np.ceil(np.log(t_min) / log_l)),
                     j_max=int(np.ceil(np.log(t_max) / log_l)),
                     L_ratio=L_ratio, nodes_per_block=nodes_per_block)


# ---------------------------------------------------------------------------
# formula-level checks

@dataclass
class WeightCheckReport:
    """Empirical constants and residuals of the weight-family contracts."""

    lambda_grid: np.ndarray
    t_grid: np.ndarray
    identity_residuals: np.ndarray
    tail_low: np.ndarray
    tail_high: np.ndarray
    w_cont: Optional[np.ndarray] = None        # shape (lambda, t)
    w_disc: Optional[np.ndarray] = None        # shape (lambda, t)
    decay_constants: Optional[dict] = None     # order l -> sup
    approx_rate_fit: Optional["ApproxRateFit"] = None

    def max_certified_residual(self):
        return float(np.max(self.identity_residuals + self.tail_low + self.tail_high))

    def to_csv(self, path):
        """Rows (lambda, t, W_cont, W_disc, identity_residual)."""
        lam = np.asarray(self.lambda_grid, dtype=float)
        t = np.asarray(self.t_grid, dtype=float)

        def table(w):
            return (np.full(lam.size * t.size, np.nan) if w is None
                    else np.asarray(w, dtype=float).ravel())

        write_columns_csv(
            path, ["lambda", "t", "W_cont", "W_disc", "identity_residual"],
            [np.repeat(lam, t.size), np.tile(t, lam.size), table(self.w_cont),
             table(self.w_disc),
             np.repeat(np.asarray(self.identity_residuals, dtype=float), t.size)])


def default_lambda_grid(eps=DEFAULT_EPS):
    """lambda in {0.05, 0.10, ..., 4 - eps}."""
    return np.arange(0.05, 4.0 - eps + 1e-12, 0.05)


def check_decomposition_identity(family, lambda_grid=None, t_min=1e-3, t_max=1e3,
                                 nodes_per_octave=DEFAULT_NODES_PER_OCTAVE,
                                 report_t_grid=None):
    """Residuals |lambda * int t^{2/gamma} W_t(lambda) dt/t - 1| per lambda."""
    if lambda_grid is None:
        lambda_grid = default_lambda_grid()
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    integral, tail_low, tail_high = family.scale_integral(
        lambda_grid, t_min, t_max, nodes_per_octave)
    residuals = np.abs(lambda_grid * integral - 1.0)
    if report_t_grid is None:
        report_t_grid = np.geomspace(0.5, 64.0, 8)
    values = np.column_stack([family.value(lambda_grid, t) for t in report_t_grid])
    report = WeightCheckReport(
        lambda_grid=lambda_grid,
        t_grid=np.asarray(report_t_grid, dtype=float),
        identity_residuals=residuals,
        tail_low=np.broadcast_to(np.asarray(tail_low, dtype=float), lambda_grid.shape).copy(),
        tail_high=np.asarray(tail_high, dtype=float),
    )
    if family.kind == "continuous":
        report.w_cont = values
    else:
        report.w_disc = values
    return report


def decay_constants(family, orders=(0, 1, 2, 3), eps=DEFAULT_EPS,
                    t_lo=0.1, t_hi=1e3, n_lambda=160, n_t=120):
    """Measured suprema C_l = sup (1 + t^{2/gamma} lambda)^l W_t(lambda).

    The theory guarantees the suprema are finite for every order; their
    values are empirical properties of the chosen mollifier, so they are
    measured on a (lambda, t) grid rather than asserted.
    """
    lam_hi = (4.0 - eps) / getattr(family, "arg_scale", 1.0)
    lam = np.geomspace(1e-3, lam_hi, n_lambda)
    ts = np.geomspace(t_lo, t_hi, n_t)
    sups = {l: 0.0 for l in orders}
    g = family.gamma
    for t in ts:
        vals = family.value(lam, t)
        base = 1.0 + t ** (2.0 / g) * lam
        for l in orders:
            sups[l] = max(sups[l], float(np.max(base**l * vals)))
    return sups


@dataclass
class ApproxRateFit:
    """Least-squares slope of log |W*_t - W_t| against log t."""

    t_list: np.ndarray
    diffs: np.ndarray
    slope: float
    intercept: float
    degenerate: bool
    scaled: bool


def approximation_rate(m, lam, t_list=(4, 8, 16, 32, 64), normalization=None,
                       scaled=False):
    """Measure |W*_t(lam) - W_t(lam)| across scales and fit the decay rate.

    With scaled=True the evaluation argument is lam/t^2 (the scaling regime
    in which W*_t(lam/t^2) -> C phi(sqrt(lam))).
    """
    from .mollifier import normalization_constant
    if normalization is None:
        normalization = normalization_constant(m, gamma=1.0)
    cont = ContinuousWeightFamily(m, normalization)
    disc = DiscreteWeightFamily(m, normalization)
    t_arr = np.asarray(t_list, dtype=float)
    diffs = np.empty_like(t_arr)
    ref = np.empty_like(t_arr)
    for i, t in enumerate(t_arr):
        arg = lam / t**2 if scaled else lam
        diffs[i] = abs(float(disc.value(arg, t)) - float(cont.value(arg, t)))
        ref[i] = abs(float(cont.value(arg, t)))
    degenerate = bool(np.any(diffs <= ZERO_FLOOR * max(ref.max(), 1e-300)))
    logs = np.log(np.maximum(diffs, 1e-300))
    slope, intercept = np.polyfit(np.log(t_arr), logs, 1)
    return ApproxRateFit(t_list=t_arr, diffs=diffs, slope=float(slope),
                         intercept=float(intercept), degenerate=degenerate,
                         scaled=scaled)


# ---------------------------------------------------------------------------
# Chebyshev coefficient identities

def chebyshev_polynomial_coeffs(n_max):
    """Monomial coefficient arrays (lowest first) of T_0 .. T_n_max.

    Coefficients are integers well below 2^53 for n_max <= 40, so float64
    arithmetic is exact here.
    """
    polys = [np.array([1.0]), np.array([0.0, 1.0])]
    for n in range(1, n_max):
        p = np.zeros(n + 2)
        p[1:] = 2.0 * polys[n]
        p[: n] -= polys[n - 1]
        polys.append(p)
    return polys[: n_max + 1]


def wave_identity_max_residual(n_max=32):
    """Coefficient-level residual of the discrete wave identity.

    For every n the second central difference in the index satisfies
    T_{n+1} + T_{n-1} - 2 T_n = 2 (X - 1) T_n as polynomials in X.
    """
    polys = chebyshev_polynomial_coeffs(n_max + 1)
    worst = 0.0
    for n in range(1, n_max + 1):
        lhs = polys[n + 1].copy()
        lhs[: n] += polys[n - 1]
        lhs[: n + 1] -= 2.0 * polys[n]
        rhs = np.zeros(n + 2)
        rhs[1:] += 2.0 * polys[n]
        rhs[: n + 1] -= 2.0 * polys[n]
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def coefficient_csv(coeffs, path):
    """Dump Chebyshev coefficients as CSV rows (k, c_k)."""
    coeffs = np.asarray(coeffs, dtype=float)
    write_columns_csv(path, ["k", "c_k"], [np.arange(coeffs.size), coeffs])
