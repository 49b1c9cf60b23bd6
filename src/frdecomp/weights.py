"""Scalar weight families for the scale decomposition of 1/lambda.

Two families share one mollifier and its normalization constant C
(mollifier.normalization_constant):

* continuous:  W_t(lambda) = C phi(sqrt(lambda) t), defined for all
  lambda >= 0, with the exact homogeneity identity
  1/lambda = int_0^inf t^2 W_t(lambda) dt/t.

* discrete:  W*_t(lambda) = sum_n phi((x - 2 pi n) t) at
  x = arccos(1 - lambda/2), lambda in [0, 4].  By Poisson summation this is
  the Chebyshev polynomial sum_{|k| <= t} t^{-1} phi_hat(k/t) T_k(1 - lambda/2),
  i.e. a polynomial in lambda of degree at most t -- the property that turns
  the decomposition into finite-range operator filters.

For an operator with spectrum in [0, B] the discrete family is used through
the argument rescaling lambda -> (3/B) lambda with compensation factor 3/B,
so that int t^2 * (3/B) C W*_t((3/B) lambda) dt/t = 1/lambda exactly.

The integrand t^2 C (3/B) W*_t is linear in the coefficients phi_hat(k/t)/t,
so a scale integral over [t_lo, t_hi] is itself one Chebyshev series of
degree below t_hi.  With u = k/t its coefficients have a closed form in the
mollifier's remainder table R(v) = int_v^1 (phi_hat(u) - phi_hat(0)) u^{-2} du
(DiscreteWeightFamily.interval_coefficients), which holds for t_lo = 0 as
well: for t < 1 only the k = 0 coefficient survives, and the white piece
[0, t_low] is the degree-0 series [C (3/B) phi_hat(0) t_low].  A plan is the
list of those series, white piece first (ScalePlan.series), and every mode
variance (mode_variances) and graph block in the package evaluates that
list; both reconstructs sum the list into one series (ScalePlan.total_series)
and evaluate it once.  A continuous scale integral is the closed form
(C/lambda) [F(sqrt(lambda) t_hi) - F(sqrt(lambda) t_lo)] in the mollifier's
first moment F of phi, so no scale integral has a quadrature node.

One positivity rule.  phi = kappa^2 >= 0, so every W*_t, and with it every
block, kernel and mode variance, is positive semi-definite by construction;
the only negative mass a computed value can carry is the roundoff of
evaluating its Chebyshev series.  For a folded series a of degree
len(a) - 1, Clenshaw's recurrence on [-1, 1] is backward stable with an
error of order deg eps sum|a_k| (A. Smoktunowicz, "Backward stability of
Clenshaw's algorithm", BIT 42 (2002)), so series_roundoff(a) =
(len(a) - 1) eps sum|a_k| is the one tolerance every positivity decision
uses: mode_variances clips negatives within it and refuses larger ones, and
the graph blocks' and torus kernels' PSD certificates are measured against
it.  A degree-0 series is evaluated exactly and may not be negative at all.
"""

from dataclasses import dataclass

import numpy as np

from .fileio import write_columns_csv

ZERO_FLOOR = 1e-12
# Largest upper scale a default plan may reach; a tail target not met there
# is refused rather than planned (blocks up to degree 2^20 at L = 2).
PLAN_T_CAP = 1e6
# Most scales (white piece and blocks) a plan may have; see ScalePlan.
PLAN_MAX_SCALES = 256
# The scales at which check_decomposition_identity reports a family's values:
# np.geomspace(0.5, 64, 8), written out, as that first call at import would
# add about 0.07 MiB to the peak RSS of every command.
REPORT_T_GRID = np.array([0.5, 1.0, 2.0, 3.999999999999999, 7.999999999999999, 16.0,
                          31.99999999999999, 64.0])


class BlockQualityError(RuntimeError):
    """An evaluated series is more negative than its roundoff bound
    (series_roundoff) allows."""


# ---------------------------------------------------------------------------
# single-scale weights

def clenshaw_folded(coeffs, theta):
    """Evaluate c[0] + 2 sum_{k>=1} c[k] T_k(theta) for an array of theta.

    Backward (Clenshaw) recurrence on the folded series, i.e. sum' a_k T_k
    with a_0 = c_0 and a_k = 2 c_k; backward stable for |theta| <= 1, with
    an error within series_roundoff(coeffs) up to a modest constant.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    theta = np.asarray(theta, dtype=float)
    b1 = np.zeros_like(theta)
    b2 = np.zeros_like(theta)
    two_theta = 2.0 * theta
    for k in range(coeffs.shape[0] - 1, 0, -1):
        b1, b2 = 2.0 * coeffs[k] + two_theta * b1 - b2, b1
    return theta * b1 - b2 + coeffs[0]


def series_roundoff(a):
    """(len(a) - 1) eps sum|a_k|: the roundoff bound of evaluating the folded
    series a_0 + 2 sum a_k T_k on [-1, 1], and the one positivity tolerance
    (module docstring).  0 for a degree-0 series, which is evaluated exactly."""
    a = np.asarray(a, dtype=float)
    return (a.size - 1) * np.finfo(float).eps * float(np.sum(np.abs(a)))


def chebyshev_coefficients(m, t):
    """Coefficients c_k = phi_hat(k/t)/t for 0 <= k <= floor(t): the filter W*_t."""
    if t <= 0:
        raise ValueError("scale t must be positive")
    k = np.arange(int(np.floor(t)) + 1, dtype=float)
    return np.asarray(m.phi_hat(k / t)) / t


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
    """W_t(lambda) = C phi(sqrt(lambda) t), C = normalization_constant(mollifier)."""

    def __init__(self, mollifier, C):
        self.mollifier = mollifier
        self.C = C

    def value(self, lam, t):
        arg = np.sqrt(np.asarray(lam, dtype=float)) * t
        return self.C * self.mollifier.phi(arg)

    def scale_integral(self, lam, t_min, t_max):
        """int_{t_min}^{t_max} t^2 W_t(lambda) dt/t plus tail residual bounds.

        With u = sqrt(lambda) t the integral is
        (C/lambda) [F(sqrt(lambda) t_max) - F(sqrt(lambda) t_min)].  Returned
        tails are in identity units, i.e. bounds on the missing contribution
        to lambda * integral.
        """
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        if not np.all(lam > 0.0):
            raise ValueError("lambda must be positive")
        C = self.C
        m = self.mollifier
        root = np.sqrt(lam)
        integral = C * (m.phi_first_moment(root * t_max)
                        - m.phi_first_moment(root * t_min)) / lam
        tail_low = lam * C * m.phi_max * 0.5 * t_min**2
        return integral, tail_low, C * m.phi_tail_moment(root * t_max)


class DiscreteWeightFamily:
    """Normalized Chebyshev family C * (3/B) * W*_t((3/B) lambda), with
    C = normalization_constant(mollifier).

    B = 3 gives the bare family on [0, 4].  The family fulfils
    int_0^inf t^2 value(lambda, t) dt/t = 1/lambda for lambda in (0, 4B/3).
    """

    def __init__(self, mollifier, C, B=3.0):
        if B <= 0:
            raise ValueError("operator norm bound B must be positive")
        self.mollifier = mollifier
        self.C = C
        self.B = float(B)
        self.arg_scale = 3.0 / self.B
        self.lambda_max = 4.0 / self.arg_scale

    # -- evaluation --------------------------------------------------------
    def _check_lambda(self, lam, positive=False):
        lam = np.atleast_1d(np.asarray(lam, dtype=float))
        if positive and not np.all(lam > 0.0):
            raise ValueError("lambda must be positive")
        if np.any(lam < 0.0) or np.any(lam > self.lambda_max + 1e-12):
            raise ValueError(f"lambda outside [0, {self.lambda_max}]")
        return lam

    def value(self, lam, t):
        """C (3/B) W*_t((3/B) lambda), vectorized over lambda."""
        arr = self._check_lambda(lam)
        theta = 1.0 - 0.5 * self.arg_scale * arr
        out = clenshaw_folded(chebyshev_coefficients(self.mollifier, t), theta)
        out = self.C * self.arg_scale * out
        return out if np.ndim(lam) else float(out[0])

    # -- scale integrals ----------------------------------------------------
    def interval_coefficients(self, t_lo, t_hi):
        """Folded coefficients of int_{t_lo}^{t_hi} t^2 value(., t) dt/t, for
        0 <= t_lo <= t_hi.

        a_k = C (3/B) int phi_hat(k/t) dt for k < t_hi (phi_hat(k/t) = 0 for
        t <= k): the whole scale integral is one Chebyshev series in
        1 - (3/(2B)) lambda.  With u = k/t and w = min(k/t_lo, 1), so that
        k/w = max(t_lo, k),

            int phi_hat(k/t) dt = phi_hat(0) (t_hi - max(t_lo, k))
                                  + k [R(k/t_hi) - R(w)],

        where R is the mollifier's remainder table and R(1) = 0; the
        phi_hat(0)/u^2 part is integrated analytically, so nothing cancels
        at large t.  For k = 0 it is phi_hat(0) (t_hi - t_lo).
        """
        if not 0.0 <= t_lo <= t_hi < np.inf:
            raise ValueError(f"invalid scale interval [{t_lo}, {t_hi}]")
        m = self.mollifier
        k = np.arange(max(int(np.ceil(t_hi)), 1), dtype=float)
        lo = np.maximum(t_lo, k)
        a = m.phi_hat0 * (t_hi - lo)
        a[1:] += k[1:] * (m.phi_hat_remainder(k[1:] / t_hi)
                          - m.phi_hat_remainder(k[1:] / lo[1:]))
        return self.C * self.arg_scale * a

    def scale_integral(self, lam, t_min, t_max):
        """Scale integral over [t_min, t_max], from 0 when t_min <= 1.

        For t <= 1 the weight is the constant phi_hat(0)/t, so whenever
        t_min <= 1 the integral is taken over [0, t_max] (tail_low = 0);
        otherwise tail_low bounds what [0, t_min] would add.
        """
        lam = self._check_lambda(lam, positive=True)
        theta = 1.0 - 0.5 * self.arg_scale * lam
        scale = self.C * self.arg_scale
        if t_min <= 1.0:
            tail_low = np.zeros_like(lam)
            t_min = 0.0
        else:
            tail_low = lam * scale * (
                self.mollifier.phi_hat0
                + self.mollifier.phi_max * (0.5 * t_min**2
                                            + self.mollifier.x_max * t_min / np.pi))
        integral = clenshaw_folded(self.interval_coefficients(t_min, t_max), theta)
        return integral, tail_low, self.tail_high(lam, t_max)

    def tail_high(self, lam, t_max):
        """Bound, in identity units, on lambda times the scale integral above t_max.

        The n = 0 term of the periodization tail of phi plus the wrap terms;
        scale_integral returns the same bound as its third value.
        """
        lam = self._check_lambda(lam, positive=True)
        tail = self.mollifier.phi_tail_moment
        x = np.arccos(1.0 - 0.5 * (self.arg_scale * lam))
        return self.C * self.arg_scale * (
            tail(x * t_max) / x**2 + 0.25 * tail(np.pi * t_max)) * lam


def check_family(op, family):
    """Refuse, with a ValueError, a weight family built for another norm
    bound than the operator's (a GraphOperator or a SymbolTable)."""
    if abs(family.B - op.B) > 1e-12 * op.B:
        raise ValueError(f"family B={family.B} does not match operator B={op.B}")


def zero_modes(spectrum, singular):
    """Mask of the zero modes: the eigenvalues at or below 1e-12 of a singular
    operator.  A non-singular one has none, however small its spectrum."""
    return (np.asarray(spectrum, dtype=float) <= 1e-12) & bool(singular)


def mode_variances(spectrum, family, series, singular):
    """Each folded series evaluated at theta = 1 - (3/(2B)) lambda for every
    eigenvalue in the array spectrum (family built with the operator's B).

    By the package's one positivity rule (module docstring), a series'
    negative values at or above -series_roundoff(a) are roundoff and clipped
    to 0; a more negative one is a BlockQualityError.  The zero modes
    (zero_modes(spectrum, singular)) get variance 0.

    Small positive variances are kept as evaluated, though they may be pure
    roundoff of the same order: on the default plan of the 32 x 32 torus
    (m^2 = 0.5) the whole top scale, at most 1.6e-10 of the largest
    variance, lies under twice its series_roundoff, and the samplers draw
    sqrt(v) of it.  Near
    v = 0 the square root magnifies a roundoff move of the spectrum: one ulp
    of the symbol moves sqrt(v) by 4e-8 of the square root of the largest
    variance on the scale below the top one.  A threshold would move where
    this happens, not remove it, so there is none.
    """
    lam = np.asarray(spectrum, dtype=float)
    theta = 1.0 - 0.5 * family.arg_scale * lam
    zero = zero_modes(lam, singular)
    variances = []
    for a in series:
        v = clenshaw_folded(a, theta)
        neg = v < 0
        if np.any(neg):
            worst, bound = float(-v[neg].min()), series_roundoff(a)
            if worst > bound:
                raise BlockQualityError(f"negative mode variance {worst:.6g} beyond "
                                        f"its series' roundoff bound {bound:.6g}")
            v[neg] = 0.0
        v[zero] = 0.0
        variances.append(v)
    return variances


# ---------------------------------------------------------------------------
# scale plans

def _power(base, exponent):
    """float(base) ** exponent, inf where that overflows."""
    try:
        return float(base) ** exponent
    except OverflowError:
        return np.inf


@dataclass(frozen=True)
class ScalePlan:
    """The exact white piece [0, L^{j_min - 1}] plus blocks C_j over
    [L^{j-1}, L^j] for j_min <= j <= j_max.

    default_scale_plan starts at j_min = 1, so the white piece is [0, 1] and
    every block has degree >= 1; a lower j_min splits off degree-0 blocks
    (multiples of the identity) of their own, and t_low = L^{j_min - 1} must
    not exceed 1.  The top block may start at most at PLAN_T_CAP and end, at
    t_high = L^j_max, at most at 2 PLAN_T_CAP, so no plan asks for a series
    of unbounded degree; every default plan with L <= 2 meets both bounds,
    as t_high < L t_max <= 2 PLAN_T_CAP.  The white piece must reach
    t_low >= 1 / PLAN_T_CAP.  A plan has at most PLAN_MAX_SCALES = 256 scales
    (j_max - j_min + 2); every plan with L >= 1.12, and every default plan
    with L >= 1.06, meets that.
    """

    j_min: int
    j_max: int
    L_ratio: float = 2.0

    def __post_init__(self):
        if self.j_max < self.j_min:
            raise ValueError(f"j_max={self.j_max} must be >= j_min={self.j_min}")
        if not self.L_ratio > 1.0:
            raise ValueError(f"L_ratio={self.L_ratio} must exceed 1")
        top, t_high = (_power(self.L_ratio, j) for j in (self.j_max - 1, self.j_max))
        if top > PLAN_T_CAP:
            raise ValueError(f"top block starts at L_ratio^(j_max - 1) = {top:g}, "
                             f"beyond PLAN_T_CAP = {PLAN_T_CAP:g}")
        if t_high > 2.0 * PLAN_T_CAP:
            raise ValueError(f"top block ends at L_ratio^j_max = {t_high:g}, "
                             f"beyond 2 PLAN_T_CAP = {2.0 * PLAN_T_CAP:g}")
        if self.t_low > 1.0:
            raise ValueError(f"plan must start at t <= 1 (exact white piece), "
                             f"got L_ratio^(j_min - 1) = {self.t_low}")
        if self.t_low < 1.0 / PLAN_T_CAP:
            raise ValueError(f"white piece ends at L_ratio^(j_min - 1) = {self.t_low:g}, "
                             f"below 1 / PLAN_T_CAP = {1.0 / PLAN_T_CAP:g}")
        if self.j_max - self.j_min + 2 > PLAN_MAX_SCALES:
            raise ValueError(f"{self.j_max - self.j_min + 2} scales at L_ratio="
                             f"{self.L_ratio} exceed PLAN_MAX_SCALES = {PLAN_MAX_SCALES}")

    @property
    def t_low(self):
        return self.L_ratio ** (self.j_min - 1)

    @property
    def t_high(self):
        return self.L_ratio ** self.j_max

    def scale_labels(self):
        """White piece first (labelled j_min - 1), then the blocks."""
        return list(range(self.j_min - 1, self.j_max + 1))

    def series(self, family):
        """One folded Chebyshev series per entry of scale_labels(): the
        interval_coefficients of the white piece [0, t_low] (a degree-0
        array), then of each block."""
        t = [self.L_ratio**j for j in self.scale_labels()]
        return [family.interval_coefficients(lo, hi) for lo, hi in zip([0.0] + t, t)]

    def total_series(self, family):
        """The sum of series(family): the whole plan as one folded series."""
        series = self.series(family)
        total = np.zeros(max(len(a) for a in series))
        for a in series:
            total[:len(a)] += a
        return total


def default_scale_plan(family, lambda_min, *, L_ratio=2.0, target_tail_rel=1e-7):
    """The plan with white piece [0, 1] and blocks up to t_max, j_min = 1.

    Below t = 1 every weight has degree 0, so all of [0, 1] is the one
    exactly known white piece and every block has degree >= 1.  t_max is the
    first of 4, 8, 16, ... (capped at PLAN_T_CAP) at which the periodization
    tail of phi (family.tail_high) at lambda_min, the smallest eigenvalue of
    the operator on its working subspace, is at or below target_tail_rel; a
    target the cap does not meet raises ValueError.
    """
    if not L_ratio > 1.0:
        raise ValueError(f"L_ratio={L_ratio} must exceed 1")
    lam = np.array([lambda_min])
    t_max = 4.0
    while (tail := float(family.tail_high(lam, t_max)[0])) > target_tail_rel:
        if t_max >= PLAN_T_CAP:
            raise ValueError(
                f"target_tail_rel={target_tail_rel} is not reached by t = {PLAN_T_CAP:g} "
                f"(tail {tail:.3g} at the smallest eigenvalue {lambda_min:.6g})")
        t_max = min(2.0 * t_max, PLAN_T_CAP)
    return ScalePlan(j_min=1, j_max=int(np.ceil(np.log(t_max) / np.log(L_ratio))),
                     L_ratio=L_ratio)


@dataclass
class Reconstruction:
    """A Green function summed from a plan's series, beside its oracle: the
    matrix of a graph operator, or the column x -> G(x, 0) of a torus.

    max_rel_error is the largest entrywise error over max |oracle|;
    tail_bound (plan_tail_bound) bounds, in identity units, what the scales
    above plan.t_high would add on any mode; deflated says that the zero
    modes were set to 0 and the oracle is the pseudo-inverse.
    """

    values: np.ndarray
    oracle: np.ndarray
    max_rel_error: float
    plan: ScalePlan
    tail_bound: float
    deflated: bool


def plan_tail_bound(family, plan, spectrum, singular):
    """The largest family.tail_high(lambda, plan.t_high) over the spectrum
    off its zero modes (zero_modes), which no plan sums."""
    lam = np.asarray(spectrum, dtype=float).ravel()
    return float(np.max(family.tail_high(lam[~zero_modes(lam, singular)], plan.t_high)))


# ---------------------------------------------------------------------------
# formula-level checks

@dataclass
class WeightCheckReport:
    """Identity residuals of a weight family on lambda_grid with their
    certified tails, and its values at (lambda_grid, REPORT_T_GRID)."""

    lambda_grid: np.ndarray
    identity_residuals: np.ndarray
    tail_low: np.ndarray
    tail_high: np.ndarray
    values: np.ndarray        # shape (lambda, t)

    def max_certified_residual(self):
        return float(np.max(self.identity_residuals + self.tail_low + self.tail_high))


def write_identity_csv(path, discrete, continuous):
    """Rows (lambda, t, W_cont, W_disc, identity_residual) of the reports of
    the discrete and the continuous family on one lambda grid, over
    REPORT_T_GRID; the residual is the discrete family's."""
    lam, n_t = discrete.lambda_grid, REPORT_T_GRID.size
    write_columns_csv(
        path, ["lambda", "t", "W_cont", "W_disc", "identity_residual"],
        [np.repeat(lam, n_t), np.tile(REPORT_T_GRID, lam.size),
         continuous.values.ravel(), discrete.values.ravel(),
         np.repeat(discrete.identity_residuals, n_t)])


def default_lambda_grid():
    """lambda in {0.05, 0.10, ..., 3}."""
    return np.arange(0.05, 3.0 + 1e-12, 0.05)


def check_decomposition_identity(family, lambda_grid=None, t_min=1e-3, t_max=1e3):
    """Residuals |lambda * int t^2 W_t(lambda) dt/t - 1| per lambda, with the
    family's values at REPORT_T_GRID for the report."""
    if lambda_grid is None:
        lambda_grid = default_lambda_grid()
    lambda_grid = np.asarray(lambda_grid, dtype=float)
    integral, tail_low, tail_high = family.scale_integral(lambda_grid, t_min, t_max)
    return WeightCheckReport(
        lambda_grid=lambda_grid,
        identity_residuals=np.abs(lambda_grid * integral - 1.0),
        tail_low=np.broadcast_to(np.asarray(tail_low, dtype=float), lambda_grid.shape).copy(),
        tail_high=np.asarray(tail_high, dtype=float),
        values=np.column_stack([family.value(lambda_grid, t) for t in REPORT_T_GRID]),
    )


def decay_constants(family, orders=(0, 1, 2, 3), t_lo=0.1, t_hi=1e3, n_t=120):
    """Measured suprema C_l = sup (1 + t^2 lambda)^l W_t(lambda), over 160
    lambda in geomspace(1e-3, 3 / arg_scale) and n_t t in [t_lo, t_hi].

    The theory guarantees the suprema are finite for every order; their
    values are empirical properties of the chosen mollifier, so they are
    measured on a (lambda, t) grid rather than asserted.
    """
    lam = np.geomspace(1e-3, 3.0 / getattr(family, "arg_scale", 1.0), 160)
    ts = np.geomspace(t_lo, t_hi, n_t)
    sups = {l: 0.0 for l in orders}
    for t in ts:
        vals = family.value(lam, t)
        base = 1.0 + t**2 * lam
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


def approximation_rate(m, C, lam, t_list=(4, 8, 16, 32, 64), scaled=False):
    """Measure |W*_t(lam) - W_t(lam)| across scales and fit the decay rate.

    C is normalization_constant(m).  With scaled=True the evaluation
    argument is lam/t^2 (the scaling regime in which
    W*_t(lam/t^2) -> C phi(sqrt(lam))).
    """
    cont = ContinuousWeightFamily(m, C)
    disc = DiscreteWeightFamily(m, C)
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


def wave_identity_max_residual():
    """Coefficient-level residual of the discrete wave identity, n <= 32.

    For every n the second central difference in the index satisfies
    T_{n+1} + T_{n-1} - 2 T_n = 2 (X - 1) T_n as polynomials in X.
    """
    polys = chebyshev_polynomial_coeffs(33)
    worst = 0.0
    for n in range(1, 33):
        lhs = polys[n + 1].copy()
        lhs[: n] += polys[n - 1]
        lhs[: n + 1] -= 2.0 * polys[n]
        rhs = np.zeros(n + 2)
        rhs[1:] += 2.0 * polys[n]
        rhs[: n + 1] -= 2.0 * polys[n]
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst
