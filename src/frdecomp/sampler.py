"""Multiscale Gaussian free field samplers.

The field is a sum of independent per-scale Gaussian components whose
covariances are the scale blocks C_j; summed over all scales they reproduce
the Green's function of the operator.  Two backends:

* torus: per scale, independent complex Gaussian Fourier modes with variance
  given by the block's spectral multiplier; the real part of the inverse
  transform has exactly the block covariance because the multiplier is even.

* graph: X_j = A_j xi with A_j the symmetric eigendecomposition square root
  of C_j (negative eigenvalues clipped at zero; clipping beyond tolerance is
  a block-quality failure).

Randomness is counter-based: each (scale, replicate batch) pair owns a
Philox stream keyed by (seed, scale index, batch), with replicates laid out
in fixed order inside a batch.  Per-scale independence is structural, and
output is byte-identical for a given (config, seed) no matter how the draws
are sliced.  The normals are drawn ahead: one helper thread fills the next
slice into one of two preallocated buffers while the calling thread turns
the current slice into field components, so the RNG runs alongside the FFTs
and GEMMs, which never leave the calling thread.

Both samplers return (totals, kept): the field summed over scales, added
scale by scale as the slices are drawn, and the per-scale components of the
first keep replicates.  Memory is O(sample_count x sites) for any plan.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .graphs import GraphError
from .weights import clenshaw_folded

WHITE_CLIP_TOL = 1e-8


class BlockQualityError(RuntimeError):
    """A scale block failed PSD clipping tolerance during sampling."""


def check_settings(seed, sample_count, keep, names=("seed", "sample_count", "keep")):
    """Refuse a seed outside [0, 2**64), sample_count < 1 and keep < 0 with a
    ValueError; names are the three settings as the message calls them."""
    seed_name, count_name, keep_name = names
    if not 0 <= int(seed) < 2**64:
        raise ValueError(f"{seed_name} must fit in 64 bits, got {seed}")
    if sample_count < 1:
        raise ValueError(f"{count_name} must be positive, got {sample_count}")
    if keep < 0:
        raise ValueError(f"{keep_name} must not be negative, got {keep}")


REPLICATE_BATCH = 4096
# Normals per drawn slice; the two draw-ahead buffers hold twice this.
SLICE_VALUES = 2**22


def _stream(seed, scale_index, batch):
    tag = (np.uint64(scale_index) << np.uint64(40)) | np.uint64(batch)
    key = np.array([np.uint64(seed), tag], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _slice_reps(draw_shape):
    """Replicates per drawn slice for draws of shape draw_shape each."""
    per_rep = max(int(np.prod(draw_shape)), 1)
    return max(1, min(REPLICATE_BATCH, SLICE_VALUES // per_rep))


def _batched_draws(seed, scales, count, draw_shape, consume):
    """Feed standard normals (replicates, *draw_shape) of every scale to consume.

    Replicate r of scale s lives in batch r // REPLICATE_BATCH of the stream
    (seed, s, batch) at a fixed offset, so its values never depend on the
    total count; within a batch the draws are sliced to bound memory (numpy
    Generator streams are draw-size agnostic).  Slices are consumed in
    (scale, batch, slice) order; consume(s, lo, values) receives replicates
    [lo, lo + len(values)) of scale s and must be done with values when it
    returns.  A helper thread draws the next slice into the other of two
    buffers meanwhile; it touches only the generators.
    """
    draw_shape = tuple(draw_shape)
    slice_reps = _slice_reps(draw_shape)
    n_batches = (count + REPLICATE_BATCH - 1) // REPLICATE_BATCH
    jobs = []
    for s in range(scales):
        for batch in range(n_batches):
            lo = batch * REPLICATE_BATCH
            hi = min(lo + REPLICATE_BATCH, count)
            rng = _stream(seed, s, batch)
            jobs += [(s, pos, min(slice_reps, hi - pos), rng)
                     for pos in range(lo, hi, slice_reps)]
    buffers = [np.empty((min(slice_reps, count),) + draw_shape) for _ in range(2)]

    def draw(i):
        _, _, k, rng = jobs[i]
        return rng.standard_normal(out=buffers[i % 2][:k])

    with ThreadPoolExecutor(1) as helper:
        pending = helper.submit(draw, 0)
        for i, (s, lo, _, _) in enumerate(jobs):
            values = pending.result()
            if i + 1 < len(jobs):
                pending = helper.submit(draw, i + 1)
            consume(s, lo, values)


def _running_totals(count, scales, sites, keep):
    """totals (count, sites), kept (min(keep, count), scales, sites) and
    add(s, lo, x), which puts scale s of replicates [lo, lo + len(x)) into
    both; fed in _batched_draws order, it sums each replicate in scale order
    (white piece first), bit-equal to kept.sum(axis=1) at keep = count."""
    totals = np.empty((count, sites))
    kept = np.empty((min(keep, count), scales, sites))

    def add(s, lo, x):
        rows = slice(lo, lo + len(x))
        if s == 0:
            totals[rows] = x
        else:
            totals[rows] += x
        kept[rows, s] = x[:len(kept[rows])]

    return totals, kept, add


# ---------------------------------------------------------------------------
# torus backend

def torus_mode_variances(spec, family, plan, table=None):
    """Per-scale Fourier-mode variances v_j(xi) on the dual grid.

    The white piece (scales below the plan) has the exact constant variance
    C (3/B) phi_hat(0) * t_low; each block integrates the spectral
    multiplier over its scale interval: one Chebyshev series per block.
    At m^2 = 0 the zero mode gets variance 0 in every scale, so the field
    lives on mean-zero functions.
    """
    from .lattice import build_symbol_table
    if table is None:
        table = build_symbol_table(spec)
    lam = table.values.ravel()
    zero_mode = lam <= 1e-12
    variances = [np.full(lam.shape, family.low_scale_integral(0.0, plan.t_low))]
    theta = 1.0 - 0.5 * family.arg_scale * lam
    for j in range(plan.j_min, plan.j_max + 1):
        coeffs, _ = family.interval_coefficients(
            plan.L_ratio ** (j - 1), plan.L_ratio**j, plan.nodes_per_block)
        variances.append(clenshaw_folded(coeffs, theta))
    # Clip roundoff negatives against the field scale, not the block scale:
    # high-j blocks are uniformly tiny and carry 1e-15-level Clenshaw noise.
    field_scale = max(float(np.max(v)) for v in variances)
    out = []
    for v in variances:
        v = np.asarray(v).copy()
        neg = v < 0
        if np.any(neg):
            worst = float(-v[neg].min())
            if worst > WHITE_CLIP_TOL * max(field_scale, 1e-300):
                raise BlockQualityError(f"negative mode variance {worst}")
            v[neg] = 0.0
        if spec.m2 <= 0.0:
            v[zero_mode] = 0.0
        out.append(v.reshape(spec.shape))
    return out


def sample_torus(spec, family, plan, seed, sample_count, keep=0, table=None):
    """Draw replicates of the multiscale field on the torus; returns
    (totals, kept) as described in _running_totals.

    Per scale and replicate, X = Re(ifftn(sqrt(v N^d) (a + i b))) with a, b
    i.i.d. standard normal; because v is even in xi this has covariance
    exactly N^{-d} sum_xi v(xi) e^{i xi (x - y)}, the block kernel.
    """
    check_settings(seed, sample_count, keep)
    variances = torus_mode_variances(spec, family, plan, table=table)
    n = spec.size
    totals, kept, add = _running_totals(sample_count, len(variances), n, keep)
    fft_axes = tuple(range(-spec.d, 0))
    amps = [np.sqrt(v * n) for v in variances]
    draw_shape = (2,) + spec.shape
    z = np.empty((min(_slice_reps(draw_shape), sample_count),) + spec.shape,
                 dtype=complex)

    def consume(s, lo, vals):
        k = len(vals)
        zk = z[:k]
        np.multiply(amps[s], vals[:, 0], out=zk.real)
        np.multiply(amps[s], vals[:, 1], out=zk.imag)
        np.fft.ifftn(zk, axes=fft_axes, out=zk)
        add(s, lo, zk.real.reshape(k, n))

    _batched_draws(seed, len(variances), sample_count, draw_shape, consume)
    return totals, kept


# ---------------------------------------------------------------------------
# graph backend

def _block_factor(matrix, field_scale, clip_tol=WHITE_CLIP_TOL):
    """Symmetric square root with PSD clipping; reports clipped mass."""
    asym = float(np.max(np.abs(matrix - matrix.T)))
    scale = float(np.max(np.abs(matrix)))
    if asym > 1e-9 * max(scale, 1e-300):
        raise GraphError(
            "graph sampler requires a symmetric block (constant vertex measure)")
    sym = 0.5 * (matrix + matrix.T)
    vals, vecs = np.linalg.eigh(sym)
    clipped = float(max(0.0, -vals.min()))
    if clipped > clip_tol * max(field_scale, 1e-300):
        raise BlockQualityError(
            f"eigenvalue clipping {clipped} beyond tolerance of the field scale")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T, clipped


def graph_scale_factors(op, family, plan):
    """Square-root factors A_j for the white piece and every block."""
    from .graphs import scale_block
    blocks = [scale_block(op, family, j, plan.L_ratio, plan.nodes_per_block)
              for j in range(plan.j_min, plan.j_max + 1)]
    white_var = family.low_scale_integral(0.0, plan.t_low)
    factors = [np.sqrt(white_var) * np.eye(op.n)]
    field_scale = max([b.certificates.max_eig for b in blocks] + [white_var])
    for blk in blocks:
        A, _ = _block_factor(blk.matrix, field_scale)
        factors.append(A)
    return factors


def sample_graph(op, family, plan, seed, sample_count, keep=0):
    """Draw replicates X_j = A_j xi_j on a graph (n <= 4096); returns
    (totals, kept) as described in _running_totals.

    For a singular operator the mu-weighted mean is removed from every
    component (massless fields exist on the mean-zero subspace only).
    """
    check_settings(seed, sample_count, keep)
    if op.n > 4096:
        raise GraphError("graph sampler limited to n <= 4096")
    factors = graph_scale_factors(op, family, plan)
    totals, kept, add = _running_totals(sample_count, len(factors), op.n, keep)
    weights = op.graph.mu / op.graph.mu.sum()

    def consume(s, lo, vals):
        x = vals @ factors[s].T
        if op.is_singular:
            x = x - (x @ weights)[:, None]
        add(s, lo, x)

    _batched_draws(seed, len(factors), sample_count, (op.n,), consume)
    return totals, kept


# ---------------------------------------------------------------------------
# statistical verification

@dataclass
class CovarianceReport:
    empirical: np.ndarray
    oracle: np.ndarray
    standard_errors: np.ndarray
    z_scores: np.ndarray
    sample_count: int

    @property
    def max_abs_z(self):
        return float(np.max(np.abs(self.z_scores)))


def covariance_report(totals, oracle_green, min_samples=1000):
    """Standardized deviation of the empirical covariance of the replicates
    totals (replicates, sites) from the oracle.

    The fields have known mean zero, so the estimator is X^T X / R and the
    exact Gaussian sampling variance of each entry is
    (C_xx C_yy + C_xy^2) / R, evaluated with the oracle covariance.
    """
    R = totals.shape[0]
    if R < min_samples:
        raise ValueError(f"need at least {min_samples} samples, got {R}")
    oracle = np.asarray(oracle_green, dtype=float)
    emp = totals.T @ totals / R
    diag = np.diag(oracle)
    var = (np.outer(diag, diag) + oracle**2) / R
    se = np.sqrt(var)
    z = (emp - oracle) / se
    return CovarianceReport(empirical=emp, oracle=oracle, standard_errors=se,
                            z_scores=z, sample_count=R)
