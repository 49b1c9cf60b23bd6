"""Multiscale Gaussian free field samplers.

The field is a sum of independent per-scale Gaussian components whose
covariances are the scale blocks C_j = f_j(Lambda); summed over all scales
they reproduce the Green's function of the operator.  Both backends draw
every scale in the operator's eigenbasis, weighted by the square roots of
the mode variances f_j(lambda) (weights.mode_variances; zero on the zero
modes of a singular operator):

* torus: the Fourier basis.  n real normals per scale and replicate are
  filtered as irfftn(sqrt(f_j) rfftn(xi)), which has exactly the block
  covariance because f_j is even in the frequency.

* graph: the eigenvectors U of D^{1/2} Lambda D^{-1/2}.  The weighted
  normals of every scale are summed in eigen-coordinates and mapped to the
  vertices once, X = sqrt(mean mu) D^{-1/2} U y, with covariance
  mean(mu) Lambda^{-1} D^{-1}: the Green's function when the vertex measure
  mu is constant, the symmetric Dirichlet-form field otherwise.

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

Two statistical checks compare totals with the exact covariance C:

* covariance_report: every entry of the n x n empirical covariance X^T X / R
  against a dense oracle (graphs, which are not translation invariant).

* lag_covariance_report: on a torus C is circulant, C(x, y) = C(x - y), so
  one lag h per row settles the check.  The estimator averages over sites as
  well as replicates, c(h) = irfftn(sum_r |rfftn(X_r)|^2) / (R n), and is
  checked against the Green column with its exact Gaussian variance
  (sum_u C(u)^2 + sum_u C(u + h) C(u - h)) / (R n).
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import graphs, lattice
from .weights import mode_variances


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
SLICE_VALUES = 2**21


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


def _running_totals(count, scales, sites, keep, to_sites=np.asarray):
    """totals (count, sites), kept (min(keep, count), scales, sites) and
    add(s, lo, x), which puts scale s of replicates [lo, lo + len(x)) into
    both; fed in _batched_draws order, it sums each replicate in scale order
    (white piece first).  kept gets to_sites of the rows it keeps, totals
    the sum of x as given (for the caller to map, if to_sites is not the
    identity)."""
    totals = np.empty((count, sites))
    kept = np.empty((min(keep, count), scales, sites))

    def add(s, lo, x):
        rows = slice(lo, lo + len(x))
        if s == 0:
            totals[rows] = x
        else:
            totals[rows] += x
        kept[rows, s] = to_sites(x[:len(kept[rows])])

    return totals, kept, add


# ---------------------------------------------------------------------------
# torus backend

def sample_torus(table, family, plan, seed, sample_count, keep=0):
    """Draw replicates of the multiscale field on the torus of the symbol
    table; returns (totals, kept) as described in _running_totals.

    Per scale and replicate, X = irfftn(sqrt(v) rfftn(xi)) with xi of n i.i.d.
    standard normals and v the scale's entry of mode_variances on the
    symbol; because v is real and even in the frequency this has covariance
    exactly N^{-d} sum_k v(k) e^{i k (x - y)}, the block kernel.
    """
    check_settings(seed, sample_count, keep)
    lattice.check_family(table, family)
    spec = table.spec
    variances = mode_variances(table.values, family, plan.series(family),
                               spec.m2 <= 0.0)
    n = spec.size
    totals, kept, add = _running_totals(sample_count, len(variances), n, keep)
    fft_axes = tuple(range(-spec.d, 0))
    half = spec.N // 2 + 1
    amps = [np.sqrt(v[..., :half]) for v in variances]
    z = np.empty((min(_slice_reps(spec.shape), sample_count),)
                 + spec.shape[:-1] + (half,), dtype=complex)

    def consume(s, lo, vals):
        k = len(vals)
        zk = np.fft.rfftn(vals, axes=fft_axes, out=z[:k])
        zk *= amps[s]
        np.fft.irfftn(zk, s=spec.shape, axes=fft_axes, out=vals)
        add(s, lo, vals.reshape(k, n))

    _batched_draws(seed, len(variances), sample_count, spec.shape, consume)
    return totals, kept


# ---------------------------------------------------------------------------
# graph backend

# The graph sampler holds the dense n x n eigensystem, an O(n^3) factorization.
MAX_GRAPH_SITES = 4096


def check_graph_size(op):
    """Refuse a graph of more than MAX_GRAPH_SITES vertices with a GraphError."""
    if op.n > MAX_GRAPH_SITES:
        raise graphs.GraphError(f"graph sampler limited to n <= {MAX_GRAPH_SITES}")


def sample_graph(op, family, plan, seed, sample_count, keep=0):
    """Draw replicates X = sqrt(mean mu) D^{-1/2} U y on a graph (n at most
    MAX_GRAPH_SITES), y = sum_j sqrt(f_j) eta_j; returns (totals, kept) as in
    _running_totals.

    (lambda, U) is op.eigensystem(), already computed for the plan's spectral
    gap, so the sample path builds no block and applies no operator.  totals
    hold y until one final map to the vertices, in row chunks; kept rows are
    mapped per scale.  The covariance is op.field_oracle().
    """
    check_settings(seed, sample_count, keep)
    check_graph_size(op)
    graphs.check_family(op, family)
    lam, vecs = op.eigensystem()
    amps = [np.sqrt(v) for v in mode_variances(lam, family, plan.series(family),
                                               op.is_singular)]
    back = np.sqrt(op.graph.mu.mean() / op.graph.mu)

    def to_sites(y):
        return (y @ vecs.T) * back

    totals, kept, add = _running_totals(sample_count, len(amps), op.n, keep,
                                        to_sites)
    _batched_draws(seed, len(amps), sample_count, (op.n,),
                   lambda s, lo, vals: add(s, lo, np.multiply(vals, amps[s], out=vals)))
    chunk = _slice_reps((op.n,))
    for lo in range(0, sample_count, chunk):
        totals[lo:lo + chunk] = to_sites(totals[lo:lo + chunk])
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


def _replicates(totals, min_samples):
    R = totals.shape[0]
    if R < min_samples:
        raise ValueError(f"need at least {min_samples} samples, got {R}")
    return R


def covariance_report(totals, oracle_green, min_samples=1000):
    """Standardized deviation of the empirical covariance of the replicates
    totals (replicates, sites) from the oracle.

    The fields have known mean zero, so the estimator is X^T X / R and the
    exact Gaussian sampling variance of each entry is
    (C_xx C_yy + C_xy^2) / R, evaluated with the oracle covariance.
    """
    R = _replicates(totals, min_samples)
    oracle = np.asarray(oracle_green, dtype=float)
    emp = totals.T @ totals / R
    diag = np.diag(oracle)
    var = (np.outer(diag, diag) + oracle**2) / R
    se = np.sqrt(var)
    z = (emp - oracle) / se
    return CovarianceReport(empirical=emp, oracle=oracle, standard_errors=se,
                            z_scores=z, sample_count=R)


def lag_covariance_report(totals, column, min_samples=1000):
    """Standardized deviation, per lag, of the empirical covariance of
    replicates totals (replicates, sites) of a stationary torus field from
    its covariance column (a torus array, column[h] = C(h, 0)); every array
    of the report has the torus shape of column.

    The estimator c(h) = (R n)^{-1} sum_r sum_x X_r(x + h) X_r(x) is
    irfftn of the replicates' summed power spectrum, accumulated over row
    chunks of totals.  For Gaussian fields its exact variance is
    (sum_u C(u)^2 + sum_u C(u + h) C(u - h)) / (R n); with
    A = irfftn(|rfftn(C)|^2), the autocorrelation of C, the two sums are
    A(0) and A(2h), since C is even.
    """
    R = _replicates(totals, min_samples)
    column = np.asarray(column, dtype=float)
    shape, n = column.shape, column.size
    axes = tuple(range(-len(shape), 0))
    power = np.zeros(shape[:-1] + (shape[-1] // 2 + 1,))
    chunk = _slice_reps(shape)
    for lo in range(0, R, chunk):
        spectra = np.fft.rfftn(totals[lo:lo + chunk].reshape((-1,) + shape), axes=axes)
        power += np.sum(spectra.real**2 + spectra.imag**2, axis=0)
    emp = np.fft.irfftn(power, s=shape, axes=axes) / (R * n)
    spectrum = np.fft.rfftn(column, axes=axes)
    auto = np.fft.irfftn(spectrum.real**2 + spectrum.imag**2, s=shape, axes=axes)
    doubled = auto[np.ix_(*[2 * np.arange(size) % size for size in shape])]
    se = np.sqrt((auto.flat[0] + doubled) / (R * n))
    return CovarianceReport(empirical=emp, oracle=column, standard_errors=se,
                            z_scores=(emp - column) / se, sample_count=R)
