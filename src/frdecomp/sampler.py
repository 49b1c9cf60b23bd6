"""Multiscale Gaussian free field samplers.

The field is a sum of independent per-scale Gaussian components whose
covariances are the scale blocks C_j = f_j(Lambda); summed over all scales
they reproduce the Green's function of the operator.  Both backends draw in
the operator's eigenbasis, where every block is diagonal with the mode
variances f_j(lambda) (weights.mode_variances; zero on the zero modes of a
singular operator).  So the summed field y = sum_j sqrt(f_j) eta_j has the
law of sqrt(sum_j f_j) eta, one standard normal per mode: the covariance
statistic checks the law of the summed field, drawn so, and the per-scale
components are drawn only for the first keep replicates, which the caller
keeps.

* torus: the real orthonormal Fourier basis, one cosine or sine coordinate
  per site.  n real normals c per replicate (and per scale, for a kept
  one) give coordinates sqrt(f) c, which have exactly the block covariance
  because f is even in the frequency, so a cosine and its sine share one
  variance.  No transform runs per replicate; kept rows reach the sites by
  one irfftn per scale.

* graph: the eigenvectors U of D^{1/2} Lambda D^{-1/2}.  The field's
  eigen-coordinates y map to the vertices as X = sqrt(mean mu) D^{-1/2} U y,
  with covariance mean(mu) Lambda^{-1} D^{-1}: the Green's function when the
  vertex measure mu is constant, the symmetric Dirichlet-form field
  otherwise.

Randomness comes from SFC64 streams seeded by SeedSequence(seed, spawn_key):
one per (scale index, replicate batch) for the kept components, and one per
batch, spawn key (batch,), for the summed field, with replicates laid out in
fixed order inside a batch.  The streams are independent because
SeedSequence hashes the seed and the spawn key into each stream's 192 state
bits, not because they are distinct counters: two streams overlap only with
negligible probability, as SFC64's built-in counter puts every state on a
cycle of at least 2^64 draws.  Output is byte-identical for a given (config,
seed) no matter how the draws are sliced (numpy Generator streams are
draw-size agnostic).

The replicates are drawn slice by slice on the calling thread into one
buffer y.  The kept rows of a slice are overwritten by the sums of their
components, each mapped to the sites; then the slice is folded into the
covariance report's sufficient statistic, FOLD_ROWS replicates at a time (so
its roundoff does not depend on the slice size either), and dropped.  Both
samplers return (statistic, kept): the statistic of the summed field, and the
per-scale components (keep, scales, sites).  Memory is one slice (y) and one
scale's kept rows of a slice plus O(sites^2) for any sample_count; a slice
holds SLICE_VALUES = 2^17 doubles, 1 MiB, or FOLD_ROWS replicates if that is
more.  No array grows with sample_count except kept.

Two statistical checks compare the statistic with the exact covariance C:

* covariance_report: every entry of the n x n empirical covariance X^T X / R
  against a dense oracle (graphs, which are not translation invariant).
  The graph sampler sums y^T y and maps it to the vertices once.

* lag_covariance_report: on a torus C is circulant, C(x, y) = C(x - y), so
  one lag h per row settles the check.  The estimator averages over sites as
  well as replicates, c(h) = irfftn(sum_r |rfftn(X_r)|^2) / (R n), and is
  checked against the Green column with its exact Gaussian variance
  (sum_u C(u)^2 + sum_u C(u + h) C(u - h)) / (R n).  The torus sampler sums
  the squares of the coordinates y_r and maps them to |rfftn(X_r)|^2 once:
  n y^2 on a self-conjugate frequency, (n/2)(y_cos^2 + y_sin^2) on a pair.
"""

from dataclasses import dataclass

import numpy as np

from .weights import check_family, mode_variances


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
# Replicates per term of the streamed statistics; a slice holds whole terms,
# so the statistics are summed in one order for any slice size.  It divides
# REPLICATE_BATCH.
FOLD_ROWS = 64
# Normals per drawn slice (but at least FOLD_ROWS replicates): 1 MiB, so the
# slice y and the draws of a kept component fit together in a 2 MiB L2 cache.
SLICE_VALUES = 2**17


def _stream(seed, scale_index, batch):
    """The generator of replicate batch `batch` of scale `scale_index`: SFC64
    seeded by SeedSequence(seed, spawn_key=(scale_index, batch)).  The hash
    takes the whole triple, so distinct triples give distinct streams for any
    64-bit seed and any scale and batch indices."""
    sequence = np.random.SeedSequence(seed, spawn_key=(scale_index, batch))
    return np.random.Generator(np.random.SFC64(sequence))


def _field_stream(seed, batch):
    """The generator of replicate batch `batch` of the field summed over
    scales: SFC64 seeded by SeedSequence(seed, spawn_key=(batch,)).  The key
    is one 32-bit word for batch < 2**32 (fewer than 2**44 replicates), and
    every key of _stream has at least two, so no per-scale stream shares it."""
    sequence = np.random.SeedSequence(seed, spawn_key=(batch,))
    return np.random.Generator(np.random.SFC64(sequence))


def _slice_reps(draw_shape):
    """Replicates per drawn slice for draws of shape draw_shape each: a
    multiple of FOLD_ROWS."""
    per_rep = max(int(np.prod(draw_shape)), 1)
    reps = min(REPLICATE_BATCH, SLICE_VALUES // per_rep)
    return max(FOLD_ROWS, reps - reps % FOLD_ROWS)


def _spectral_sample(seed, count, keep, variances, to_sites, fold):
    """(statistic, kept) of a field whose scale s has the independent mode
    variances variances[s] in eigen-coordinates.

    The field summed over scales has mode variances sum_s variances[s], so
    replicate r of it, y_r, is sqrt(sum_s variances[s]) times one standard
    normal per mode, row r % REPLICATE_BATCH of its batch's _field_stream.
    Only the first keep replicates draw every scale, from the stream
    (seed, s, batch) at the same offset, times sqrt(variances[s]); to_sites
    maps each component to the sites into kept (min(keep, count), scales,
    sites), and their sum replaces y_r.  The field stream's rows of kept
    replicates are drawn all the same, so no offset depends on keep.  The
    replicates are drawn slice by slice into one buffer on the calling
    thread (numpy Generator streams are draw-size agnostic), and fold(rows of
    y) is summed over FOLD_ROWS replicates at a time into the statistic.
    """
    draw_shape = variances[0].shape
    amps = [np.sqrt(v) for v in variances]
    total = np.sqrt(sum(variances))
    slice_reps = _slice_reps(draw_shape)
    kept = np.empty((min(keep, count), len(amps), total.size))
    y = np.empty((min(slice_reps, count),) + draw_shape)
    component = np.empty((min(slice_reps, len(kept)),) + draw_shape)
    statistic = None
    for lo in range(0, count, REPLICATE_BATCH):
        hi = min(lo + REPLICATE_BATCH, count)
        field = _field_stream(seed, lo // REPLICATE_BATCH)
        scales = ([_stream(seed, s, lo // REPLICATE_BATCH) for s in range(len(amps))]
                  if lo < len(kept) else [])
        for pos in range(lo, hi, slice_reps):
            yk = field.standard_normal(out=y[:min(slice_reps, hi - pos)])
            kk = max(0, min(len(yk), len(kept) - pos))
            yk[kk:] *= total
            for s, rng in enumerate(scales if kk else ()):
                values = rng.standard_normal(out=component[:kk])
                values *= amps[s]
                kept[pos:pos + kk, s] = to_sites(values)
                if s == 0:
                    yk[:kk] = values
                else:
                    yk[:kk] += values
            for b in range(0, len(yk), FOLD_ROWS):
                term = fold(yk[b:b + FOLD_ROWS])
                if statistic is None:
                    statistic = term
                else:
                    statistic += term
    return statistic, kept


# ---------------------------------------------------------------------------
# torus backend

def _fourier_map(shape):
    """(lo, hi, re, im) on the rfftn layout of shape: a field with coordinates
    c (flat, one per site) in the real orthonormal Fourier basis has
    rfftn = re c[lo] + 1j im c[hi].

    Frequency k pairs with -k; lo and hi are their flat indices on the full
    grid.  A self-conjugate k (lo = hi) carries the real mode n^{-1/2}
    cos(k x), so rfftn there is sqrt(n) c[k]; a pair carries sqrt(2/n) cos(k x)
    on c[lo] and sqrt(2/n) sin(k x) on c[hi], for the k of the lower flat
    index, so rfftn is sqrt(n/2) (c[lo] -+ 1j c[hi]) at k and at -k.
    """
    n = int(np.prod(shape))
    freq = np.indices(shape[:-1] + (shape[-1] // 2 + 1,))
    here = np.ravel_multi_index(tuple(freq), shape)
    there = np.ravel_multi_index(tuple(-f % size for f, size in zip(freq, shape)), shape)
    re = np.where(here == there, np.sqrt(n), np.sqrt(n / 2))
    return (np.minimum(here, there), np.maximum(here, there), re,
            np.sqrt(n / 2) * np.sign(here - there))


def sample_torus(table, family, plan, seed, sample_count, keep=0):
    """Draw replicates of the multiscale field on the torus of the symbol
    table; returns (power, kept), power = sum_r |rfftn(X_r)|^2 in the rfftn
    layout (the statistic of lag_covariance_report) and kept as in
    _spectral_sample.

    The field is drawn in the real orthonormal Fourier basis: n i.i.d.
    standard normals c per replicate, one coordinate per site
    (_fourier_map), times sqrt(v) with v the sum over scales of
    mode_variances on the full grid; a kept replicate draws each scale so,
    with v that scale's entry.  Because v is even in the frequency, a pair's
    cosine and sine share one variance, and the draw has covariance exactly
    N^{-d} sum_k v(k) e^{i k (x - y)}: the Green kernel of the plan, or the
    block kernel of one scale.  Only kept rows reach the sites, by one
    irfftn of the map per scale; no other transform runs.  The power is
    summed as sum_r c_r^2 per coordinate and mapped to |rfftn|^2 once.
    """
    check_settings(seed, sample_count, keep)
    check_family(table, family)
    spec = table.spec
    variances = mode_variances(table.values, family, plan.series(family),
                               table.is_singular)
    lo, hi, re, im = _fourier_map(spec.shape)

    def to_sites(c):
        flat = c.reshape(len(c), -1)
        spectrum = re * flat[:, lo] + 1j * im * flat[:, hi]
        return np.fft.irfftn(spectrum, s=spec.shape,
                             axes=tuple(range(-spec.d, 0))).reshape(len(c), -1)

    squares, kept = _spectral_sample(seed, sample_count, keep, variances, to_sites,
                                     lambda c: np.sum(c * c, axis=0))
    squares = squares.ravel()
    return 0.5 * spec.size * (squares[lo] + squares[hi]), kept


# ---------------------------------------------------------------------------
# graph backend

def sample_graph(op, family, plan, seed, sample_count, keep=0):
    """Draw replicates X = sqrt(mean mu) D^{-1/2} U y on a graph (n at most
    graphs.MAX_GRAPH_SITES), y = sqrt(sum_j f_j) eta, which has the law of
    sum_j sqrt(f_j) eta_j, the sum a kept replicate draws; returns (gram,
    kept), gram = sum_r X_r X_r^T (the statistic of covariance_report) and
    kept as in _spectral_sample.

    (lambda, U) is op.eigensystem(), already computed for the plan's spectral
    gap, so the sample path builds no block and applies no operator.  The
    sum of y y^T is mapped to the vertices once; kept rows are mapped per
    scale.  The covariance is op.field_oracle().
    """
    check_settings(seed, sample_count, keep)
    check_family(op, family)
    lam, vecs = op.eigensystem()
    variances = mode_variances(lam, family, plan.series(family), op.is_singular)
    back = np.sqrt(op.graph.mu.mean() / op.graph.mu)

    def to_sites(y):
        return (y @ vecs.T) * back

    gram, kept = _spectral_sample(seed, sample_count, keep, variances, to_sites,
                                  lambda y: y.T @ y)
    return back[:, None] * (vecs @ gram @ vecs.T) * back, kept


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


def default_z_bound(rows):
    """The bound on a report's max |z| when none is set: sqrt(2 ln 2 rows) + 1
    for a report of `rows` entries.  The expected maximum of `rows`
    half-normal scores is about sqrt(2 ln 2 rows), so a fixed threshold would
    false-alarm on large reports."""
    return float(np.sqrt(2.0 * np.log(2.0 * rows)) + 1.0)


def _replicates(sample_count):
    """int(sample_count), refused below 1 as by check_settings."""
    R = int(sample_count)
    if R < 1:
        raise ValueError(f"sample_count must be positive, got {R}")
    return R


def covariance_report(gram, sample_count, oracle_green):
    """Standardized deviation of the empirical covariance of sample_count
    replicates X_r, given gram = sum_r X_r X_r^T (sites x sites), from the
    oracle.

    The fields have known mean zero, so the estimator is gram / R and the
    exact Gaussian sampling variance of each entry is
    (C_xx C_yy + C_xy^2) / R, evaluated with the oracle covariance.  A
    sample_count below 1 is a ValueError, as in check_settings.
    """
    R = _replicates(sample_count)
    oracle = np.asarray(oracle_green, dtype=float)
    emp = np.asarray(gram, dtype=float) / R
    if emp.shape != oracle.shape:
        raise ValueError(f"gram shape {emp.shape} != oracle shape {oracle.shape}")
    # se = sqrt((C_xx C_yy + C_xy^2) / R) and z = (emp - C) / se, built in
    # place in the two arrays the report keeps: no other n x n temporary
    z = np.outer(np.diag(oracle), np.diag(oracle))
    se = np.square(oracle)
    se += z
    se /= R
    np.sqrt(se, out=se)
    np.subtract(emp, oracle, out=z)
    z /= se
    return CovarianceReport(empirical=emp, oracle=oracle, standard_errors=se,
                            z_scores=z, sample_count=R)


def lag_covariance_report(power, sample_count, column):
    """Standardized deviation, per lag, of the empirical covariance of
    sample_count replicates X_r of a stationary torus field from its
    covariance column (a torus array, column[h] = C(h, 0)), given the
    replicates' summed power spectrum power = sum_r |rfftn(X_r)|^2 (the rfftn
    layout of column's shape); every array of the report has the torus shape
    of column.

    The estimator c(h) = (R n)^{-1} sum_r sum_x X_r(x + h) X_r(x) is
    irfftn(power) / (R n).  For Gaussian fields its exact variance is
    (sum_u C(u)^2 + sum_u C(u + h) C(u - h)) / (R n); with
    A = irfftn(|rfftn(C)|^2), the autocorrelation of C, the two sums are
    A(0) and A(2h), since C is even.  A sample_count below 1 is a
    ValueError, as in check_settings.
    """
    R = _replicates(sample_count)
    column = np.asarray(column, dtype=float)
    shape, n = column.shape, column.size
    axes = tuple(range(-len(shape), 0))
    power = np.asarray(power, dtype=float)
    if power.shape != shape[:-1] + (shape[-1] // 2 + 1,):
        raise ValueError(f"power shape {power.shape} does not fit column shape {shape}")
    emp = np.fft.irfftn(power, s=shape, axes=axes) / (R * n)
    spectrum = np.fft.rfftn(column, axes=axes)
    auto = np.fft.irfftn(spectrum.real**2 + spectrum.imag**2, s=shape, axes=axes)
    doubled = auto[np.ix_(*[2 * np.arange(size) % size for size in shape])]
    se = np.sqrt((auto.flat[0] + doubled) / (R * n))
    return CovarianceReport(empirical=emp, oracle=column, standard_errors=se,
                            z_scores=(emp - column) / se, sample_count=R)
