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
batch, spawn key (batch,), for the summed field (_stream), with replicates
laid out in fixed order inside a batch.  The streams are independent because
SeedSequence hashes the seed and the spawn key into each stream's 192 state
bits, not because they are distinct counters: two streams overlap only with
negligible probability, as SFC64's built-in counter puts every state on a
cycle of at least 2^64 draws.  The samples are byte-identical for a given
(config, seed) no matter how the draws are sliced (numpy Generator streams
are draw-size agnostic).

The replicates are drawn one term at a time on the calling thread into one
buffer y.  The kept rows of a term are overwritten by the sums of their
components, each mapped to the sites; then the term is folded into the
covariance report's sufficient statistic and dropped.  A term is as large
as a cache allows, on both backends: the largest power of two of replicates
with at most TERM_VALUES = 2^16 values (512 KiB), at least FOLD_ROWS and at
most REPLICATE_BATCH (_term_rows; 256 replicates on a 256-cycle, 64 on a
32 x 32 torus).  So a graph term's y^T y is one GEMM of cache-sized
operands, and every term divides REPLICATE_BATCH.  Both samplers return
(statistic, kept): the statistic of the summed field, and the per-scale
components (keep, scales, sites).  Memory is one term (y) and one scale's
kept rows of a term plus O(sites^2) for any sample_count.  No array grows
with sample_count except kept.

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
# The fewest replicates per term; it divides REPLICATE_BATCH.
FOLD_ROWS = 64
# Most values (replicates x sites) in a drawn term: 512 KiB, so a graph
# term's y^T y is one GEMM of cache-sized operands.
TERM_VALUES = 2**16


def _stream(seed, *key):
    """The generator of stream `key`: SFC64 seeded by SeedSequence(seed,
    spawn_key=key).  Key (batch,) is replicate batch `batch` of the field
    summed over scales, key (scale_index, batch) that batch of one scale.
    The hash takes the seed and the whole key, so distinct keys give
    distinct streams for any 64-bit seed; a field key is one 32-bit word for
    batch < 2**32 (fewer than 2**44 replicates), and a scale key at least
    two, so no scale's stream shares a field key."""
    sequence = np.random.SeedSequence(seed, spawn_key=key)
    return np.random.Generator(np.random.SFC64(sequence))


def _term_rows(sites):
    """Replicates per term on `sites` sites: the largest power of two with at
    most TERM_VALUES values, clamped to [FOLD_ROWS, REPLICATE_BATCH], so it
    divides REPLICATE_BATCH."""
    rows = 1 << max(0, (TERM_VALUES // sites).bit_length() - 1)
    return min(REPLICATE_BATCH, max(FOLD_ROWS, rows))


def _spectral_sample(seed, count, keep, variances, to_sites, fold):
    """(statistic, kept) of a field whose scale s has the independent mode
    variances variances[s] in eigen-coordinates.

    The field summed over scales has mode variances sum_s variances[s], so
    replicate r of it, y_r, is sqrt(sum_s variances[s]) times one standard
    normal per mode, row r % REPLICATE_BATCH of its batch's stream (batch,).
    Only the first keep replicates draw every scale, from the stream
    (s, batch) at the same offset, times sqrt(variances[s]); to_sites maps
    each component to the sites into kept (min(keep, count), scales, sites),
    and their sum replaces y_r.  The field stream's rows of kept replicates
    are drawn all the same, so no offset depends on keep.  The replicates
    are drawn one term of _term_rows(sites) at a time into one buffer on the
    calling thread (numpy Generator streams are draw-size agnostic), and
    fold(term) is summed into the statistic; the last term of a batch holds
    what is left of it.
    """
    draw_shape = variances[0].shape
    amps = [np.sqrt(v) for v in variances]
    total = np.sqrt(sum(variances))
    term_rows = _term_rows(total.size)
    kept = np.empty((min(keep, count), len(amps), total.size))
    y = np.empty((min(term_rows, count),) + draw_shape)
    component = np.empty((min(term_rows, len(kept)),) + draw_shape)
    statistic = None
    for lo in range(0, count, REPLICATE_BATCH):
        hi = min(lo + REPLICATE_BATCH, count)
        batch = lo // REPLICATE_BATCH
        field = _stream(seed, batch)
        scales = ([_stream(seed, s, batch) for s in range(len(amps))]
                  if lo < len(kept) else [])
        for pos in range(lo, hi, term_rows):
            yk = field.standard_normal(out=y[:min(term_rows, hi - pos)])
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
            term = fold(yk)
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
    variances = mode_variances(table.spectrum, family, plan.series(family),
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

    The modes are op.spectrum and U the basis of op.eigensystem(), already
    computed for the plan's spectral gap, so the sample path builds no block
    and applies no operator.  The sum of y y^T is mapped to the vertices
    once; kept rows are mapped per scale.  The covariance is
    op.field_oracle().
    """
    check_settings(seed, sample_count, keep)
    check_family(op, family)
    _, vecs = op.eigensystem()
    variances = mode_variances(op.spectrum, family, plan.series(family), op.is_singular)
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
