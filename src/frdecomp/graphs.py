"""Scale blocks for weighted-graph Laplacians via Chebyshev operator filters.

The probabilistic Laplacian L u(x) = mu_x^{-1} sum_y mu_xy (u(x) - u(y)) has
spectrum in [0, 2]; the killed walk kappa L + (1 - kappa) stays in [0, 2] and
the resolvent L + m^2 in [0, 2 + m^2].  Applying the degree-floor(t)
polynomial W*_t((3/B) Lambda) moves supports by at most floor(t) steps of
graph distance, so the scale blocks

    C_j = int_{L^{j-1}}^{L^j} t^2 (3/B) C W*_t((3/B) Lambda) dt/t

are positive semi-definite with exact range L^j, and their sum over all
scales reproduces the inverse of Lambda.

L is self-adjoint on l^2(mu), not as a plain matrix; all symmetrizations and
eigenvalue certificates therefore happen in the mu-weighted geometry (for
graphs with constant vertex measure this is plain matrix symmetry).
"""

import json
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import shortest_path

from .weights import ScalePlan, default_scale_plan

DEFAULT_NODES_PER_BLOCK = 16
# Lower end of the default graph plan.  Blocks below t = 1 have degree 0,
# but each owns a sampler stream keyed by its scale index, so moving this
# end would renumber every later scale and change every graph sample.
PLAN_T_MIN = 0.25


class GraphError(ValueError):
    pass


class SingularOperatorError(GraphError):
    """Reconstruction of a singular operator without zero-mode deflation."""


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected graph with positive edge weights mu_xy and measure mu_x."""

    n: int
    adjacency: sp.csr_matrix
    mu: np.ndarray

    @classmethod
    def from_edges(cls, n, edges):
        rows, cols, vals = [], [], []
        for x, y, w in edges:
            x, y, w = int(x), int(y), float(w)
            if not (0 <= x < n and 0 <= y < n):
                raise GraphError(f"edge ({x},{y}) outside vertex range")
            if x == y:
                raise GraphError("self-loops are not allowed")
            if w <= 0:
                raise GraphError("edge weights must be positive")
            rows += [x, y]
            cols += [y, x]
            vals += [w, w]
        adj = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
        mu = np.asarray(adj.sum(axis=1)).ravel()
        if np.any(mu <= 0):
            raise GraphError("graph has isolated vertices")
        return cls(n=n, adjacency=adj, mu=mu)

    @classmethod
    def from_edgelist_file(cls, path):
        """Parse lines "x y mu_xy" with 0-based vertex ids; '#' comments."""
        edges = []
        n = 0
        with open(path) as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                x, y, w = line.split()
                edges.append((int(x), int(y), float(w)))
                n = max(n, int(x) + 1, int(y) + 1)
        return cls.from_edges(n, edges)

    def distances(self):
        """Unweighted BFS distance matrix (inf on disconnected pairs)."""
        if not hasattr(self, "_dist"):
            d = shortest_path(self.adjacency, method="D", unweighted=True)
            object.__setattr__(self, "_dist", d)
        return self._dist


def cycle_graph(n, weight=1.0):
    return WeightedGraph.from_edges(n, [(i, (i + 1) % n, weight) for i in range(n)])


def two_vertex_graph(weight=1.0):
    return WeightedGraph.from_edges(2, [(0, 1, weight)])


class GraphOperator:
    """laplacian, killed(kappa) or resolvent(m2) operator on a weighted graph."""

    def __init__(self, graph, kind="laplacian", kappa=None, m2=None, m_plus2=64.0):
        if kind not in ("laplacian", "killed", "resolvent"):
            raise GraphError(f"unknown operator kind {kind!r}")
        if kind == "killed":
            if kappa is None or not 0.0 < kappa < 1.0:
                raise GraphError("killed operator requires kappa in (0, 1)")
        if kind == "resolvent":
            if m2 is None or not 0.0 <= m2 <= m_plus2:
                raise GraphError(f"resolvent requires m2 in [0, {m_plus2}]")
        self.graph = graph
        self.kind = kind
        self.kappa = kappa
        self.m2 = m2
        self._eig = None

    @property
    def n(self):
        return self.graph.n

    @property
    def B(self):
        if self.kind == "resolvent":
            return 2.0 + self.m2
        return 2.0

    @property
    def is_singular(self):
        return self.kind == "laplacian" or (self.kind == "resolvent" and self.m2 == 0.0)

    def apply_laplacian(self, u):
        """L u with L u(x) = mu_x^{-1} sum_y mu_xy (u(x) - u(y))."""
        u = np.asarray(u, dtype=float)
        wu = self.graph.adjacency @ u
        if u.ndim == 1:
            return u - wu / self.graph.mu
        return u - wu / self.graph.mu[:, None]

    def apply(self, u):
        """The full operator: L, kappa L + (1 - kappa), or L + m2."""
        u = np.asarray(u, dtype=float)
        if u.shape[0] != self.n:
            raise GraphError(f"vector length {u.shape[0]} != {self.n}")
        lu = self.apply_laplacian(u)
        if self.kind == "laplacian":
            return lu
        if self.kind == "killed":
            return self.kappa * lu + (1.0 - self.kappa) * u
        return lu + self.m2 * u

    def dense(self):
        return self.apply(np.eye(self.n))

    def sym_dense(self):
        """D^{1/2} Lambda D^{-1/2}: the symmetric conjugate of the operator."""
        s = np.sqrt(self.graph.mu)
        M = (self.dense() * (1.0 / s)[None, :]) * s[:, None]
        return 0.5 * (M + M.T)

    def eigensystem(self):
        if self._eig is None:
            vals, vecs = np.linalg.eigh(self.sym_dense())
            self._eig = (vals, vecs)
        return self._eig

    def spectral_gap(self):
        """Smallest eigenvalue on the working subspace (drops exact kernel)."""
        vals, _ = self.eigensystem()
        vmax = max(float(vals.max()), 1e-30)
        pos = vals[vals > 1e-12 * vmax]
        if len(pos) == 0:
            raise SingularOperatorError("operator has no positive spectrum")
        return float(pos.min())

    def apply_weight_dense(self, weight_fn):
        """Oracle: weight_fn of the operator via dense eigendecomposition.

        weight_fn receives the eigenvalue array; the result is the plain
        matrix of weight_fn(Lambda), mapped back from the symmetric conjugate.
        """
        vals, vecs = self.eigensystem()
        w = np.asarray(weight_fn(vals), dtype=float)
        s = np.sqrt(self.graph.mu)
        M = (vecs * w) @ vecs.T
        return (M * s[None, :]) / s[:, None]

    def mean_zero_projection(self):
        """I - 1 p^T with p = mu / sum(mu): projects onto mu-mean-zero functions."""
        p = self.graph.mu / self.graph.mu.sum()
        return np.eye(self.n) - np.outer(np.ones(self.n), p)

    def green_oracle(self):
        """Dense Green's function of the operator, the oracle for blocks and samples.

        A dense solve; for a singular operator, the mu-weighted pseudo-inverse
        projected onto mean-zero functions (where the massless field lives).
        """
        if not self.is_singular:
            return np.linalg.solve(self.dense(), np.eye(self.n))

        def pseudo_inverse(vals):
            out = np.zeros_like(vals)
            keep = vals > 1e-12 * vals.max()
            out[keep] = 1.0 / vals[keep]
            return out

        proj = self.mean_zero_projection()
        return proj @ self.apply_weight_dense(pseudo_inverse) @ proj.T


def chebyshev_apply(op, coeffs, u):
    """c_0 u + 2 sum_k c_k T_k(X) u with X = I - (3/(2B)) Lambda, B = op.B.

    The three-term recurrence T_{k+1} = 2 X T_k - T_{k-1}; with the
    coefficients of W*_t this is W*_t((3/B) Lambda) u.  The result is a
    polynomial of degree len(coeffs) - 1 in Lambda applied to u, so its
    support lies within that graph distance of supp(u).
    """
    u = np.asarray(u, dtype=float)
    c = np.asarray(coeffs, dtype=float)
    half = 0.5 * (3.0 / op.B)

    def apply_x(v):
        return v - half * op.apply(v)

    acc = c[0] * u
    if len(c) == 1:
        return acc
    v_prev = u
    v_cur = apply_x(u)
    acc = acc + 2.0 * c[1] * v_cur
    for k in range(2, len(c)):
        v_prev, v_cur = v_cur, 2.0 * apply_x(v_cur) - v_prev
        acc = acc + 2.0 * c[k] * v_cur
    return acc


# ---------------------------------------------------------------------------
# scale blocks

@dataclass
class BlockCertificates:
    min_eig: float
    max_eig: float
    max_out_of_range: float
    range_bound: int
    asymmetry: float

    def to_json(self, extra=None):
        d = {"min_eig": self.min_eig, "max_eig": self.max_eig,
             "max_out_of_range": self.max_out_of_range,
             "range_bound": self.range_bound, "asymmetry": self.asymmetry}
        if extra:
            d.update(extra)
        return json.dumps(d, sort_keys=True)


@dataclass
class ScaleBlock:
    """C_j = scale integral of the decomposition kernel over [L^{j-1}, L^j]."""

    j: int
    L_ratio: float
    matrix: np.ndarray
    node_count: int
    certificates: BlockCertificates


def _mu_symmetrize(matrix, mu):
    """Average with the mu-weighted transpose (detailed balance).

    Functions of the operator satisfy mu_x M_xy = mu_y M_yx exactly, i.e.
    M = D^{-1} M^T D; for constant mu this reduces to plain averaging.
    Returns the symmetrized matrix and the size of the correction.
    """
    partner = (matrix.T * mu[None, :]) / mu[:, None]
    asym = float(np.max(np.abs(matrix - partner)))
    return 0.5 * (matrix + partner), asym


def block_over_interval(op, family, t_lo, t_hi, nodes_per_octave=DEFAULT_NODES_PER_BLOCK):
    """Quadrature of t^2 (3/B) C W*_t((3/B) Lambda) dt/t over [t_lo, t_hi].

    The integrated filter is one polynomial of degree floor(t_hi) in Lambda
    (DiscreteWeightFamily.interval_coefficients), applied to the basis by a
    single Chebyshev recurrence.  Returns the plain matrix (columns are the
    integrated filter applied to basis vectors) before symmetrization or
    certification, and the number of quadrature nodes.
    """
    if abs(family.B - op.B) > 1e-12 * op.B:
        raise GraphError(f"family B={family.B} does not match operator B={op.B}")
    coeffs, node_count = family.interval_coefficients(t_lo, t_hi, nodes_per_octave)
    return chebyshev_apply(op, coeffs, np.eye(op.n)), node_count


def scale_block(op, family, j, L_ratio=2.0, nodes_per_block=DEFAULT_NODES_PER_BLOCK):
    """Build C_j with its range / PSD certificates."""
    if L_ratio <= 1.0:
        raise GraphError("L_ratio must exceed 1")
    if nodes_per_block < 4:
        raise GraphError("nodes_per_block must be at least 4")
    t_lo, t_hi = L_ratio ** (j - 1), L_ratio**j
    raw, node_count = block_over_interval(op, family, t_lo, t_hi, nodes_per_block)
    matrix, asym = _mu_symmetrize(raw, op.graph.mu)
    dist = op.graph.distances()
    range_bound = int(np.ceil(L_ratio**j))
    outside = dist >= range_bound
    oor = float(np.max(np.abs(matrix[outside]))) if outside.any() else 0.0
    s = np.sqrt(op.graph.mu)
    sym = matrix * s[:, None] / s[None, :]
    eigs = np.linalg.eigvalsh(0.5 * (sym + sym.T))
    certs = BlockCertificates(
        min_eig=float(eigs.min()), max_eig=float(eigs.max()),
        max_out_of_range=oor, range_bound=range_bound, asymmetry=asym)
    return ScaleBlock(j=j, L_ratio=float(L_ratio), matrix=matrix,
                      node_count=node_count, certificates=certs)


# ---------------------------------------------------------------------------
# reconstruction

@dataclass
class ReconstructionReport:
    matrix: np.ndarray
    oracle: np.ndarray
    max_rel_error: float
    plan: ScalePlan
    tail_high_bound: float
    deflated: bool


def reconstruct_green(op, family, plan=None):
    """Sum the white piece and the blocks of plan and compare to the operator's
    Green oracle; plan defaults to default_scale_plan(family, op.spectral_gap(),
    PLAN_T_MIN).

    Singular operators (a Laplacian, or a resolvent with m2 = 0) are handled
    by deflation of the constant vector: the comparison runs on the mean-zero
    subspace against the pseudo-inverse; blocks themselves are not modified
    (their finite range is preserved).
    """
    gap = op.spectral_gap()
    if plan is None:
        plan = default_scale_plan(family, gap, PLAN_T_MIN)
    total = family.low_scale_integral(0.0, plan.t_low) * np.eye(op.n)
    for j in range(plan.j_min, plan.j_max + 1):
        total += scale_block(op, family, j, plan.L_ratio, plan.nodes_per_block).matrix
    tail_high = family.tail_high(np.array([gap]), plan.t_high)
    deflated = bool(op.is_singular)
    oracle = op.green_oracle()
    compare = total
    if deflated:
        proj = op.mean_zero_projection()
        compare = proj @ total @ proj.T
    max_rel = float(np.max(np.abs(compare - oracle)) / np.max(np.abs(oracle)))
    return ReconstructionReport(
        matrix=total, oracle=oracle, max_rel_error=max_rel, plan=plan,
        tail_high_bound=float(tail_high[0]) / gap, deflated=deflated)


def killed_green_consistency(graph, kappa):
    """Residual of G^kappa = kappa^{-1} G_{(1-kappa)/kappa} (two dense solves)."""
    if not 0.0 < kappa < 1.0:
        raise GraphError("kappa must lie in (0, 1)")
    killed = GraphOperator(graph, "killed", kappa=kappa)
    m2 = (1.0 - kappa) / kappa
    resolvent = GraphOperator(graph, "resolvent", m2=m2)
    g_killed = np.linalg.solve(killed.dense(), np.eye(graph.n))
    g_resolvent = np.linalg.solve(resolvent.dense(), np.eye(graph.n))
    diff = g_killed - g_resolvent / kappa
    return float(np.max(np.abs(diff)) / np.max(np.abs(g_killed)))
