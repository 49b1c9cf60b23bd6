"""Scale blocks for weighted-graph Laplacians via Chebyshev operator filters.

The probabilistic Laplacian L u(x) = mu_x^{-1} sum_y mu_xy (u(x) - u(y)) is
I - P, with P = D^{-1} W the walk's transition matrix, and has spectrum in
[0, 2]; the killed walk kappa L + (1 - kappa) stays in [0, 2] and the
resolvent L + m^2 in [0, 2 + m^2].  Each is a I - b P (GraphOperator).
Applying the degree-floor(t) polynomial W*_t((3/B) Lambda) moves supports by
at most floor(t) steps of graph distance, so the scale blocks

    C_j = int_{L^{j-1}}^{L^j} t^2 (3/B) C W*_t((3/B) Lambda) dt/t

are positive semi-definite with exact range L^j, and their sum over all
scales reproduces the inverse of Lambda.

All blocks of a plan are series in one Chebyshev basis T_k(I - (3/(2B)) Lambda),
so scale_blocks builds them from one recurrence on the identity: each T_k is
formed once and added into every block whose degree reaches k.  Its argument
X is one sparse matrix with the graph's pattern plus the diagonal.

L is self-adjoint on l^2(mu), not as a plain matrix; all symmetrizations and
eigenvalue certificates therefore happen in the mu-weighted geometry (for
graphs with constant vertex measure this is plain matrix symmetry).
"""

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# No code here calls default_scale_plan: perfbench/spans.py times the plan
# function under its name in this module.
from .weights import check_family, default_scale_plan, series_roundoff  # noqa: F401

# Every dense graph path holds n x n arrays, and the eigensystem is an O(n^3)
# factorization; check_dense refuses larger graphs.
MAX_GRAPH_SITES = 4096


class GraphError(ValueError):
    pass


def check_dense(n):
    """Refuse n > MAX_GRAPH_SITES with a GraphError that names the limit."""
    if n > MAX_GRAPH_SITES:
        raise GraphError(f"dense graph paths are limited to n <= {MAX_GRAPH_SITES}, "
                         f"got n = {n}")


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Undirected graph with positive edge weights mu_xy and measure mu_x.

    The edges are kept as arrays rows, cols, weights with both directions of
    every edge (repeated edges add up); adjacency, the scipy CSR matrix that
    the Chebyshev recurrence and the BFS distances use, is built on first use.
    """

    n: int
    rows: np.ndarray
    cols: np.ndarray
    weights: np.ndarray
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
            if not 0 < w < np.inf:
                raise GraphError(f"edge ({x},{y}) weight {w} must be positive and finite")
            rows += [x, y]
            cols += [y, x]
            vals += [w, w]
        if not rows:
            raise GraphError(f"graph on n={n} vertices has no edges")
        if n > len(rows):  # fewer edge ends than vertices: refused before bincount
            raise GraphError("graph has isolated vertices")
        rows, cols = np.array(rows, dtype=int), np.array(cols, dtype=int)
        vals = np.array(vals, dtype=float)
        mu = np.bincount(rows, weights=vals, minlength=n)
        if np.any(mu <= 0):
            raise GraphError("graph has isolated vertices")
        if not np.all(np.isfinite(mu)):
            raise GraphError("vertex measure mu overflows to infinity")
        return cls(n=n, rows=rows, cols=cols, weights=vals, mu=mu)

    @classmethod
    def from_edgelist_file(cls, path):
        """Parse lines "x y mu_xy" with 0-based vertex ids; '#' comments.

        A line that is not two integers and a number is a GraphError naming
        the file and the line; a byte that is not UTF-8 reads as U+FFFD, so a
        field holding one is not a number.
        """
        edges = []
        n = 0
        with open(path, encoding="utf-8", errors="replace") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                try:
                    x, y, w = line.split()
                    x, y, w = int(x), int(y), float(w)
                except ValueError:
                    raise GraphError(f"{path}:{lineno}: expected 'x y mu_xy' with "
                                     f"integer vertex ids, got {line!r}") from None
                edges.append((x, y, w))
                n = max(n, x + 1, y + 1)
        return cls.from_edges(n, edges)

    @cached_property
    def adjacency(self):
        """The weights mu_xy as a scipy CSR matrix."""
        import scipy.sparse as sp
        return sp.coo_matrix((self.weights, (self.rows, self.cols)),
                             shape=(self.n, self.n)).tocsr()

    def distances(self):
        """Unweighted BFS distance matrix (inf on disconnected pairs)."""
        if not hasattr(self, "_dist"):
            from scipy.sparse.csgraph import shortest_path
            d = shortest_path(self.adjacency, method="D", unweighted=True)
            object.__setattr__(self, "_dist", d)
        return self._dist


def cycle_graph(n):
    return WeightedGraph.from_edges(n, [(i, (i + 1) % n, 1.0) for i in range(n)])


def two_vertex_graph():
    return WeightedGraph.from_edges(2, [(0, 1, 1.0)])


class GraphOperator:
    """a I - b P on a weighted graph, P = D^{-1} W, and B bounding its spectrum:

        kind        a         b       B
        laplacian   1         1       2
        killed      1         kappa   2
        resolvent   1 + m2    1       2 + m2

    Only __init__ reads kind (kept for the block sidecar); kappa and m2 are
    kept only for the kind that takes them, else None.  dense() reads the edge
    list, with numpy only; chebyshev_apply reads graph.adjacency.  Every
    method that builds an n x n array reaches check_dense before it, so a
    graph of more than MAX_GRAPH_SITES vertices is refused before any.
    """

    def __init__(self, graph, kind="laplacian", kappa=None, m2=None):
        if kind not in ("laplacian", "killed", "resolvent"):
            raise GraphError(f"unknown operator kind {kind!r}")
        self.graph, self.kind, self.kappa, self.m2 = graph, kind, None, None
        self.a, self.b, self.B = 1.0, 1.0, 2.0
        if kind == "killed":
            if kappa is None or not 0.0 < kappa < 1.0:
                raise GraphError("killed operator requires kappa in (0, 1)")
            self.kappa = self.b = kappa
        if kind == "resolvent":
            if m2 is None or not 0.0 <= m2 <= 64.0:
                raise GraphError("resolvent requires m2 in [0, 64.0]")
            # B = 2 + m2, not a + 1, which rounds differently for some m2
            self.m2, self.a, self.B = m2, 1.0 + m2, 2.0 + m2
        self._eig = None

    @property
    def n(self):
        return self.graph.n

    @property
    def is_singular(self):
        """a == b: a Laplacian, or a resolvent whose 1 + m2 rounds to 1."""
        return bool(self.a == self.b)

    def dense(self):
        """The operator as a dense matrix from the edge list: a I - b W / mu."""
        check_dense(self.n)
        g = self.graph
        w = np.zeros((self.n, self.n))
        np.add.at(w, (g.rows, g.cols), g.weights)
        return self.a * np.eye(self.n) - self.b * (w / g.mu[:, None])

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

    @property
    def spectrum(self):
        """The eigenvalues of eigensystem(), in ascending order."""
        return self.eigensystem()[0]

    def from_modes(self, values):
        """The plain matrix of the function of the operator that takes
        values[i] on eigenvalue i, mapped back from the symmetric conjugate."""
        _, vecs = self.eigensystem()
        s = np.sqrt(self.graph.mu)
        M = (vecs * values) @ vecs.T
        return (M * s[None, :]) / s[:, None]

    def mean_zero_projection(self):
        """I - 1 p^T with p = mu / sum(mu): projects onto mu-mean-zero functions."""
        check_dense(self.n)
        p = self.graph.mu / self.graph.mu.sum()
        return np.eye(self.n) - np.outer(np.ones(self.n), p)

    def green_oracle(self, column_scale=1.0):
        """Dense Green's function of the operator, the oracle for blocks and samples.

        A dense solve; for a singular operator, the mu-weighted pseudo-inverse
        projected onto mean-zero functions (where the massless field lives).
        Column y is multiplied by column_scale[y] before the projection.
        """
        if not self.is_singular:
            return np.linalg.solve(self.dense(), np.eye(self.n)) * column_scale
        vals = self.spectrum
        pseudo_inverse = np.zeros_like(vals)
        keep = vals > 1e-12 * vals.max()
        pseudo_inverse[keep] = 1.0 / vals[keep]
        return self.mean_zero(self.from_modes(pseudo_inverse) * column_scale)

    def mean_zero(self, M):
        """P M P^T, P = mean_zero_projection(), if the operator is singular;
        else M."""
        if not self.is_singular:
            return M
        proj = self.mean_zero_projection()
        return proj @ M @ proj.T

    def field_oracle(self):
        """Covariance of the field sample_graph draws, mean(mu) Lambda^{-1} D^{-1}:
        green_oracle() when mu is constant, the symmetric Dirichlet-form field
        (mean-zero projected when singular) otherwise."""
        return self.green_oracle(column_scale=self.graph.mu.mean() / self.graph.mu)


def _recurrence_matrix(op):
    """X = I - h Lambda = (1 - h a) I + h b P, h = 3/(2B), as a CSR matrix: W
    (graph.adjacency, repeated edges summed) with each row divided by mu_x."""
    import scipy.sparse as sp
    p = op.graph.adjacency.copy()
    p.data /= np.repeat(op.graph.mu, np.diff(p.indptr))
    h = 1.5 / op.B
    return h * op.b * p + (1.0 - h * op.a) * sp.identity(op.n, format="csr")


def chebyshev_apply(op, series, u):
    """[c_0 u + 2 sum_k c_k T_k(X) u for each c in series], X = I - (3/(2B)) Lambda.

    One recurrence T_{k+1} = 2 X T_k - T_{k-1} up to the largest degree feeds
    every result; with the coefficients of W*_t a result is W*_t((3/B) Lambda) u.
    X is built once per call, so each step is one sparse product.  Result i
    has degree len(series[i]) - 1 in Lambda, so its support lies within that
    graph distance of supp(u).  A u without op.n rows is a GraphError.
    """
    u = np.asarray(u, dtype=float)
    if u.ndim == 0 or u.shape[0] != op.n:
        raise GraphError(f"u has shape {u.shape}, expected {op.n} rows")
    series = [np.asarray(c, dtype=float) for c in series]
    x = _recurrence_matrix(op)
    accs = [c[0] * u for c in series]
    degree = max(len(c) for c in series) - 1
    v_prev, v_cur = u, u
    for k in range(1, degree + 1):
        v_next = x @ v_cur
        if k > 1:
            v_next *= 2.0
            v_next -= v_prev
        v_prev, v_cur = v_cur, v_next
        for acc, c in zip(accs, series):
            if k < len(c):
                acc += 2.0 * c[k] * v_cur
    return accs


# ---------------------------------------------------------------------------
# scale blocks

@dataclass
class BlockCertificates:
    """A block's eigenvalue extremes, range and symmetry measures, and
    roundoff_bound = series_roundoff of its series, which bounds -min_eig."""

    min_eig: float
    max_eig: float
    max_out_of_range: float
    range_bound: int
    asymmetry: float
    roundoff_bound: float

    def to_json(self, extra=None):
        d = {"min_eig": self.min_eig, "max_eig": self.max_eig,
             "max_out_of_range": self.max_out_of_range,
             "range_bound": self.range_bound, "asymmetry": self.asymmetry,
             "roundoff_bound": self.roundoff_bound}
        if extra:
            d.update(extra)
        return json.dumps(d, sort_keys=True)


@dataclass
class ScaleBlock:
    """C_j = scale integral of the decomposition kernel over [L^{j-1}, L^j]."""

    j: int
    L_ratio: float
    matrix: np.ndarray
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


def scale_blocks(op, family, plan):
    """(white, blocks): the white piece's multiple of the identity and the
    blocks C_j of plan.series(family), each from one shared chebyshev_apply on
    the basis, mu-symmetrized and with its range / PSD certificates; the
    eigenvalues certify the matrix as written, against its series'
    series_roundoff."""
    check_family(op, family)
    check_dense(op.n)
    series = plan.series(family)
    raws = chebyshev_apply(op, series[1:], np.eye(op.n))
    dist = op.graph.distances()
    s = np.sqrt(op.graph.mu)
    blocks = []
    for i, j in enumerate(range(plan.j_min, plan.j_max + 1)):
        matrix, asym = _mu_symmetrize(raws[i], op.graph.mu)
        raws[i] = None  # hold one matrix per block, not two
        range_bound = int(np.ceil(plan.L_ratio**j))
        outside = dist >= range_bound
        oor = float(np.max(np.abs(matrix[outside]))) if outside.any() else 0.0
        sym = matrix * s[:, None] / s[None, :]
        eigs = np.linalg.eigvalsh(0.5 * (sym + sym.T))
        certs = BlockCertificates(
            min_eig=float(eigs.min()), max_eig=float(eigs.max()),
            max_out_of_range=oor, range_bound=range_bound, asymmetry=asym,
            roundoff_bound=series_roundoff(series[i + 1]))
        blocks.append(ScaleBlock(j=j, L_ratio=float(plan.L_ratio), matrix=matrix,
                                 certificates=certs))
    return float(series[0][0]), blocks


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
