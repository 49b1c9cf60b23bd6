"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criterion 6 measures the kernel decay exponents with a spatially narrow
admissible bump (see tests/conftest.py and the package README): the default
profile satisfies the decay law as an upper bound but its phi is too wide in
x for the pinned scale window t in {4,...,32} to sit in the asymptotic
regime of a two-sided slope fit.
"""

import time

import numpy as np
import pytest

from frdecomp.graphs import GraphOperator, cycle_graph, scale_blocks, two_vertex_graph
from frdecomp.lattice import (LatticeSpec, build_symbol_table, continuum_kernel,
                              decay_fit, lattice_kernel)
from frdecomp.sampler import covariance_report, sample_graph
from frdecomp.weights import (DiscreteWeightFamily, ScalePlan, approximation_rate,
                              check_decomposition_identity, eval_discrete_weight_direct,
                              reconstruct_green, wave_identity_max_residual)


class Criterion:
    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget = budget_s
        self.t0 = time.perf_counter()
        self.details = []

    def check(self, description, measured, bound, larger_ok=False):
        ok = measured >= bound if larger_ok else measured <= bound
        rel = ">=" if larger_ok else "<="
        self.details.append((ok, f"{description}: {measured:.3g} {rel} {bound:.3g}"))
        return ok

    def finish(self):
        elapsed = time.perf_counter() - self.t0
        ok = all(flag for flag, _ in self.details) and elapsed < self.budget
        verdict = "PASS" if ok else "FAIL"
        body = "; ".join(msg for _, msg in self.details)
        print(f"ACCEPTANCE {self.number:02d} {self.label}: {verdict} "
              f"({body}) [{elapsed:.1f}s < {self.budget:.0f}s]")
        assert all(flag for flag, _ in self.details), body
        assert elapsed < self.budget, f"criterion {self.number} took {elapsed:.1f}s"


@pytest.fixture(scope="module")
def graph_suite(mollifier, norm1):
    """The default graph block suite: blocks and reconstructions reused by
    the range/PSD/reconstruction/sampler criteria, as (op, family,
    reconstruction, blocks of its plan)."""
    suite = {}
    cases = {
        "cycle16": (GraphOperator(cycle_graph(16), "resolvent", m2=1.0), None),
        "killed16": (GraphOperator(cycle_graph(16), "killed", kappa=0.9), None),
        "massless64": (GraphOperator(cycle_graph(64)), ScalePlan(j_min=-1, j_max=5)),
        "two_vertex": (GraphOperator(two_vertex_graph(), "resolvent", m2=1.0), None),
    }
    for name, (op, plan) in cases.items():
        fam = DiscreteWeightFamily(mollifier, norm1, B=op.B)
        rec = reconstruct_green(op, fam, plan)
        suite[name] = (op, fam, rec, scale_blocks(op, fam, rec.plan)[1])
    return suite


def test_criterion_01_decomposition_identity(disc_family):
    c = Criterion(1, "decomposition-identity", 10.0)
    lam = np.arange(0.05, 3.0 + 1e-12, 0.05)
    rep = check_decomposition_identity(disc_family, lam)
    c.check("max certified residual |lam int t^2 W* dt/t - 1|",
            rep.max_certified_residual(), 1e-5)
    c.finish()


def test_criterion_02_oracle_equivalence(mollifier, norm1, disc_family):
    c = Criterion(2, "chebyshev-periodization-equivalence", 5.0)
    lam = np.linspace(0.05, 3.2, 20)
    worst = 0.0
    for t in np.geomspace(0.5, 6.0, 20):
        clen = disc_family.value(lam, t)
        direct = norm1 * eval_discrete_weight_direct(mollifier, lam, t)
        worst = max(worst, float(np.max(np.abs(clen - direct) / np.abs(direct))))
    c.check("max relative difference on 20x20 grid", worst, 1e-9)
    c.finish()


def test_criterion_03_exact_finite_range(mollifier, norm1, graph_suite):
    c = Criterion(3, "exact-finite-range", 60.0)
    worst_torus = 0.0
    cases = [(1, 64, [2.3, 21.0, 31.0], None),
             (2, 64, [8.0, 31.0], None),
             (2, 64, [6.5], np.array([[1.0, 0.3], [0.3, 1.0]])),
             (3, 64, [8.0, 31.0], None)]
    for d, N, ts, a in cases:
        if a is None:
            a = np.eye(d) if d > 1 else np.array([[1.0]])
        spec = LatticeSpec(d=d, a=a, m2=0.25, N=N)
        table = build_symbol_table(spec)
        fam = DiscreteWeightFamily(mollifier, norm1, B=table.B)
        for t in ts:
            ker = lattice_kernel(table, fam, t)
            worst_torus = max(worst_torus, ker.max_out_of_range / ker.sup)
    c.check("torus kernels out-of-range mass / sup", worst_torus, 1e-12)
    worst_graph = 0.0
    for *_, blocks in graph_suite.values():
        for blk in blocks:
            sup = float(np.max(np.abs(blk.matrix)))
            if sup > 0:
                worst_graph = max(worst_graph,
                                  blk.certificates.max_out_of_range / sup)
    c.check("graph blocks out-of-range mass / sup", worst_graph, 1e-12)
    c.finish()


def test_criterion_04_psd_certificates(graph_suite):
    # Every block is PSD by construction (phi = kappa^2 >= 0), so a negative
    # eigenvalue can only be the roundoff of evaluating the block's series:
    # each block is held to its own series_roundoff bound (0 for a degree-0
    # block, which is evaluated exactly).
    c = Criterion(4, "psd-certificates", 60.0)
    worst = 0.0
    n_blocks = 0
    for *_, blocks in graph_suite.values():
        for blk in blocks:
            certs = blk.certificates
            if certs.min_eig < 0:
                worst = max(worst, -certs.min_eig / certs.roundoff_bound
                            if certs.roundoff_bound > 0 else np.inf)
            n_blocks += 1
    assert n_blocks >= 30
    c.check(f"worst -min_eig / roundoff_bound over {n_blocks} blocks", worst, 1.0)
    c.finish()


def test_criterion_05_reconstruction(mollifier, norm1, graph_suite):
    c = Criterion(5, "green-reconstruction", 30.0)
    _, _, rec16, _ = graph_suite["cycle16"]
    c.check("16-cycle resolvent m2=1 max rel error", rec16.max_rel_error, 1e-5)
    spec = LatticeSpec(d=2, a=np.eye(2), m2=0.5, N=8)
    table = build_symbol_table(spec)
    fam = DiscreteWeightFamily(mollifier, norm1, B=table.B)
    rec8 = reconstruct_green(table, fam)
    c.check("8x8 torus m2=0.5 max rel error", rec8.max_rel_error, 1e-5)
    _, _, rec2, _ = graph_suite["two_vertex"]
    closed_form = np.array([[2 / 3, 1 / 3], [1 / 3, 2 / 3]])
    c.check("2-vertex closed form (2/3, 1/3) max abs error",
            float(np.max(np.abs(rec2.values - closed_form))), 1e-6)
    c.finish()


def test_criterion_06_decay_exponents(narrow_mollifier, narrow_norm):
    c = Criterion(6, "decay-exponents", 120.0)
    spec = LatticeSpec(d=3, a=np.eye(3), m2=0.0, N=128)
    table = build_symbol_table(spec)
    fam = DiscreteWeightFamily(narrow_mollifier, narrow_norm, B=table.B)
    kernels = [lattice_kernel(table, fam, t) for t in (4, 8, 16, 32)]
    fit0 = decay_fit(kernels)
    c.check("d=3 l=0 slope within -1.0 +- 0.1",
            abs(fit0.slope - (-1.0)), 0.1)
    fit1 = decay_fit(kernels, l_x=1)
    c.check("d=3 l_x=1 slope within -2.0 +- 0.15",
            abs(fit1.slope - (-2.0)), 0.15)
    c.finish()


def test_criterion_07_approximation_rate(mollifier, norm1):
    c = Criterion(7, "discrete-approximation-rate", 5.0)
    fit = approximation_rate(mollifier, norm1, 1.0, t_list=(4, 8, 16, 32, 64))
    c.check("log-log slope of |W* - W| at lambda=1", fit.slope, -0.9)
    assert not fit.degenerate
    c.finish()


def test_criterion_08_scale_invariance(cont_family):
    c = Criterion(8, "continuum-scale-invariance", 60.0)
    worst = 0.0
    for t in (2.0, 4.0):
        for r in (0.0, 0.1, 0.25, 0.4, 0.5):
            x = np.array([r * t, 0.3 * r * t, 0.1 * r * t])
            v_t = continuum_kernel(3, np.eye(3), 0.0, t, x, cont_family,
                                   xi_cutoff=40.0, n_nodes=400)
            ref = continuum_kernel(3, np.eye(3), 0.0, 1.0, x / t, cont_family,
                                   xi_cutoff=60.0, n_nodes=640) / t
            worst = max(worst, abs(v_t - ref) / abs(ref))
    c.check("max rel deviation from t^{-(d-2)} phibar(x/t)", worst, 1e-4)
    c.finish()


def test_criterion_09_sampler_covariance(graph_suite):
    c = Criterion(9, "sampler-covariance", 120.0)
    op, fam, rec, _ = graph_suite["cycle16"]
    gram, _ = sample_graph(op, fam, rec.plan, 20240801, 10_000)
    oracle = np.linalg.solve(op.dense(), np.eye(op.n))
    rep = covariance_report(gram, 10_000, oracle)
    c.check("max standardized covariance deviation at 1e4 replicates",
            rep.max_abs_z, 4.0)
    again, _ = sample_graph(op, fam, rec.plan, 20240801, 10_000)
    identical = gram.tobytes() == again.tobytes()
    c.check("byte-identical rerun with fixed seed", float(identical), 1.0,
            larger_ok=True)
    c.finish()


def test_criterion_10_wave_identity():
    c = Criterion(10, "chebyshev-wave-identity", 1.0)
    c.check("max coefficient residual for n <= 32",
            wave_identity_max_residual(), 1e-12)
    c.finish()
