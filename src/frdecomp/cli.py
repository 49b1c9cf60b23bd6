"""Command-line front end tying together the verification suites.

A single nested JSON config governs every subcommand; its keys are
DEFAULT_CONFIG's, any other is refused, and flags override file values.
Every command prints one PASS/FAIL line per contract it checks, names the
module and operation with the measured value, writes machine-first CSV
artifacts into --out, and exits 0 iff every contract holds.  Artifacts carry
no timestamps, so a rerun with the same config is byte-identical.
"""

import copy
import dataclasses
import json
import os
import sys

import click
import numpy as np

from . import fileio
from .graphs import GraphError
from .lattice import LatticeError
from .mollifier import build_mollifier, normalization_constant
from .sampler import check_settings
from .weights import (PLAN_T_CAP, BlockQualityError, ContinuousWeightFamily,
                      DiscreteWeightFamily, approximation_rate, chebyshev_coefficients,
                      check_decomposition_identity, decay_constants,
                      default_lambda_grid, default_scale_plan,
                      eval_discrete_weight_direct, reconstruct_green, spectral_gap,
                      wave_identity_max_residual, write_identity_csv)

DEFAULT_CONFIG = {
    "seed": 20240801,
    "weights": {
        "lambda_grid": None,          # null -> 0.05 .. 3 step 0.05
        "t_min": 1e-3,
        "t_max": 1e3,
    },
    "backend": {
        "kind": "graph",              # graph | torus
        "graph": "cycle",             # cycle | two_vertex | file
        "n": 16,
        "edges_file": None,
        "operator": "resolvent",      # laplacian | killed | resolvent
        "kappa": 0.9,
        "m2": 1.0,
        "d": 2,
        "N": 8,
        "a": None,                    # null -> identity matrix
        "lattice_m2": 0.5,
        "t_list": [2.0, 3.5],
        "decay_orders": [[0, 0]],     # (l_x, l_y) pairs fitted over t_list
    },
    "scales": {
        "j_min": None,                # null -> automatic plan
        "j_max": None,
        "L_ratio": 2.0,
        "target_tail_rel": 1e-7,
    },
    "sampler": {
        "sample_count": 10000,
        "z_bound": None,              # null -> sampler.default_z_bound
        "dump_replicates": 4,
    },
    "tolerances": {
        "identity_discrete": 1e-5,
        "identity_continuous": 1e-6,
        "oracle_equivalence": 1e-9,
        "wave_identity": 1e-12,
        "approx_slope": -0.9,
        "range_rel": 1e-12,
        "reconstruction_rel": 1e-5,
        "reconstruction_rel_massless": 1e-4,
    },
}


# Config values that select a code path, with the values each accepts.
CHOICES = {
    ("backend", "kind"): ("graph", "torus"),
    ("backend", "graph"): ("cycle", "two_vertex", "file"),
}


# A scalar key takes the JSON type of its default, where true and false are
# not numbers and a float default takes a finite number (json reads NaN and
# Infinity); a key named here takes the type named, or null if its default
# is null.  weights.lambda_grid is checked by _weight_settings.
NAMED_TYPES = {"scales.j_min": "an integer", "scales.j_max": "an integer",
               "backend.edges_file": "a string", "sampler.z_bound": "a finite number",
               "backend.a": "a list of equal-length lists of finite numbers",
               "backend.t_list": "a non-empty list of positive numbers",
               "backend.decay_orders": "a list of pairs of non-negative integers"}
TYPE_OF_DEFAULT = {int: "an integer", float: "a finite number", str: "a string"}
ACCEPTS = {"an integer": lambda v: type(v) is int,
           "a finite number":
               lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
           "a string": lambda v: type(v) is str,
           "a list of equal-length lists of finite numbers":
               lambda v: type(v) is list and all(
                   type(row) is list and len(row) == len(v[0])
                   and all(map(ACCEPTS["a finite number"], row)) for row in v),
           "a non-empty list of positive numbers":
               lambda v: type(v) is list and v != [] and all(
                   ACCEPTS["a finite number"](x) and x > 0 for x in v),
           "a list of pairs of non-negative integers":
               lambda v: type(v) is list and all(
                   type(pair) is list and len(pair) == 2
                   and all(type(x) is int and x >= 0 for x in pair) for pair in v)}


class ConfigError(ValueError):
    """A config the program cannot honour: an unknown key, a section that is
    not an object, a value of the wrong JSON type, a value outside CHOICES, a
    scale plan or sampler setting the library refuses, or a graph edge-list
    file that is unset or missing."""


def _check_known(defaults, data, prefix=""):
    for key, value in data.items():
        name = prefix + key
        if key not in defaults:
            raise ConfigError(f"unknown config key {name}")
        default = defaults[key]
        if isinstance(default, dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {name} must be an object")
            _check_known(default, value, name + ".")
            continue
        null = " or null" if default is None else ""
        expected = NAMED_TYPES.get(name, TYPE_OF_DEFAULT.get(type(default)))
        if expected and not (null and value is None or ACCEPTS[expected](value)):
            raise ConfigError(f"config key {name} must be {expected}{null}, got {value!r}")


def deep_merge(base, override):
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


class RunConfig:
    """Nested key-value configuration with lossless JSON round-trip.

    Every key must be one of DEFAULT_CONFIG's, with a value of its JSON type,
    and every key in CHOICES one of its values (ConfigError otherwise).
    """

    def __init__(self, data=None):
        data = {} if data is None else data
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        _check_known(DEFAULT_CONFIG, data)
        self.data = deep_merge(DEFAULT_CONFIG, data)
        for (section, key), allowed in CHOICES.items():
            if self.data[section][key] not in allowed:
                raise ConfigError(f"config key {section}.{key} must be one of "
                                  f"{', '.join(allowed)}, got {self.data[section][key]!r}")

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"{path} is not valid JSON: {exc}") from None
        return cls(data)

    def to_file(self, path):
        fileio.write_json(path, self.data)

    def __getitem__(self, key):
        return self.data[key]


class CheckList:
    """Collect contract results; render PASS/FAIL lines and the exit code."""

    def __init__(self):
        self.rows = []

    def bound(self, name, measured, tolerance):
        """The contract measured <= tolerance."""
        ok = bool(measured <= tolerance)
        self.rows.append((name, measured, tolerance, ok))
        return ok

    def render(self):
        for name, measured, tol, ok in self.rows:
            status = "PASS" if ok else "FAIL"
            click.echo(f"{status} {name} measured={measured:.6g} tolerance={tol:.6g}")
        return all(ok for _, _, _, ok in self.rows)


def _components():
    m = build_mollifier()
    return m, normalization_constant(m)


def _graph_operator(config):
    from .graphs import (GraphOperator, WeightedGraph, check_dense, cycle_graph,
                         two_vertex_graph)
    b = config["backend"]
    if b["graph"] == "cycle":
        check_dense(b["n"])  # every graph command is dense: refuse before building
        graph = cycle_graph(b["n"])
    elif b["graph"] == "two_vertex":
        graph = two_vertex_graph()
    else:
        graph = WeightedGraph.from_edgelist_file(b["edges_file"])
    return GraphOperator(graph, kind=b["operator"], kappa=b["kappa"], m2=b["m2"])


def _lattice_spec(config):
    from .lattice import LatticeSpec
    b = config["backend"]
    d = b["d"]
    a = np.array(b["a"], dtype=float) if b["a"] is not None else np.eye(d)
    return LatticeSpec(d=d, a=a, m2=float(b["lattice_m2"]), N=b["N"])


def _backend(config):
    """(op, family) of the config's backend.

    op is the GraphOperator or, on a torus, the SymbolTable; family is the
    discrete weight family for op.B.  The mollifier (_components) is built
    before op, once a graph's edge-list file is known to exist.
    """
    b = config["backend"]
    if (b["kind"] == "graph" and b["graph"] == "file"
            and not os.path.isfile(b["edges_file"] or "")):
        raise ConfigError(f"backend.edges_file={b['edges_file']!r} must name an "
                          "existing file when backend.graph is file")
    m, C = _components()
    if b["kind"] == "graph":
        op = _graph_operator(config)
    else:
        from .lattice import build_symbol_table
        op = build_symbol_table(_lattice_spec(config))
    return op, DiscreteWeightFamily(m, C, B=op.B)


def _scale_plan(config, op, family):
    """default_scale_plan for op (from its spectral gap, which is an O(n^3)
    eigensolve on a graph) with the config's scales, then the config's
    j_min / j_max where they are set."""
    lambda_min = spectral_gap(op)
    s = config["scales"]
    try:
        plan = default_scale_plan(family, lambda_min, L_ratio=s["L_ratio"],
                                  target_tail_rel=s["target_tail_rel"])
        return dataclasses.replace(
            plan, **{k: s[k] for k in ("j_min", "j_max") if s[k] is not None})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"scales: {exc}") from None


def _sampler_settings(config):
    """(seed, sample_count, dump_replicates, z_bound), refused as by check_settings."""
    sc = config["sampler"]
    settings = (config["seed"], sc["sample_count"], sc["dump_replicates"])
    try:
        check_settings(*settings, names=("seed", "sampler.sample_count",
                                         "sampler.dump_replicates"))
    except ValueError as exc:
        raise ConfigError(f"sampler settings: {exc}") from None
    return settings + (sc["z_bound"],)


def _weight_settings(config):
    """(config["weights"], lambda grid), refused unless
    0 < t_min < t_max <= PLAN_T_CAP and the grid is non-empty, numeric and
    inside 0 < lambda <= 4.

    The grid is weights.lambda_grid, or default_lambda_grid() if that is null.
    """
    wc = config["weights"]
    if not 0.0 < wc["t_min"] < wc["t_max"] <= PLAN_T_CAP:
        raise ConfigError(f"weights.t_min={wc['t_min']} and weights.t_max={wc['t_max']} "
                          f"must satisfy 0 < t_min < t_max <= {PLAN_T_CAP:g}")
    listed = wc["lambda_grid"]
    if listed is None:
        return wc, default_lambda_grid()
    numeric = isinstance(listed, list) and all(map(ACCEPTS["a finite number"], listed))
    lam = np.array(listed, dtype=float) if numeric else None
    if lam is None or lam.size == 0 or not np.all((lam > 0.0) & (lam <= 4.0)):
        raise ConfigError(f"weights.lambda_grid={listed!r} must give a non-empty list "
                          "of numbers with 0 < lambda <= 4")
    return wc, lam


class VerdictGroup(click.Group):
    """Command group that reports a rejected input as one FAIL verdict line.

    The library raises these errors for inputs it cannot handle (a non-power
    of two torus, an unknown config key, ...); the CLI turns them into a
    FAIL line and exit code 1 instead of a traceback.  An allocation that
    fails (numpy's subclass of MemoryError included) is reported as
    MemoryError.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ConfigError, GraphError, LatticeError, BlockQualityError,
                MemoryError) as exc:
            name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
            click.echo(f"FAIL {ctx.invoked_subcommand} {name}: {exc}")
            ctx.exit(1)


@click.group(cls=VerdictGroup)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="JSON config file; flags override file values.")
@click.option("--out", "out_dir", type=click.Path(), default="frdecomp-out",
              help="Output directory for reports and artifacts.")
@click.option("--seed", type=int, default=None, help="64-bit RNG seed override.")
@click.pass_context
def main(ctx, config_path, out_dir, seed):
    """Finite-range decomposition toolkit: weights, kernels, blocks, fields."""
    config = RunConfig.from_file(config_path) if config_path else RunConfig()
    if seed is not None:
        config.data["seed"] = seed
    ctx.obj = {"config": config, "out": out_dir,
               "checks": CheckList(), "artifacts": []}


def _artifact(ctx, name, *suffixes):
    """Path of an artifact in --out, recorded for the manifest.

    With suffixes, name is a base path and name + suffix is recorded for
    each suffix (writers that emit several files from one base).  --out is
    created here, so a command refused before its first artifact leaves none.
    """
    os.makedirs(ctx.obj["out"], exist_ok=True)
    ctx.obj["artifacts"] += [name + s for s in suffixes] or [name]
    return os.path.join(ctx.obj["out"], name)


def _write_table(ctx, name, header, rows):
    """Write a short table of int/float row tuples as the CSV artifact name."""
    columns = [np.array(c) for c in zip(*rows)] or [np.empty(0)] * len(header)
    fileio.write_columns_csv(_artifact(ctx, name), header, columns)


def _finish(ctx, command):
    fileio.write_manifest(ctx.obj["out"], command, ctx.obj["artifacts"])
    ok = ctx.obj["checks"].render()
    if not ok:
        failed = [name for name, _, _, okk in ctx.obj["checks"].rows if not okk]
        click.echo(f"FAILED contracts: {', '.join(failed)}")
        sys.exit(1)


@main.command()
@click.pass_context
def weights(ctx):
    """Run the weight-family identity/decay/approximation checks."""
    config, checks = ctx.obj["config"], ctx.obj["checks"]
    wc, lam = _weight_settings(config)
    tol = config["tolerances"]
    m, C = _components()

    disc = DiscreteWeightFamily(m, C)
    rep = check_decomposition_identity(disc, lam, wc["t_min"], wc["t_max"])
    checks.bound("spectral_weights.check_decomposition_identity[discrete]",
                 rep.max_certified_residual(), tol["identity_discrete"])
    rep_c = check_decomposition_identity(ContinuousWeightFamily(m, C), lam,
                                         wc["t_min"], wc["t_max"])
    checks.bound("spectral_weights.check_decomposition_identity[continuous]",
                 rep_c.max_certified_residual(), tol["identity_continuous"])
    sups = decay_constants(disc)
    fit = approximation_rate(m, C, 1.0)
    checks.bound("spectral_weights.approximation_rate.slope", fit.slope,
                 tol["approx_slope"])
    clen = disc.value(1.3, 7.0)
    direct = C * eval_discrete_weight_direct(m, 1.3, 7.0)
    checks.bound("spectral_weights.eval_discrete_weight[oracle@(1.3,7)]",
                 abs(clen - direct) / abs(direct), tol["oracle_equivalence"])
    checks.bound("spectral_weights.wave_identity",
                 wave_identity_max_residual(), tol["wave_identity"])

    write_identity_csv(_artifact(ctx, "weights_identity.csv"), rep, rep_c)
    _write_table(ctx, "decay_constants.csv", ["order_l", "sup"],
                 [(l, float(v)) for l, v in sorted(sups.items())])
    _write_table(ctx, "approximation.csv", ["t", "abs_diff", "slope"],
                 [(float(t), float(d), fit.slope) for t, d in zip(fit.t_list, fit.diffs)])
    _write_table(ctx, "coefficients.csv", ["k", "c_k"],
                 enumerate(chebyshev_coefficients(m, 8.0)))
    _finish(ctx, "weights")


@main.command()
@click.pass_context
def decompose(ctx):
    """Build kernels/blocks with certificates and a summary table."""
    config, checks = ctx.obj["config"], ctx.obj["checks"]
    tol = config["tolerances"]
    kind = config["backend"]["kind"]
    op, family = _backend(config)
    rows = []
    if kind == "graph":
        from .graphs import scale_blocks
        for blk in scale_blocks(op, family, _scale_plan(config, op, family))[1]:
            j, c = blk.j, blk.certificates
            sup = float(np.max(np.abs(blk.matrix)))
            rows.append((j, c.range_bound, c.min_eig, sup))
            checks.bound(f"graph_decomposition.scale_block[j={j}].range",
                         c.max_out_of_range / max(sup, 1e-300), tol["range_rel"])
            checks.bound(f"graph_decomposition.scale_block[j={j}].psd",
                         max(0.0, -c.min_eig), c.roundoff_bound)
            fileio.write_block(_artifact(ctx, f"block_j{j:+03d}", ".bin", ".json"), blk,
                               op.m2, op.B, extra={"kind": op.kind})
        _write_table(ctx, "decompose_summary.csv",
                     ["j", "range_bound", "min_eig", "sup_norm"],
                     [(j, r, float(e), float(s)) for j, r, e, s in rows])
    else:
        from .lattice import check_wraparound, decay_fit, lattice_kernel
        spec = op.spec
        t_list = config["backend"]["t_list"]
        for t in t_list:
            check_wraparound(spec, float(t))
        if len(set(map(float, t_list))) < len(t_list):
            raise ConfigError(f"backend.t_list={t_list!r} repeats a value")
        kernels = [lattice_kernel(op, family, float(t)) for t in t_list]
        decay_rows = []  # fitted before any kernel is written: a fit may be refused
        if len(kernels) >= 2:
            for l_x, l_y in config["backend"]["decay_orders"]:
                fit = decay_fit(kernels, l_x, l_y)
                decay_rows += [(float(t), l_x, l_y, float(v), fit.slope)
                               for t, v in zip(fit.t_list, fit.max_abs)]
        for t, ker in zip(t_list, kernels):
            rows.append((float(t), ker.range_bound, ker.multiplier_min, ker.sup))
            checks.bound(f"lattice_kernels.lattice_kernel[t={t}].range",
                         ker.max_out_of_range / max(ker.sup, 1e-300),
                         tol["range_rel"])
            checks.bound(f"lattice_kernels.lattice_kernel[t={t}].psd_multiplier",
                         max(0.0, -ker.multiplier_min), ker.roundoff_bound)
            fileio.write_kernel_binary(_artifact(ctx, f"kernel_t{t}.bin"),
                                       [spec.d, spec.N, t, spec.m2, op.B],
                                       ker.values)
        _write_table(ctx, "decompose_summary.csv",
                     ["t", "range_bound", "multiplier_min", "sup_norm"], rows)
        if decay_rows:
            _write_table(ctx, "decay_fit.csv",
                         ["t", "l_x", "l_y", "max_abs", "fitted_exponent"], decay_rows)
    _finish(ctx, "decompose")


@main.command()
@click.pass_context
def reconstruct(ctx):
    """Reconstruct the Green's function from scale blocks vs its oracle."""
    config, checks = ctx.obj["config"], ctx.obj["checks"]
    tol = config["tolerances"]
    op, family = _backend(config)
    rec = reconstruct_green(op, family, _scale_plan(config, op, family))
    name = ("graph_decomposition.reconstruct_green" if config["backend"]["kind"] == "graph"
            else "lattice_kernels.reconstruct_torus_green")
    checks.bound(f"{name}.max_rel_error", rec.max_rel_error, tol[
        "reconstruction_rel_massless" if rec.deflated else "reconstruction_rel"])
    fileio.write_json(_artifact(ctx, "reconstruction.json"),
                      {"j_min": rec.plan.j_min, "j_max": rec.plan.j_max,
                       "max_rel_error": rec.max_rel_error, "tail_bound": rec.tail_bound,
                       "deflated": rec.deflated, "format_version": fileio.FORMAT_VERSION})
    _finish(ctx, "reconstruct")


def _upper_triangle_chunks(arrays):
    """Chunks [x, y] + [a[x, y] for a in arrays] of the upper triangle x <= y
    of n x n arrays, in np.triu_indices order, a few rows x at a time: at most
    max(CSV_CHUNK_ROWS, n) entries each, so no column of all n (n + 1) / 2
    entries is built."""
    n = len(arrays[0])
    x0 = 0
    while x0 < n:
        x1 = min(n, x0 + max(1, fileio.CSV_CHUNK_ROWS // (n - x0)))
        x, y = np.nonzero(np.arange(x0, x1)[:, None] <= np.arange(n))
        x += x0
        yield [x, y] + [a[x, y] for a in arrays]
        x0 = x1


@main.command()
@click.pass_context
def sample(ctx):
    """Draw multiscale field replicates and verify covariance statistically."""
    config, checks = ctx.obj["config"], ctx.obj["checks"]
    seed, sample_count, keep, z_bound = _sampler_settings(config)
    op, family = _backend(config)
    kind = config["backend"]["kind"]
    from . import sampler
    plan = _scale_plan(config, op, family)
    if kind == "graph":
        gram, kept = sampler.sample_graph(op, family, plan, seed, sample_count, keep)
        rep = sampler.covariance_report(gram, sample_count, op.field_oracle())
        header = ["x", "y", "empirical", "oracle", "z"]
        rows = op.n * (op.n + 1) // 2
        chunks = _upper_triangle_chunks([rep.empirical, rep.oracle, rep.z_scores])
    else:
        from .lattice import green_column
        power, kept = sampler.sample_torus(op, family, plan, seed, sample_count, keep)
        rep = sampler.lag_covariance_report(power, sample_count, green_column(op.spec))
        header = ["lag", "empirical", "oracle", "z"]
        rows = op.spec.size
        chunks = fileio.chunk_columns([np.arange(rows)] + [
            a.ravel() for a in (rep.empirical, rep.oracle, rep.z_scores)])
    if z_bound is None:
        z_bound = sampler.default_z_bound(rows)
    checks.bound("gff_sampler.covariance_report.max_abs_z", rep.max_abs_z,
                 float(z_bound))
    fileio.write_samples(_artifact(ctx, "samples.bin"), kept, kind,
                         plan.j_min, plan.j_max, seed)
    fileio.write_chunked_csv(_artifact(ctx, "covariance_report.csv"), header, chunks)
    _finish(ctx, "sample")


if __name__ == "__main__":
    main()
