"""Command-line front end tying together the verification suites.

A single nested JSON config governs every subcommand; flags override file
values.  Every command prints one PASS/FAIL line per contract it checks,
names the module and operation with the measured value, writes machine-first
CSV artifacts into --out, and exits 0 iff every contract holds.  Artifacts
carry no timestamps, so a rerun with the same config is byte-identical.
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
from .sampler import BlockQualityError, check_settings
from .weights import (ContinuousWeightFamily, DiscreteWeightFamily,
                      approximation_rate, chebyshev_coefficients,
                      check_decomposition_identity, coefficient_csv,
                      decay_constants, default_lambda_grid,
                      default_scale_plan, eval_discrete_weight,
                      eval_discrete_weight_direct, wave_identity_max_residual)

DEFAULT_CONFIG = {
    "seed": 20240801,
    "mollifier": {"grid_step": 1e-3, "x_max": 100.0},
    "weights": {
        "lambda_grid": None,          # null -> 0.05 .. 4 - eps step 0.05
        "eps": 1.0,
        "t_min": 1e-3,
        "t_max": 1e3,
        "nodes_per_octave": 16,
        "coefficient_dump_t": 8.0,
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
        "nodes_per_block": 16,
        "target_tail_rel": 1e-7,
    },
    "sampler": {
        "sample_count": 10000,
        "z_bound": None,              # null -> extreme-value-aware bound
        "dump_replicates": 4,
    },
    "tolerances": {
        "identity_discrete": 1e-5,
        "identity_continuous": 1e-6,
        "oracle_equivalence": 1e-9,
        "wave_identity": 1e-12,
        "approx_slope": -0.9,
        "range_rel": 1e-12,
        "psd_rel": 1e-10,
        "reconstruction_rel": 1e-5,
        "reconstruction_rel_massless": 1e-4,
    },
}


# Keys earlier versions read and this one no longer does: accepted with a
# note, so that saved configs keep working.
RETIRED_KEYS = {
    ("weights", "gamma"): "the weight families are built with gamma = 1",
    ("sampler", "deflate_zero_mode"):
        "the zero mode is deflated iff the operator is singular",
}


# Config values that select a code path, with the values each accepts.
CHOICES = {
    ("backend", "kind"): ("graph", "torus"),
    ("backend", "graph"): ("cycle", "two_vertex", "file"),
}


class ConfigError(ValueError):
    """A config the program cannot honour: an unknown key, a section that is
    not an object, a value outside CHOICES, a scale plan or sampler setting
    the library refuses, a z_bound that is not a finite number, or a retired
    key set to a value other than the one used."""


def _drop_retired(data):
    """Remove retired keys from data (in place) and return one note for each."""
    notes = []
    for (section, key), reason in RETIRED_KEYS.items():
        values = data.get(section)
        if not isinstance(values, dict) or key not in values:
            continue
        value = values.pop(key)
        name = f"{section}.{key}"
        if name == "weights.gamma" and value != 1:
            raise ConfigError(f"retired key {name} must be 1, got {value!r}")
        notes.append(f"NOTE config key {name} is retired and ignored: {reason}")
    return notes


def _check_known(defaults, data, prefix=""):
    for key, value in data.items():
        name = prefix + key
        if key not in defaults:
            raise ConfigError(f"unknown config key {name}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {name} must be an object")
            _check_known(defaults[key], value, name + ".")


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

    Every key must be one of DEFAULT_CONFIG's (ConfigError otherwise);
    retired keys are dropped, with a line in notes.
    """

    def __init__(self, data=None):
        data = {} if data is None else copy.deepcopy(data)
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        self.notes = _drop_retired(data)
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

    def __init__(self, tolerance_scale=1.0):
        self.scale = tolerance_scale
        self.rows = []

    def bound(self, name, measured, tolerance):
        tol = tolerance * self.scale
        ok = bool(measured <= tol)
        self.rows.append((name, measured, tol, ok))
        return ok

    def at_most(self, name, measured, threshold):
        """Unscaled one-sided contract (e.g. fitted slopes)."""
        ok = bool(measured <= threshold) and self.scale > 0.0
        self.rows.append((name, measured, threshold, ok))
        return ok

    def render(self):
        for name, measured, tol, ok in self.rows:
            status = "PASS" if ok else "FAIL"
            click.echo(f"{status} {name} measured={measured:.6g} tolerance={tol:.6g}")
        return all(ok for _, _, _, ok in self.rows)


def _components(config):
    mc = config["mollifier"]
    m = build_mollifier(grid_step=mc["grid_step"], x_max=mc["x_max"])
    norm = normalization_constant(m, gamma=1.0)
    return m, norm


def _graph_operator(config):
    from .graphs import GraphOperator, WeightedGraph, cycle_graph, two_vertex_graph
    b = config["backend"]
    if b["graph"] == "cycle":
        graph = cycle_graph(int(b["n"]))
    elif b["graph"] == "two_vertex":
        graph = two_vertex_graph()
    else:
        graph = WeightedGraph.from_edgelist_file(b["edges_file"])
    kind = b["operator"]
    return GraphOperator(graph, kind=kind, kappa=b.get("kappa"),
                         m2=b.get("m2") if kind == "resolvent" else None)


def _lattice_spec(config):
    from .lattice import LatticeSpec
    b = config["backend"]
    d = int(b["d"])
    a = np.array(b["a"], dtype=float) if b["a"] is not None else np.eye(d)
    return LatticeSpec(d=d, a=a, m2=float(b["lattice_m2"]), N=int(b["N"]))


def _scale_plan(config, family, lambda_min, t_min):
    """default_scale_plan for the operator with the config's scales, then the
    config's j_min / j_max where they are set."""
    s = config["scales"]
    try:
        plan = default_scale_plan(family, lambda_min, t_min, L_ratio=s["L_ratio"],
                                  nodes_per_block=int(s["nodes_per_block"]),
                                  target_tail_rel=s["target_tail_rel"])
        return dataclasses.replace(
            plan, **{k: int(s[k]) for k in ("j_min", "j_max") if s[k] is not None})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"scales: {exc}") from None


def _sampler_settings(config):
    """(seed, sample_count, dump_replicates, z_bound) of the config, refused
    as by sampler.check_settings; z_bound must be null or a finite number."""
    sc = config["sampler"]
    try:
        settings = (int(config["seed"]), int(sc["sample_count"]),
                    int(sc["dump_replicates"]))
        check_settings(*settings, names=("seed", "sampler.sample_count",
                                         "sampler.dump_replicates"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"sampler settings: {exc}") from None
    z_bound = sc["z_bound"]
    if z_bound is None or type(z_bound) in (int, float) and np.isfinite(z_bound):
        return settings + (z_bound,)
    raise ConfigError("config key sampler.z_bound must be null or a finite number, "
                      f"got {z_bound!r}")


class VerdictGroup(click.Group):
    """Command group that reports a rejected input as one FAIL verdict line.

    The library raises these errors for inputs it cannot handle (a non-power
    of two torus, a graph the sampler does not support, an unknown config
    key, ...); the CLI turns them into a FAIL line and exit code 1 instead of
    a traceback.
    """

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ConfigError, GraphError, LatticeError, BlockQualityError) as exc:
            click.echo(f"FAIL {ctx.invoked_subcommand} {type(exc).__name__}: {exc}")
            ctx.exit(1)


@click.group(cls=VerdictGroup)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None,
              help="JSON config file; flags override file values.")
@click.option("--out", "out_dir", type=click.Path(), default="frdecomp-out",
              help="Output directory for reports and artifacts.")
@click.option("--seed", type=int, default=None, help="64-bit RNG seed override.")
@click.option("--tolerance-scale", type=float, default=1.0,
              help="Multiply every bound-type tolerance (0 forces failure).")
@click.pass_context
def main(ctx, config_path, out_dir, seed, tolerance_scale):
    """Finite-range decomposition toolkit: weights, kernels, blocks, fields."""
    config = RunConfig.from_file(config_path) if config_path else RunConfig()
    for note in config.notes:
        click.echo(note)
    if seed is not None:
        config.data["seed"] = int(seed)
    ctx.obj = {"config": config, "out": out_dir,
               "checks": CheckList(tolerance_scale), "artifacts": []}


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


def _finish(ctx, command=None):
    if command is not None:
        fileio.write_manifest(ctx.obj["out"], command, ctx.obj["artifacts"])
    ok = ctx.obj["checks"].render()
    if not ok:
        failed = [name for name, _, _, okk in ctx.obj["checks"].rows if not okk]
        click.echo(f"FAILED contracts: {', '.join(failed)}")
        sys.exit(1)


@main.command()
@click.option("--lambda-grid", default=None,
              help="Comma-separated lambda values for the identity check.")
@click.pass_context
def weights(ctx, lambda_grid):
    """Run the weight-family identity/decay/approximation checks."""
    config, checks = ctx.obj["config"], ctx.obj["checks"]
    wc = config["weights"]
    tol = config["tolerances"]
    m, norm = _components(config)
    if lambda_grid is not None:
        lam = np.array([float(v) for v in lambda_grid.split(",")])
    elif wc["lambda_grid"] is not None:
        lam = np.array(wc["lambda_grid"], dtype=float)
    else:
        lam = default_lambda_grid(wc["eps"])

    disc = DiscreteWeightFamily(m, norm)
    rep = check_decomposition_identity(disc, lam, wc["t_min"], wc["t_max"],
                                       wc["nodes_per_octave"])
    checks.bound("spectral_weights.check_decomposition_identity[discrete]",
                 rep.max_certified_residual(), tol["identity_discrete"])
    cont = ContinuousWeightFamily(m, norm)
    rep_c = check_decomposition_identity(cont, lam, wc["t_min"], wc["t_max"],
                                         wc["nodes_per_octave"])
    rep.w_cont = rep_c.w_cont
    checks.bound("spectral_weights.check_decomposition_identity[continuous]",
                 rep_c.max_certified_residual(), tol["identity_continuous"])
    rep.decay_constants = decay_constants(disc)
    rep.approx_rate_fit = approximation_rate(m, 1.0, normalization=norm)
    checks.at_most("spectral_weights.approximation_rate.slope",
                   rep.approx_rate_fit.slope, tol["approx_slope"])
    w = chebyshev_coefficients(m, 7.0)
    clen = eval_discrete_weight(w, 1.3)
    direct = eval_discrete_weight_direct(m, 1.3, 7.0)
    checks.bound("spectral_weights.eval_discrete_weight[oracle@(1.3,7)]",
                 abs(clen - direct) / abs(direct), tol["oracle_equivalence"] * 10)
    checks.bound("spectral_weights.wave_identity",
                 wave_identity_max_residual(32), tol["wave_identity"])

    rep.to_csv(_artifact(ctx, "weights_identity.csv"))
    _write_table(ctx, "decay_constants.csv", ["order_l", "sup"],
                 [(l, float(v)) for l, v in sorted(rep.decay_constants.items())])
    fit = rep.approx_rate_fit
    _write_table(ctx, "approximation.csv", ["t", "abs_diff", "slope"],
                 [(float(t), float(d), fit.slope) for t, d in zip(fit.t_list, fit.diffs)])
    coefficient_csv(chebyshev_coefficients(m, wc["coefficient_dump_t"]),
                    _artifact(ctx, "coefficients.csv"))
    _finish(ctx, "weights")


@main.command()
@click.pass_context
def decompose(ctx):
    """Build kernels/blocks with certificates and a summary table."""
    config, checks = ctx.obj["config"], ctx.obj["checks"]
    tol = config["tolerances"]
    m, norm = _components(config)
    kind = config["backend"]["kind"]
    rows = []
    if kind == "graph":
        from .graphs import PLAN_T_MIN, scale_block
        op = _graph_operator(config)
        family = DiscreteWeightFamily(m, norm, B=op.B)
        plan = _scale_plan(config, family, op.spectral_gap(), PLAN_T_MIN)
        for j in range(plan.j_min, plan.j_max + 1):
            blk = scale_block(op, family, j, plan.L_ratio, plan.nodes_per_block)
            c = blk.certificates
            sup = float(np.max(np.abs(blk.matrix)))
            rows.append((j, c.range_bound, c.min_eig, sup))
            checks.bound(f"graph_decomposition.scale_block[j={j}].range",
                         c.max_out_of_range / max(sup, 1e-300), tol["range_rel"])
            checks.bound(f"graph_decomposition.scale_block[j={j}].psd",
                         max(0.0, -c.min_eig) / max(c.max_eig, 1e-300),
                         tol["psd_rel"])
            fileio.write_block(_artifact(ctx, f"block_j{j:+03d}", ".bin", ".json"), blk,
                               extra={"B": op.B, "kind": op.kind})
        _write_table(ctx, "decompose_summary.csv",
                     ["j", "range_bound", "min_eig", "sup_norm"],
                     [(j, r, float(e), float(s)) for j, r, e, s in rows])
    else:
        from .lattice import build_symbol_table, lattice_kernel
        spec = _lattice_spec(config)
        table = build_symbol_table(spec)
        family = DiscreteWeightFamily(m, norm, B=table.B)
        for t in config["backend"]["t_list"]:
            ker = lattice_kernel(spec, table, family, float(t))
            rows.append((float(t), ker.range_bound, ker.multiplier_min, ker.sup))
            checks.bound(f"lattice_kernels.lattice_kernel[t={t}].range",
                         ker.max_out_of_range / max(ker.sup, 1e-300),
                         tol["range_rel"])
            checks.bound(f"lattice_kernels.lattice_kernel[t={t}].psd_multiplier",
                         max(0.0, -ker.multiplier_min) / max(ker.multiplier_max, 1e-300),
                         tol["range_rel"])
            base = _artifact(ctx, f"kernel_t{t}", ".bin", ".csv")
            fileio.write_kernel_binary(f"{base}.bin",
                                       [spec.d, spec.N, t, spec.m2, table.B],
                                       ker.values)
            fileio.write_kernel_csv(f"{base}.csv", ker.values)
        _write_table(ctx, "decompose_summary.csv",
                     ["t", "range_bound", "multiplier_min", "sup_norm"], rows)
        t_list = [float(t) for t in config["backend"]["t_list"]]
        if len(t_list) >= 2 and config["backend"]["decay_orders"]:
            from .lattice import decay_fit
            decay_rows = []
            for l_x, l_y in config["backend"]["decay_orders"]:
                fit = decay_fit(spec, family, t_list, l_x=int(l_x), l_y=int(l_y),
                                table=table)
                decay_rows += [(float(t), int(l_x), int(l_y), float(v), fit.slope)
                               for t, v in zip(fit.t_list, fit.max_abs)]
            _write_table(ctx, "decay_fit.csv",
                         ["t", "l_x", "l_y", "max_abs", "fitted_exponent"], decay_rows)
    _finish(ctx, "decompose")


@main.command()
@click.pass_context
def reconstruct(ctx):
    """Reconstruct the Green's function from scale blocks vs its oracle."""
    config, checks = ctx.obj["config"], ctx.obj["checks"]
    tol = config["tolerances"]
    m, norm = _components(config)
    kind = config["backend"]["kind"]
    if kind == "graph":
        from .graphs import PLAN_T_MIN, reconstruct_green
        op = _graph_operator(config)
        family = DiscreteWeightFamily(m, norm, B=op.B)
        plan = _scale_plan(config, family, op.spectral_gap(), PLAN_T_MIN)
        rec = reconstruct_green(op, family, plan)
        bound = tol["reconstruction_rel_massless"] if rec.deflated \
            else tol["reconstruction_rel"]
        checks.bound("graph_decomposition.reconstruct_green.max_rel_error",
                     rec.max_rel_error, bound)
        report = {"j_min": rec.plan.j_min, "j_max": rec.plan.j_max,
                  "max_rel_error": rec.max_rel_error,
                  "tail_high_bound": rec.tail_high_bound,
                  "deflated": rec.deflated}
    else:
        from .lattice import PLAN_T_MIN, build_symbol_table, reconstruct_torus_green
        spec = _lattice_spec(config)
        table = build_symbol_table(spec)
        family = DiscreteWeightFamily(m, norm, B=table.B)
        plan = _scale_plan(config, family, table.spectral_gap(), PLAN_T_MIN)
        rec = reconstruct_torus_green(spec, family, plan, table=table)
        bound = tol["reconstruction_rel_massless"] if rec.deflated \
            else tol["reconstruction_rel"]
        checks.bound("lattice_kernels.reconstruct_torus_green.max_rel_error",
                     rec.max_rel_error, bound)
        report = {"t_max": rec.t_max, "max_rel_error": rec.max_rel_error,
                  "tail_bound": rec.tail_bound, "deflated": rec.deflated}
    report["format_version"] = fileio.FORMAT_VERSION
    fileio.write_json(_artifact(ctx, "reconstruction.json"), report)
    _finish(ctx, "reconstruct")


@main.command()
@click.pass_context
def sample(ctx):
    """Draw multiscale field replicates and verify covariance statistically."""
    config, checks = ctx.obj["config"], ctx.obj["checks"]
    seed, sample_count, keep, z_bound = _sampler_settings(config)
    m, norm = _components(config)
    kind = config["backend"]["kind"]
    from .sampler import covariance_report, sample_graph, sample_torus
    if kind == "graph":
        from .graphs import PLAN_T_MIN
        op = _graph_operator(config)
        family = DiscreteWeightFamily(m, norm, B=op.B)
        plan = _scale_plan(config, family, op.spectral_gap(), PLAN_T_MIN)
        totals, kept = sample_graph(op, family, plan, seed, sample_count, keep)
        oracle = op.green_oracle()
    else:
        from .lattice import PLAN_T_MIN, build_symbol_table, circulant_matrix, green_column
        spec = _lattice_spec(config)
        table = build_symbol_table(spec)
        family = DiscreteWeightFamily(m, norm, B=table.B)
        plan = _scale_plan(config, family, table.spectral_gap(), PLAN_T_MIN)
        totals, kept = sample_torus(spec, family, plan, seed, sample_count, keep,
                                    table=table)
        oracle = circulant_matrix(green_column(spec))
    rep = covariance_report(totals, oracle, min_samples=min(1000, sample_count))
    if z_bound is None:
        # expected maximum of m half-normal scores is ~ sqrt(2 ln 2m); a
        # fixed threshold would false-alarm on large covariance matrices
        entries = rep.oracle.shape[0] * (rep.oracle.shape[0] + 1) / 2
        z_bound = float(np.sqrt(2.0 * np.log(2.0 * entries)) + 1.0)
    checks.bound("gff_sampler.covariance_report.max_abs_z", rep.max_abs_z,
                 float(z_bound))
    fileio.write_samples(_artifact(ctx, "samples.bin"), kept, kind,
                         plan.j_min, plan.j_max, seed)
    x, y = np.triu_indices(rep.oracle.shape[0])
    fileio.write_columns_csv(_artifact(ctx, "covariance_report.csv"),
                             ["x", "y", "empirical", "oracle", "z"],
                             [x, y, rep.empirical[x, y], rep.oracle[x, y],
                              rep.z_scores[x, y]])
    _finish(ctx, "sample")


if __name__ == "__main__":
    main()
