"""In-memory span recorder that wraps frdecomp's layer functions from outside.

Each wrapped call becomes one span: name, start, end, parent index and a few
counters derived from its arguments or result.  Spans are kept in a list and
written out once the traced command has finished.  A function is wrapped at
every name a caller can resolve it by: the attribute of its defining module
and every frdecomp module attribute bound to the same object (names taken
with ``from .x import f``), so module-top and late imports are both seen.

A target that no longer exists is recorded as absent instead of failing, so
the trace keeps working after code it names has been deleted.
"""

import importlib
import os
import sys
import time

import numpy as np

CLENSHAW = ("weights.clenshaw_folded", "weights.weighted_clenshaw_sum")


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _n3(args, kwargs, result):
    a = _arg(args, kwargs, 0, "a")
    return {"n3": float(np.shape(a)[-1]) ** 3}


def _columns(args, kwargs, result):
    u = _arg(args, kwargs, 1, "u")
    shape = np.shape(u)
    return {"columns": shape[1] if len(shape) == 2 else 1}


def _clenshaw_terms(args, kwargs, result):
    # series length x points; result has one value per point
    coeffs = _arg(args, kwargs, 0, "coeffs")
    return {"terms": np.size(coeffs) * np.size(result)}


def _weighted_terms(args, kwargs, result):
    flat = _arg(args, kwargs, 0, "coeffs_flat")
    return {"terms": np.size(flat) * np.size(result)}


def _bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _rows_bytes(args, kwargs, result):
    return dict(_bytes(args, kwargs, result), rows=len(_arg(args, kwargs, 2, "rows")))


def _components_mb(args, kwargs, result):
    return {"components_mb": result.components.nbytes / 2**20}


def _nodes(args, kwargs, result):
    return {"nodes": len(result[0])}


def _scale_j(args, kwargs, result):
    return {"j": int(_arg(args, kwargs, 2, "j"))}


def _points(args, kwargs, result):
    return {"points": np.size(_arg(args, kwargs, 0, "a"))}


def _normals(args, kwargs, result):
    count = _arg(args, kwargs, 2, "count")
    shape = _arg(args, kwargs, 3, "draw_shape")
    return int(count) * int(np.prod(shape))


def _counted(counters, args, kwargs, result):
    """Counters of one call; a signature the counter no longer fits is
    recorded, never raised into the traced program."""
    try:
        return counters(args, kwargs, result)
    except (TypeError, ValueError, AttributeError, IndexError, OSError) as exc:
        return {"counter_error": repr(exc)}


# (span name, candidate (module, attribute path) locations, counters).
# The first location that resolves defines the wrapped object.
TARGETS = [
    ("mollifier.build_mollifier", [("frdecomp.mollifier", "build_mollifier")], None),
    ("mollifier.normalization_constant",
     [("frdecomp.mollifier", "normalization_constant")], None),
    ("quadrature.log_gauss_legendre",
     [("frdecomp.quadrature", "log_gauss_legendre")], _nodes),
    ("weights.chebyshev_coefficients",
     [("frdecomp.weights", "chebyshev_coefficients")], None),
    ("weights.coefficients",
     [("frdecomp.weights", "DiscreteWeightFamily.coefficients")], None),
    ("weights.scale_integral",
     [("frdecomp.weights", "DiscreteWeightFamily.scale_integral")], None),
    ("weights.clenshaw_folded",
     [("frdecomp._accel", "clenshaw_folded"), ("frdecomp._core_np", "clenshaw_folded"),
      ("frdecomp.weights", "clenshaw_folded")], _clenshaw_terms),
    ("weights.weighted_clenshaw_sum",
     [("frdecomp._accel", "weighted_clenshaw_sum"),
      ("frdecomp._core_np", "weighted_clenshaw_sum")], _weighted_terms),
    ("lattice.build_symbol_table", [("frdecomp.lattice", "build_symbol_table")], None),
    ("lattice.plan_t_max", [("frdecomp.lattice", "plan_t_max")], None),
    ("lattice.dense_operator", [("frdecomp.lattice", "dense_operator")], None),
    ("lattice.reconstruct_torus_green",
     [("frdecomp.lattice", "reconstruct_torus_green")], None),
    ("graphs.default_scale_plan", [("frdecomp.graphs", "default_scale_plan")], None),
    ("graphs.scale_block", [("frdecomp.graphs", "scale_block")], _scale_j),
    ("graphs.block_over_interval", [("frdecomp.graphs", "block_over_interval")], None),
    ("graphs.apply", [("frdecomp.graphs", "GraphOperator.apply")], _columns),
    ("sampler.torus_mode_variances", [("frdecomp.sampler", "torus_mode_variances")], None),
    ("sampler.sample_torus", [("frdecomp.sampler", "sample_torus")], _components_mb),
    ("sampler.graph_scale_factors", [("frdecomp.sampler", "graph_scale_factors")], None),
    ("sampler.sample_graph", [("frdecomp.sampler", "sample_graph")], _components_mb),
    ("sampler.covariance_report", [("frdecomp.sampler", "covariance_report")], None),
    ("fileio.write_rows_csv", [("frdecomp.fileio", "write_rows_csv")], _rows_bytes),
    ("fileio.write_samples", [("frdecomp.fileio", "write_samples")], _bytes),
    ("linalg.solve", [("numpy.linalg", "solve")], _n3),
    ("linalg.eigh", [("numpy.linalg", "eigh")], _n3),
    ("linalg.eigvalsh", [("numpy.linalg", "eigvalsh")], _n3),
    ("fft.ifftn", [("numpy.fft", "ifftn")], _points),
]

# Counted, not timed: a span here would move the RNG time out of the
# sampler's self time, which is where the per-layer table reports it.
COUNTERS = [
    ("sampler.normals", [("frdecomp.sampler", "_batched_draws")], _normals),
]

class Tracer:
    """Records spans as lists [name, start, end, parent, counters]."""

    def __init__(self):
        self.spans = []
        self.counts = {}
        self.absent = []
        self._stack = []

    def wrap(self, name, fn, counters=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, time.monotonic(), None, parent, None]
            spans.append(record)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.monotonic()
                stack.pop()
            if counters is not None:
                record[4] = _counted(counters, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name, fn, counters):
        counts = self.counts

        def wrapper(*args, **kwargs):
            value = _counted(counters, args, kwargs, None)
            if not isinstance(value, dict):
                counts[name] = counts.get(name, 0) + value
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, cli_group):
        """Wrap every target; names that cannot be resolved go to self.absent."""
        for name, locations, counters in TARGETS:
            if not _patch(locations, lambda fn: self.wrap(name, fn, counters)):
                self.absent.append(name)
        for name, locations, counters in COUNTERS:
            if not _patch(locations, lambda fn: self.count(name, fn, counters)):
                self.absent.append(name)
        for command, cmd in cli_group.commands.items():
            cmd.callback = self.wrap(f"cli.{command}", cmd.callback)

    def dump(self):
        return {"spans": self.spans, "counts": self.counts, "absent": self.absent}


def _resolve(module_name, path):
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None, None, None
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, None, None
    fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return owner, attr, fn


def _patch(locations, make_wrapper):
    for module_name, path in locations:
        owner, attr, fn = _resolve(module_name, path)
        if fn is not None:
            break
    else:
        return False
    wrapper = make_wrapper(fn)
    setattr(owner, attr, wrapper)
    # Rebind names that frdecomp modules imported from the defining module.
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("frdecomp") and mod is not None:
            for key, val in list(vars(mod).items()):
                if val is fn:
                    setattr(mod, key, wrapper)
    return True


# ---------------------------------------------------------------------------
# aggregation

def self_times(spans, lo=float("-inf"), hi=float("inf")):
    """Per-span time inside [lo, hi] not covered by its child spans."""
    clipped = [max(0.0, min(s[2], hi) - max(s[1], lo)) for s in spans]
    own = list(clipped)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            own[s[3]] -= clipped[i]
    return own


def _outermost(spans, names):
    """Indices of spans named in names with no ancestor named in names."""
    out = []
    for i, s in enumerate(spans):
        if s[0] not in names:
            continue
        p = s[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            out.append(i)
    return out


def layer_metrics(trace, command):
    """Per-layer metrics of one traced command; absent targets read 0."""
    spans = trace["spans"]
    own = self_times(spans)
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def total(name, key=None):
        idx = by_name.get(name, [])
        if key is None:
            return sum(spans[i][2] - spans[i][1] for i in idx)
        if key == "self":
            return sum(own[i] for i in idx)
        return sum((spans[i][4] or {}).get(key, 0) for i in idx)

    def calls(name):
        return len(by_name.get(name, []))

    m = {}
    m["mollifier.build_mollifier.s"] = total("mollifier.build_mollifier")
    m["mollifier.normalization_constant.s"] = total("mollifier.normalization_constant")
    m["quadrature.log_gauss_legendre.calls"] = calls("quadrature.log_gauss_legendre")
    m["quadrature.log_gauss_legendre.nodes"] = total("quadrature.log_gauss_legendre", "nodes")
    m["weights.chebyshev_coefficients.calls"] = calls("weights.chebyshev_coefficients")
    m["weights.chebyshev_coefficients.s"] = total("weights.chebyshev_coefficients")
    coeff_calls = by_name.get("weights.coefficients", [])
    misses = {spans[i][3] for i in by_name.get("weights.chebyshev_coefficients", [])}
    hits = sum(1 for i in coeff_calls if i not in misses)
    m["weights.coefficients.hit_ratio"] = hits / len(coeff_calls) if coeff_calls else 0.0
    m["weights.scale_integral.calls"] = calls("weights.scale_integral")
    m["weights.scale_integral.s"] = total("weights.scale_integral")
    top = _outermost(spans, CLENSHAW)
    m["weights.clenshaw.s"] = sum(spans[i][2] - spans[i][1] for i in top)
    m["weights.clenshaw.terms"] = sum((spans[i][4] or {}).get("terms", 0) for i in top)
    for name in ("build_symbol_table", "plan_t_max", "dense_operator",
                 "reconstruct_torus_green"):
        m[f"lattice.{name}.s"] = total(f"lattice.{name}")
    m["lattice.reconstruct_torus_green.self_s"] = total("lattice.reconstruct_torus_green", "self")
    m["graphs.default_scale_plan.s"] = total("graphs.default_scale_plan")
    blocks = by_name.get("graphs.scale_block", [])
    m["graphs.scale_block.calls"] = len(blocks)
    m["graphs.scale_block.s"] = total("graphs.scale_block")
    m["graphs.scale_block.self_s"] = total("graphs.scale_block", "self")
    distinct = {(spans[i][4] or {}).get("j") for i in blocks}
    m["graphs.scale_block.distinct_ratio"] = len(distinct) / len(blocks) if blocks else 0.0
    m["graphs.block_over_interval.s"] = total("graphs.block_over_interval")
    m["graphs.apply.calls"] = calls("graphs.apply")
    m["graphs.apply.columns"] = total("graphs.apply", "columns")
    m["graphs.apply.s"] = total("graphs.apply")
    m["sampler.torus_mode_variances.s"] = total("sampler.torus_mode_variances")
    m["sampler.sample_torus.s"] = total("sampler.sample_torus")
    m["sampler.sample_torus.self_s"] = total("sampler.sample_torus", "self")
    m["sampler.graph_scale_factors.s"] = total("sampler.graph_scale_factors")
    m["sampler.graph_scale_factors.self_s"] = total("sampler.graph_scale_factors", "self")
    m["sampler.sample_graph.s"] = total("sampler.sample_graph")
    m["sampler.covariance_report.s"] = total("sampler.covariance_report")
    m["sampler.normals_drawn"] = trace["counts"].get("sampler.normals", 0)
    m["sampler.components_mb"] = (total("sampler.sample_torus", "components_mb")
                                  + total("sampler.sample_graph", "components_mb"))
    m["fileio.write_rows_csv.calls"] = calls("fileio.write_rows_csv")
    m["fileio.write_rows_csv.s"] = total("fileio.write_rows_csv")
    m["fileio.write_rows_csv.rows"] = total("fileio.write_rows_csv", "rows")
    m["fileio.write_rows_csv.bytes"] = total("fileio.write_rows_csv", "bytes")
    m["fileio.write_samples.s"] = total("fileio.write_samples")
    m["fileio.write_samples.bytes"] = total("fileio.write_samples", "bytes")
    for cmd in ("reconstruct", "sample"):
        m[f"cli.{cmd}.self_s"] = total(f"cli.{cmd}", "self") if cmd == command else 0.0
    for kernel in ("solve", "eigh", "eigvalsh"):
        m[f"linalg.{kernel}.calls"] = calls(f"linalg.{kernel}")
        m[f"linalg.{kernel}.s"] = total(f"linalg.{kernel}")
        m[f"linalg.{kernel}.n3"] = total(f"linalg.{kernel}", "n3")
    m["fft.ifftn.calls"] = calls("fft.ifftn")
    m["fft.ifftn.s"] = total("fft.ifftn")
    m["fft.ifftn.points"] = total("fft.ifftn", "points")
    return {k: float(v) for k, v in m.items()}


# Metrics that read 0 when a span or counter they are derived from could not
# be installed, beyond those named after the span itself.
ABSENT_METRICS = {
    "weights.clenshaw_folded": ["weights.clenshaw.s", "weights.clenshaw.terms"],
    "weights.chebyshev_coefficients": ["weights.coefficients.hit_ratio"],
    "weights.coefficients": ["weights.coefficients.hit_ratio"],
    "sampler.normals": ["sampler.normals_drawn"],
}


def absent_metrics(absent, names):
    """Metric names (from names) that depend on an absent span or counter."""
    out = []
    for target in absent:
        out += ABSENT_METRICS.get(target, [])
        out += [n for n in names if n.startswith(target + ".")]
    return sorted(set(out) & set(names))


def top_self(spans, count=8):
    """Largest self times grouped by (span, caller)."""
    own = self_times(spans)
    groups = {}
    for i, s in enumerate(spans):
        caller = spans[s[3]][0] if s[3] >= 0 else "-"
        key = (s[0], caller)
        entry = groups.setdefault(key, [0.0, 0])
        entry[0] += own[i]
        entry[1] += 1
    ranked = sorted(groups.items(), key=lambda kv: -kv[1][0])[:count]
    return [{"span": k[0], "caller": k[1], "self_s": v[0], "calls": v[1]}
            for k, v in ranked]
