"""Compare the covariance reports of two source trees' samplers over many seeds.

Usage:
    python tools/seed_sweep.py OTHER_SRC [--seeds A:B]

OTHER_SRC is the ``src`` directory of another checkout, for example one at
the parent commit.  For each tree, one process imports that tree's package
and runs the two sample workloads of the benchmark over the seeds A, A + 1,
..., B - 1 (default 0:30):

    graph-sample   resolvent cycle, n = 256, m^2 = 0.1, 10^4 replicates
    torus-sample   2-d torus, N = 32, 4000 replicates

Each run builds the backend and scale plan as the ``sample`` command does and
reads two statistics of its covariance report: rel_error, the Frobenius norm
of (empirical - oracle) over the report's entries relative to that of the
oracle (the entries ``covariance_report.csv`` holds: the upper triangle on a
graph, every lag on a torus), and max_abs_z.  A change to the draws gives
new values of both at every seed; this shows whether it also moves their
distribution.  The script prints one line per seed and, per workload and
tree, the mean, sd, min and max of each statistic, and the share of seeds at
which this tree's rel_error exceeds OTHER_SRC's by more than 10% and 20%.

max_abs_z is also held against the bound the ``sample`` command applies by
default, this tree's ``sampler.default_z_bound`` of the report's entry count.
Per workload and tree the script prints the share of seeds above it, and one
``FAIL`` line per such seed: at that seed the command prints a FAIL line, and
a benchmark run counts it as a failed command.
"""

import argparse
import json
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

WORKLOADS = {
    "graph-sample": {"backend": {"kind": "graph", "graph": "cycle", "n": 256,
                                 "operator": "resolvent", "m2": 0.1}},
    "torus-sample": {"backend": {"kind": "torus", "d": 2, "N": 32},
                     "sampler": {"sample_count": 4000}},
}
STATISTICS = ("rel_error", "max_abs_z")


def seed_range(text):
    """range(A, B) of the text A:B, 0 <= A < B."""
    try:
        lo, hi = (int(v) for v in text.split(":"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected A:B, got {text!r}") from None
    if not 0 <= lo < hi:
        raise argparse.ArgumentTypeError(f"need 0 <= A < B, got {text!r}")
    return range(lo, hi)


def sweep(seeds):
    """Print one JSON line {workload, seed, rel_error, max_abs_z, rows} per
    workload and seed, rows the report's entry count, with the frdecomp
    package found on sys.path."""
    from frdecomp import cli, sampler
    from frdecomp.lattice import green_column

    for name, data in WORKLOADS.items():
        config = cli.RunConfig(data)
        op, family = cli._backend(config)
        plan = cli._scale_plan(config, op, family)
        count = config["sampler"]["sample_count"]
        for seed in seeds:
            if config["backend"]["kind"] == "graph":
                gram, _ = sampler.sample_graph(op, family, plan, seed, count)
                rep = sampler.covariance_report(gram, count, op.field_oracle())
                upper = np.triu_indices(op.n)
                emp, ora = rep.empirical[upper], rep.oracle[upper]
            else:
                power, _ = sampler.sample_torus(op, family, plan, seed, count)
                rep = sampler.lag_covariance_report(power, count, green_column(op.spec))
                emp, ora = rep.empirical, rep.oracle
            rel = float(np.sqrt(np.sum((emp - ora) ** 2) / np.sum(ora**2)))
            print(json.dumps({"workload": name, "seed": seed, "rel_error": rel,
                              "max_abs_z": rep.max_abs_z, "rows": emp.size}), flush=True)


def run_tree(src, seeds):
    """{(workload, seed): {statistic: value}} of the package in src."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", "--seeds",
         f"{seeds.start}:{seeds.stop}", src],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)
    if proc.returncode:
        sys.exit(f"sweep of {src} failed:\n{proc.stderr}")
    rows = [json.loads(line) for line in proc.stdout.splitlines()]
    return {(r["workload"], r["seed"]): r for r in rows}


def summarize(values):
    v = np.array(values)
    sd = v.std(ddof=1) if len(v) > 1 else 0.0
    return f"mean {v.mean():.5g} sd {sd:.2g} min {v.min():.5g} max {v.max():.5g}"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("other_src", help="src directory of the other checkout")
    ap.add_argument("--seeds", type=seed_range, default=range(0, 30),
                    help="half-open seed range A:B (default 0:30)")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        sweep(args.seeds)
        return 0
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from frdecomp.sampler import default_z_bound

    other = os.path.abspath(args.other_src)
    if not os.path.isdir(os.path.join(other, "frdecomp")):
        ap.error(f"{other} holds no frdecomp package")
    trees = {"this": run_tree(os.path.join(ROOT, "src"), args.seeds),
             "other": run_tree(other, args.seeds)}
    for name in WORKLOADS:
        print(f"{name}: seed, rel_error this / other (ratio), max_abs_z this / other")
        this = [trees["this"][name, s] for s in args.seeds]
        that = [trees["other"][name, s] for s in args.seeds]
        for seed, a, b in zip(args.seeds, this, that):
            print(f"  {seed:6d}  {a['rel_error']:.5g} / {b['rel_error']:.5g} "
                  f"({a['rel_error'] / b['rel_error']:.3f})  "
                  f"{a['max_abs_z']:.3f} / {b['max_abs_z']:.3f}")
        for stat in STATISTICS:
            for tree, rows in (("this", this), ("other", that)):
                print(f"  {stat:9s} {tree:5s}  {summarize([r[stat] for r in rows])}")
        ratio = np.array([a["rel_error"] / b["rel_error"] for a, b in zip(this, that)])
        print(f"  rel_error this > other by more than 10%: {np.mean(ratio > 1.1):.1%}, "
              f"by more than 20%: {np.mean(ratio > 1.2):.1%} "
              f"of {len(ratio)} seeds")
        for tree, records in (("this", this), ("other", that)):
            bound = default_z_bound(records[0]["rows"])
            above = [r for r in records if r["max_abs_z"] > bound]
            print(f"  max_abs_z {tree:5s} above the default bound {bound:.3f}: "
                  f"{len(above) / len(records):.1%} of {len(records)} seeds")
            for r in above:
                print(f"FAIL {name} seed {r['seed']} ({tree}): max_abs_z "
                      f"{r['max_abs_z']:.3f} > {bound:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
