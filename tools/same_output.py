"""Check that two source trees give byte-identical command-line output.

Usage:
    python tools/same_output.py OTHER_SRC

OTHER_SRC is the ``src`` directory of another checkout, for example one at
the parent commit.  Each config below runs once with the package from this
checkout's ``src`` and once with the package from OTHER_SRC, at --seed 12345,
each in a fresh directory that also holds the edge list the config names
from EDGE_LISTS, if any.  The script compares the exit code, standard
output and the bytes of every file written to --out, prints one line per
config, with the peak resident set of both runs (this checkout's / OTHER_SRC's,
from wait4), and exits 1 if any config differs.  For each file that differs
it also prints the largest difference of its numbers: the float64 values of
a ``.bin`` file, each CSV column and each JSON number, where an array or
column differs by max |a - b| / max |b| (relative) and by max |a - b|
(absolute).
The relative figure is taken against the array's own maximum, so an array of
near-zero values can read large there while its absolute move is tiny.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 12345

# Edge lists a config may name as backend.edges_file; run() writes the one a
# config names into that config's work directory.
EDGE_LISTS = {
    # a 6-cycle plus the chord 0-3: the vertex measure is not constant
    "chord6.txt": "".join(f"{i} {(i + 1) % 6} 1.0\n" for i in range(6)) + "0 3 1.0\n",
    # two disjoint 8-cycles: a singular operator has one zero mode per component
    "two_cycles8.txt": "".join(f"{s + i} {s + (i + 1) % 8} 1.0\n"
                               for s in (0, 8) for i in range(8)),
}

CYCLE64_LAPLACIAN = {"backend": {"n": 64, "operator": "laplacian"}}
CYCLE32_KILLED = {"backend": {"n": 32, "operator": "killed"}, "scales": {"L_ratio": 3}}
CHORD6_KILLED = {"backend": {"graph": "file", "edges_file": "chord6.txt",
                             "operator": "killed"}}
CHORD6_LAPLACIAN = {"backend": {"graph": "file", "edges_file": "chord6.txt",
                                "operator": "laplacian"}}
TWO_CYCLES8 = {"backend": {"graph": "file", "edges_file": "two_cycles8.txt",
                           "operator": "laplacian"}}
# a resolvent that is singular because a == b
GRAPH_M2_ZERO = {"backend": {"m2": 0.0}}
CONFIGS = [
    ("default graph", "decompose", {}),
    ("default graph killed", "decompose", {"backend": {"operator": "killed"}}),
    # perfbench's graph-sample operator
    ("256-cycle m2=0.1", "decompose", {"backend": {"n": 256, "m2": 0.1}}),
    ("default graph", "reconstruct", {}),
    # against a tree that still reads these keys, only the NOTE lines differ
    ("retired settings at their values", "reconstruct",
     {"mollifier": {"grid_step": 1e-3, "x_max": 100},
      "weights": {"coefficient_dump_t": 8}}),
    ("default graph", "sample", {}),
    ("64-cycle laplacian", "decompose", CYCLE64_LAPLACIAN),
    ("64-cycle laplacian", "reconstruct", CYCLE64_LAPLACIAN),
    ("64-cycle laplacian R=4000", "sample",
     dict(CYCLE64_LAPLACIAN, sampler={"sample_count": 4000})),
    ("32-cycle killed L=3", "decompose", CYCLE32_KILLED),
    ("32-cycle killed L=3", "reconstruct", CYCLE32_KILLED),
    ("6-cycle plus chord, killed", "decompose", CHORD6_KILLED),
    ("6-cycle plus chord, killed", "reconstruct", CHORD6_KILLED),
    # singular, with a vertex measure that is not constant
    ("6-cycle plus chord, laplacian", "reconstruct", CHORD6_LAPLACIAN),
    ("6-cycle plus chord, laplacian", "sample", CHORD6_LAPLACIAN),
    ("two 8-cycles, laplacian", "reconstruct", TWO_CYCLES8),
    ("two 8-cycles, laplacian", "sample", TWO_CYCLES8),
    ("default graph m2=0", "reconstruct", GRAPH_M2_ZERO),
    ("default graph m2=0", "sample", GRAPH_M2_ZERO),
    ("32-cycle killed L=3 R=2000", "sample",
     dict(CYCLE32_KILLED, sampler={"sample_count": 2000})),
    ("massless torus d=2 N=8 R=4000", "sample",
     {"backend": {"kind": "torus", "d": 2, "N": 8, "lattice_m2": 0.0},
      "sampler": {"sample_count": 4000}}),
    # perfbench's torus-sample, pinned here should the benchmark's workloads change
    ("torus d=2 N=32 R=4000", "sample",
     {"backend": {"kind": "torus", "d": 2, "N": 32}, "sampler": {"sample_count": 4000}}),
    ("torus d=3 N=8 R=5000", "sample",
     {"backend": {"kind": "torus", "d": 3, "N": 8},
      "sampler": {"sample_count": 5000, "dump_replicates": 0}}),
    # counts across a replicate batch, dumps across two drawn slices
    ("default graph R=6000 dump 4200", "sample",
     {"sampler": {"sample_count": 6000, "dump_replicates": 4200}}),
    ("torus d=1 N=32 R=6000 dump 4200", "sample",
     {"backend": {"kind": "torus", "d": 1, "N": 32},
      "sampler": {"sample_count": 6000, "dump_replicates": 4200}}),
    ("default torus", "decompose", {"backend": {"kind": "torus"}}),
    # every difference order the decay fit takes, up to the largest t N = 64 allows
    ("torus d=2 N=64 decay orders", "decompose",
     {"backend": {"kind": "torus", "d": 2, "N": 64, "t_list": [8, 16, 31],
                  "decay_orders": [[0, 0], [1, 0], [0, 1], [1, 1]]}}),
    ("massless anisotropic torus d=2 N=16", "reconstruct",
     {"backend": {"kind": "torus", "d": 2, "N": 16, "a": [[1.0, 0.3], [0.3, 1.5]],
                  "lattice_m2": 0.0}}),
    ("default graph j=0..4", "decompose", {"scales": {"j_min": 0, "j_max": 4}}),
    # a plan whose degree-0 blocks j = -2, -1, 0 are scales of their own
    ("default graph j_min=-2", "sample", {"scales": {"j_min": -2}}),
    ("defaults", "weights", {}),
    # the continuous closed form and tail_low off whole octaves
    ("weights window [0.3, 50]", "weights",
     {"weights": {"t_min": 0.3, "t_max": 50.0, "lambda_grid": [0.05, 1.0, 3.9]}}),
    ("300-cycle", "reconstruct", {"backend": {"n": 300}}),
    ("1024-cycle", "reconstruct", {"backend": {"n": 1024}}),
    # 65,536 eigenvalues through DiscreteWeightFamily.tail_high
    ("torus d=2 N=256", "reconstruct", {"backend": {"kind": "torus", "d": 2, "N": 256}}),
]


def perfbench_configs():
    """The benchmark's workloads, as perfbench/run.py defines them."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from run import WORKLOADS
    return [(f"perfbench {name}", w["command"], w["config"])
            for name, w in sorted(WORKLOADS.items())]


def run(src, workdir, command, config):
    """(exit code, stdout, {file: sha256}, out dir, peak RSS in MiB) of one
    command run on src."""
    os.makedirs(workdir)
    with open(os.path.join(workdir, "config.json"), "w") as fh:
        json.dump(config, fh)
    edges = config.get("backend", {}).get("edges_file")
    if edges in EDGE_LISTS:
        with open(os.path.join(workdir, edges), "w") as fh:
            fh.write(EDGE_LISTS[edges])
    with subprocess.Popen(
            [sys.executable, "-m", "frdecomp.cli", "--config", "config.json",
             "--seed", str(SEED), "--out", "out", command],
            cwd=workdir, env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
        stdout = proc.stdout.read()
        # reap the command here: wait4 gives its own peak RSS (KiB on Linux)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    out = os.path.join(workdir, "out")
    files = {}
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = hashlib.sha256(fh.read()).hexdigest()
    return proc.returncode, stdout, files, out, usage.ru_maxrss / 1024


def _diff(a, b):
    """(max |a - b| / max |b|, max |a - b|) over paired arrays; NaN equals NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    same_nan = np.isnan(a) & np.isnan(b)
    diff = np.where(same_nan, 0.0, np.abs(a - b))
    if np.isnan(diff).any():
        return np.inf, np.inf
    top = float(np.max(np.abs(np.where(same_nan, 0.0, b)), initial=0.0))
    worst = float(np.max(diff, initial=0.0))
    return worst / top if top > 0 else (np.inf if worst > 0 else 0.0), worst


def _json_leaves(obj, path=""):
    """(path, value) of every leaf of a JSON value."""
    if isinstance(obj, dict):
        return [leaf for k in sorted(obj) for leaf in _json_leaves(obj[k], f"{path}.{k}")]
    if isinstance(obj, list):
        return [leaf for i, x in enumerate(obj) for leaf in _json_leaves(x, f"{path}.{i}")]
    return [(path, obj)]


def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _header_mask(values, name):
    """Where a .bin artifact holds header fields, not payload (frdecomp.fileio):
    five at the start, or five per record of samples.bin, whose records hold
    (j_max - j_min + 2) x size values after the header."""
    mask = np.zeros(values.shape, dtype=bool)
    if name != "samples.bin":
        mask[:5] = True
    elif values.size:
        record = 5 + (int(values[3]) - int(values[2]) + 2) * int(values[1])
        mask[np.arange(values.size) % record < 5] = True
    return mask


def numeric_difference(path_a, path_b):
    """(largest relative difference, its absolute one, where) of the numbers
    in two files of one name, or a few words saying why they do not pair up
    number by number: the .bin payload, each CSV column, each JSON number."""
    if path_b.endswith(".bin"):
        a, b = np.fromfile(path_a), np.fromfile(path_b)
        if a.shape != b.shape:
            return "sizes differ"
        head = _header_mask(b, os.path.basename(path_b))
        if _diff(a[head], b[head])[1] > 0:
            return "headers differ"
        return *_diff(a[~head], b[~head]), "payload"
    if path_b.endswith(".csv"):
        # write_columns_csv writes numeric columns only
        with open(path_a) as fa, open(path_b) as fb:
            header = fb.readline().strip().split(",")
            if fa.readline().strip().split(",") != header:
                return "headers differ"
        a, b = (np.loadtxt(p, delimiter=",", skiprows=1, ndmin=2)
                for p in (path_a, path_b))
        if a.shape != b.shape:
            return "shapes differ"
        return max(((*_diff(x, y), name) for x, y, name in zip(a.T, b.T, header)),
                   default=(0.0, 0.0, "no rows"))
    if path_b.endswith(".json"):
        with open(path_a) as fa, open(path_b) as fb:
            a, b = _json_leaves(json.load(fa)), _json_leaves(json.load(fb))
        if [p for p, _ in a] != [p for p, _ in b]:
            return "structure differs"
        worst = (0.0, 0.0, "no numbers")
        for (path, x), (_, y) in zip(a, b):
            if _is_number(x) and _is_number(y):
                worst = max(worst, (*_diff([x], [y]), path.lstrip(".")))
            elif x != y:
                return f"text differs at {path.lstrip('.')}"
        return worst
    return "not compared"


def differences(ours, theirs):
    code_a, stdout_a, files_a, out_a, _ = ours
    code_b, stdout_b, files_b, out_b, _ = theirs
    found = []
    if code_a != code_b:
        found.append(f"exit code {code_a} != {code_b}")
    if stdout_a != stdout_b:
        found.append("stdout")
    for name in sorted(set(files_a) | set(files_b)):
        if files_a.get(name) == files_b.get(name):
            continue
        if name not in files_a or name not in files_b:
            found.append(f"--out/{name} (only in one)")
            continue
        diff = numeric_difference(os.path.join(out_a, name), os.path.join(out_b, name))
        if isinstance(diff, tuple):
            diff = f"max rel {diff[0]:.2g} (abs {diff[1]:.2g}) in {diff[2]}"
        found.append(f"--out/{name} ({diff})")
    return found


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("other_src", help="src directory of the other checkout")
    args = ap.parse_args(argv)
    other = os.path.abspath(args.other_src)
    if not os.path.isdir(os.path.join(other, "frdecomp")):
        ap.error(f"{other} holds no frdecomp package")
    ours = os.path.join(ROOT, "src")
    configs = perfbench_configs() + CONFIGS
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, command, config) in enumerate(configs):
            a = run(ours, os.path.join(tmp, f"{i}a"), command, config)
            b = run(other, os.path.join(tmp, f"{i}b"), command, config)
            found = differences(a, b)
            failed += bool(found)
            verdict = "DIFF " + ", ".join(found) if found else "same"
            print(f"{verdict}  {label} {command} (exit {a[0]}, {len(a[2])} files, "
                  f"peak RSS {a[4]:.1f} / {b[4]:.1f} MiB)", flush=True)
    print(f"{failed} of {len(configs)} configs differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
