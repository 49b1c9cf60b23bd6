"""Check that two source trees give byte-identical command-line output.

Usage:
    python tools/same_output.py OTHER_SRC

OTHER_SRC is the ``src`` directory of another checkout, for example one at
the parent commit.  Each config below runs once with the package from this
checkout's ``src`` and once with the package from OTHER_SRC, at --seed 12345,
each in a fresh directory.  The script compares the exit code, standard
output and the bytes of every file written to --out, prints one line per
config and exits 1 if any config differs.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 12345

CYCLE64_LAPLACIAN = {"backend": {"n": 64, "operator": "laplacian"}}
CYCLE32_KILLED = {"backend": {"n": 32, "operator": "killed"}, "scales": {"L_ratio": 3}}
CONFIGS = [
    ("default graph", "decompose", {}),
    ("default graph", "reconstruct", {}),
    ("default graph", "sample", {}),
    ("64-cycle laplacian", "decompose", CYCLE64_LAPLACIAN),
    ("64-cycle laplacian", "reconstruct", CYCLE64_LAPLACIAN),
    ("64-cycle laplacian R=4000", "sample",
     dict(CYCLE64_LAPLACIAN, sampler={"sample_count": 4000})),
    ("32-cycle killed L=3", "reconstruct", CYCLE32_KILLED),
    ("32-cycle killed L=3 R=2000", "sample",
     dict(CYCLE32_KILLED, sampler={"sample_count": 2000})),
    ("massless torus d=2 N=8 R=4000", "sample",
     {"backend": {"kind": "torus", "d": 2, "N": 8, "lattice_m2": 0.0},
      "sampler": {"sample_count": 4000}}),
    ("torus d=3 N=8 R=5000", "sample",
     {"backend": {"kind": "torus", "d": 3, "N": 8},
      "sampler": {"sample_count": 5000, "dump_replicates": 0}}),
    ("default torus", "decompose", {"backend": {"kind": "torus"}}),
    ("default graph j=0..4", "decompose", {"scales": {"j_min": 0, "j_max": 4}}),
    ("defaults", "weights", {}),
    ("300-cycle", "reconstruct", {"backend": {"n": 300}}),
]


def perfbench_configs():
    """The benchmark's workloads, as perfbench/run.py defines them."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from run import WORKLOADS
    return [(f"perfbench {name}", w["command"], w["config"])
            for name, w in sorted(WORKLOADS.items())]


def run(src, workdir, command, config):
    """(exit code, stdout, {file: sha256}) of one command run on src."""
    os.makedirs(workdir)
    with open(os.path.join(workdir, "config.json"), "w") as fh:
        json.dump(config, fh)
    proc = subprocess.run(
        [sys.executable, "-m", "frdecomp.cli", "--config", "config.json",
         "--seed", str(SEED), "--out", "out", command],
        cwd=workdir, env=dict(os.environ, PYTHONPATH=src), capture_output=True)
    out = os.path.join(workdir, "out")
    files = {}
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else []:
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = hashlib.sha256(fh.read()).hexdigest()
    return proc.returncode, proc.stdout, files


def differences(ours, theirs):
    (code_a, stdout_a, files_a), (code_b, stdout_b, files_b) = ours, theirs
    found = []
    if code_a != code_b:
        found.append(f"exit code {code_a} != {code_b}")
    if stdout_a != stdout_b:
        found.append("stdout")
    found += [f"--out/{name}" for name in sorted(set(files_a) | set(files_b))
              if files_a.get(name) != files_b.get(name)]
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
            print(f"{verdict}  {label} {command} (exit {a[0]}, {len(a[2])} files)",
                  flush=True)
    print(f"{failed} of {len(configs)} configs differ")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
