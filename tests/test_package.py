import os
import subprocess
import sys

import frdecomp


def test_public_names_resolve():
    missing = [name for name in frdecomp.__all__
               if getattr(frdecomp, name, None) is None]
    assert missing == []


# Graph sample on a 16-cycle, torus sample and torus reconstruct on an 8 x 8
# torus: the benchmarked command paths, at small sizes.
SCIPY_FREE_RUNS = r"""
import json, os, sys
import frdecomp.cli as cli
runs = [("sample", {"sampler": {"sample_count": 1000}}),
        ("sample", {"backend": {"kind": "torus", "N": 8},
                    "sampler": {"sample_count": 1000}}),
        ("reconstruct", {"backend": {"kind": "torus", "N": 8}})]
for i, (command, config) in enumerate(runs):
    with open(f"config{i}.json", "w") as fh:
        json.dump(config, fh)
    try:
        cli.main.main(args=["--config", f"config{i}.json", "--out", f"out{i}", command],
                      prog_name="frdecomp")
    except SystemExit as exc:
        assert exc.code in (0, None), (command, config, exc.code)
    assert os.path.exists(os.path.join(f"out{i}", "report_manifest.json"))
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


def test_benchmarked_commands_load_no_scipy(tmp_path):
    # Importing any scipy module costs about half a second of every
    # command's start, through scipy's array-API layer.
    src = os.path.dirname(os.path.dirname(os.path.abspath(frdecomp.__file__)))
    proc = subprocess.run([sys.executable, "-c", SCIPY_FREE_RUNS], cwd=tmp_path,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert proc.stdout.splitlines()[-1] == "[]"
