import json
import os
import subprocess
import sys

import pytest

import frdecomp


def test_public_names_resolve():
    missing = [name for name in frdecomp.__all__
               if getattr(frdecomp, name, None) is None]
    assert missing == []


# Graph sample on a 16-cycle, torus sample and torus reconstruct on an 8 x 8
# torus: the benchmarked command paths, at small sizes; and graph reconstruct
# on the 16-cycle, which evaluates its series on the dense eigensystem.
SCIPY_FREE_RUNS = r"""
import json, os, sys
import frdecomp.cli as cli
runs = [("sample", {"sampler": {"sample_count": 1000}}),
        ("sample", {"backend": {"kind": "torus", "N": 8},
                    "sampler": {"sample_count": 1000}}),
        ("reconstruct", {"backend": {"kind": "torus", "N": 8}}),
        ("reconstruct", {})]
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


@pytest.mark.parametrize("command, config", [
    ("reconstruct", {"backend": {"kind": "torus", "N": 8}}),
    ("sample", {"sampler": {"sample_count": 1000}})])
def test_setup_ends_at_one_normalization_after_the_mollifier(tmp_path, monkeypatch,
                                                             command, config):
    # perfbench/child.py ends a command's set-up when the normalization_constant
    # it finds on frdecomp.cli returns: each command must call it once, right
    # after build_mollifier.
    import frdecomp.cli as cli
    calls = []
    build, normalize = cli.build_mollifier, cli.normalization_constant

    def recording_build(*args, **kwargs):
        calls.append("build_mollifier")
        return build(*args, **kwargs)

    def recording_normalize(*args, **kwargs):
        calls.append("normalization_constant")
        C = normalize(*args, **kwargs)
        assert type(C) is float
        return C

    monkeypatch.setattr(cli, "build_mollifier", recording_build)
    monkeypatch.setattr(cli, "normalization_constant", recording_normalize)
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    cli.main.main(args=["--config", str(tmp_path / "cfg.json"), "--out",
                        str(tmp_path / "out"), command],
                  prog_name="frdecomp", standalone_mode=False)
    assert calls == ["build_mollifier", "normalization_constant"]
    assert os.path.exists(tmp_path / "out" / "report_manifest.json")
