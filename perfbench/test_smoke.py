"""Smoke test of the benchmark at tiny sizes (graph n=16, torus N=8, R=1000).

Run from the repository root:  python3 -m pytest perfbench/test_smoke.py
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import spans  # noqa: E402

TINY = {
    "graph-sample": {"backend": {"kind": "graph", "graph": "cycle", "n": 16,
                                 "operator": "resolvent", "m2": 0.1},
                     "sampler": {"sample_count": 1000}},
    "torus-sample": {"backend": {"kind": "torus", "d": 2, "N": 8},
                     "sampler": {"sample_count": 1000}},
    "torus-reconstruct": {"backend": {"kind": "torus", "d": 2, "N": 8}},
}

# Per-layer metrics that must be non-zero on each workload: the layer the
# workload is meant to stress.
BUSY = {
    "graph-sample": ["graphs.apply.calls", "graphs.block_over_interval.s",
                     "sampler.graph_scale_factors.s", "linalg.eigh.calls",
                     "sampler.normals_drawn", "cli.sample.self_s"],
    "torus-sample": ["fft.ifftn.calls", "sampler.sample_torus.self_s",
                     "fileio.write_rows_csv.rows", "sampler.components_mb",
                     "weights.clenshaw.terms"],
    "torus-reconstruct": ["linalg.solve.calls", "lattice.reconstruct_torus_green.self_s",
                          "weights.scale_integral.calls", "cli.reconstruct.self_s"],
}


@pytest.fixture(scope="module")
def bench():
    return run.load_benchmark()


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_metric_emitted_and_finite(name, trace, bench):
    workload = dict(run.WORKLOADS[name], config=TINY[name])
    line, result_set = run.run_workload(name, workload, seed=5, seconds=1, trace=trace)
    assert line["correct"], result_set["commands"]
    assert line["failed"] == 0 and line["attempted"] >= run.MIN_INVOCATIONS
    metrics = run.select_metrics(result_set, bench)
    declared = bench["per_layer" if trace else "end_to_end"]
    assert sorted(metrics) == sorted(m["name"] for m in declared)
    assert all(math.isfinite(m["value"]) for m in metrics.values())
    if trace:
        assert result_set["absent"] == [] and result_set["counter_errors"] == []
        assert all(c["ok"] for c in result_set["trace_checks"])
        for metric in BUSY[name]:
            assert metrics[metric]["value"] > 0, metric
    else:
        assert all(m["value"] > 0 for m in metrics.values())
        assert result_set["machine"]["numpy"]


def test_missing_target_marked_absent():
    assert not spans._patch([("frdecomp._removed_module", "kernel"),
                             ("frdecomp.weights", "removed_function")], lambda fn: fn)
    names = ["weights.clenshaw.s", "graphs.apply.calls", "graphs.apply.s", "fft.ifftn.s"]
    assert spans.absent_metrics(["weights.clenshaw_folded", "graphs.apply"], names) == [
        "graphs.apply.calls", "graphs.apply.s", "weights.clenshaw.s"]
    # a counter that no longer fits the call is recorded, not raised
    assert "counter_error" in spans._counted(spans._rows_bytes, ("no-such-file",), {}, None)


def test_self_times_partition_the_root():
    # [name, start, end, parent, counters]
    tree = [["root", 0.0, 10.0, -1, None], ["a", 1.0, 4.0, 0, None],
            ["b", 2.0, 3.0, 1, None], ["c", 5.0, 6.0, 0, None]]
    assert spans.self_times(tree) == [6.0, 2.0, 1.0, 1.0]
    window = spans.self_times(tree, 2.5, 5.5)
    assert window == [1.0, 1.0, 0.5, 0.5]
    assert sum(window) == 3.0


def test_fails_without_program(tmp_path):
    root = os.path.dirname(HERE)
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "torus-reconstruct",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        with pytest.raises(ValueError):
            json.loads(line)
