"""End-to-end and per-layer benchmark of the frdecomp command line.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table each

Run it from the root of a source checkout; the package is imported from
``src``.  Each workload is one CLI command run as a closed loop: one client,
one command at a time, each in a fresh process with a fresh, empty ``--out``
directory, until ``--seconds`` have passed (at least MIN_INVOCATIONS
commands).  The seed becomes the command's ``--seed``.

Untraced runs (``--trace 0``) report the end-to-end metrics as medians over
the run's commands:

    setup_s      process start until ``normalization_constant`` has returned,
                 over the commands and SETUP_PROBES set-up-only processes
    run_s        end of set-up until artifacts are written and verdicts shown
    peak_rss_mb  peak resident set of the command's own process (wait4)
    rel_error    relative error of the checked result against its dense
                 oracle: ``max_rel_error`` of reconstruction.json, or
                 ||empirical - oracle||_F / ||oracle||_F over the entries of
                 covariance_report.csv

A command fails if it exits non-zero, prints a FAIL line, raises, misses an
artifact, or writes an ``--out`` directory whose digest differs from the
first command of the run.  ``error_rate`` = failed / attempted is printed
with the table.

Traced runs (``--trace 1``) run one untraced command, then traced commands
that wrap every layer's public functions (see spans.py), and report the
per-layer metrics, the tracing overhead and the spans with most self time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full result set,
with machine and library info and every command's raw numbers, is written
to ``.perfbench/results/``.
"""

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench")

MIN_INVOCATIONS = 2
# Set-up-only processes at the start of an untraced run; with the commands'
# own set-ups they give set-up time several samples per run.
SETUP_PROBES = 2
# A run must end within 180 s; a command still running at this point is
# killed and counted as failed.
HARD_LIMIT_S = 165.0

WORKLOADS = {
    "graph-sample": {
        "command": "sample",
        "config": {"backend": {"kind": "graph", "graph": "cycle", "n": 256,
                               "operator": "resolvent", "m2": 0.1}},
    },
    "torus-sample": {
        "command": "sample",
        "config": {"backend": {"kind": "torus", "d": 2, "N": 32},
                   "sampler": {"sample_count": 4000}},
    },
    "torus-reconstruct": {
        "command": "reconstruct",
        "config": {"backend": {"kind": "torus", "d": 2, "N": 64}},
    },
}

ARTIFACTS = {
    "sample": {"covariance_report.csv", "report_manifest.json", "samples.bin"},
    "reconstruct": {"reconstruction.json", "report_manifest.json"},
}

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MiB", "rel_error": "ratio"}


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# one command

def digest(directory):
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(directory, name), "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def rel_error(command, out):
    if command == "reconstruct":
        with open(os.path.join(out, "reconstruction.json")) as fh:
            return float(json.load(fh)["max_rel_error"])
    # Frobenius norm over the report's entries: a sum over many entries, so
    # it varies far less between seeds than a maximum would.
    err = norm = 0.0
    with open(os.path.join(out, "covariance_report.csv"), newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        emp, ora = header.index("empirical"), header.index("oracle")
        for row in reader:
            e, o = float(row[emp]), float(row[ora])
            err += (e - o) ** 2
            norm += o * o
    return (err / norm) ** 0.5


def _wait(proc, deadline):
    """Reap proc with wait4 (its own rusage), killing it at the deadline."""
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                return usage
            if time.monotonic() > deadline:
                proc.kill()
            time.sleep(0.01)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()


def invoke(workdir, tag, workload, seed, mode, deadline):
    """Run one command in child.py's mode; return its record (timings,
    digest, failure reason)."""
    command = workload["command"]
    out = os.path.join(workdir, f"out-{tag}")
    report = os.path.join(workdir, f"report-{tag}.json")
    log = os.path.join(workdir, f"stdout-{tag}.txt")
    argv = [sys.executable, os.path.join(HERE, "child.py"), report, mode,
            "--config", os.path.join(workdir, "config.json"),
            "--out", out, "--seed", str(seed), command]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    rec = {"mode": mode, "failure": None}
    with open(log, "w") as fh:
        spawned = time.monotonic()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=env, cwd=workdir)
        usage = _wait(proc, deadline)
    rec["wall_s"] = time.monotonic() - spawned
    rec["exit_code"] = proc.returncode
    rec["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    rec["cpu_s"] = usage.ru_utime + usage.ru_stime
    with open(log) as fh:
        lines = fh.read().splitlines()
    fails = [line for line in lines if line.startswith("FAIL")]
    if proc.returncode != 0:
        rec["failure"] = f"exit code {proc.returncode}: {' | '.join(lines[-3:])}"
    elif fails:
        rec["failure"] = fails[0]
    elif not os.path.exists(report):
        rec["failure"] = "no timing report"
    if os.path.exists(report):
        with open(report) as fh:
            data = json.load(fh)
        marks = data["marks"]
        setup_end = marks.get("setup_end", marks["imported"])
        rec["setup_s"] = setup_end - spawned
        rec["run_s"] = marks["end"] - setup_end
        rec["machine"] = data["machine"]
        rec["trace"] = data["trace"]
        rec["marks"] = marks
        if mode == "setup" and "setup_end" not in marks:
            rec["failure"] = "set-up probe ran past set-up"
    if rec["failure"] is None and mode != "setup":
        found = set(os.listdir(out))
        listed = set()
        if "report_manifest.json" in found:
            with open(os.path.join(out, "report_manifest.json")) as fh:
                listed = set(json.load(fh)["artifacts"]) | {"report_manifest.json"}
        if found != ARTIFACTS[command] or listed != found:
            rec["failure"] = f"artifacts {sorted(found)}, manifest {sorted(listed)}"
        else:
            rec["digest"] = digest(out)
            rec["out"] = out
    return rec


# ---------------------------------------------------------------------------
# one run

def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def check_trace(rec):
    """Self times inside the run window: all non-negative, summing to run_s."""
    marks, trace = rec["marks"], rec["trace"]
    lo, hi = marks.get("setup_end", marks["imported"]), marks["end"]
    own = spans.self_times(trace["spans"], lo, hi)
    covered = sum(own)
    root_self = (hi - lo) - covered
    ok = min(own + [root_self]) >= -1e-6 and abs(covered + root_self - rec["run_s"]) < 1e-6
    return {"ok": ok, "min_self_s": min(own + [root_self]),
            "self_sum_s": covered + root_self, "run_s": rec["run_s"]}


def run_workload(name, workload, seed, seconds, trace):
    """Run one workload for `seconds`; return (result line, result set)."""
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    workdir = os.path.join(STATE, "work", f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    with open(os.path.join(workdir, "config.json"), "w") as fh:
        json.dump(workload["config"], fh)
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    probes, records = [], []
    first = None
    try:
        if not trace:
            probes = [invoke(workdir, f"setup-{i}", workload, seed, "setup", deadline)
                      for i in range(SETUP_PROBES)]
        while True:
            mode = "trace" if trace and records else "run"
            rec = invoke(workdir, len(records), workload, seed, mode, deadline)
            if rec["failure"] is None:
                if first is None:
                    first = rec
                    rec["rel_error"] = rel_error(workload["command"], rec["out"])
                elif rec["digest"] != first["digest"]:
                    rec["failure"] = "output digest differs from the first command"
            if "out" in rec:
                shutil.rmtree(rec.pop("out"))
            records.append(rec)
            # Start another command if it is expected to end less than half
            # a command past the run's length, so runs last `seconds` on average.
            elapsed = time.monotonic() - start
            wall = statistics.median(r["wall_s"] for r in records)
            if len(records) >= MIN_INVOCATIONS and elapsed + wall / 2 > seconds:
                break
            if elapsed + wall > HARD_LIMIT_S - 5.0:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    untraced = [r for r in records if r["mode"] == "run" and "run_s" in r]
    traced_recs = [r for r in records if r["mode"] == "trace" and "run_s" in r]
    if not untraced or (trace and not traced_recs):
        raise RuntimeError(f"{name}: no timing report: "
                           + "; ".join(str(r["failure"]) for r in records))
    attempted = probes + records
    failed = sum(1 for r in attempted if r["failure"] is not None)
    setups = [r for r in probes if r["failure"] is None] + untraced
    samples = {"setup_s": [r["setup_s"] for r in setups],
               "run_s": [r["run_s"] for r in untraced],
               "peak_rss_mb": [r["peak_rss_mb"] for r in untraced]}
    summary = {}
    for metric, vals in samples.items():
        q1, med, q3 = quartiles(vals)
        summary[metric] = {"value": med, "q1": q1, "q3": q3, "n": len(vals),
                           "unit": END_TO_END[metric]}
    # A run without one correct output counts as 100% relative error.
    err = first["rel_error"] if first is not None else 1.0
    summary["rel_error"] = {"value": err, "q1": err, "q3": err, "n": 1, "unit": "ratio"}
    summary["error_rate"] = {"value": failed / len(attempted), "q1": None, "q3": None,
                             "n": len(attempted), "unit": "ratio"}
    result_set = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                  "config": workload["config"], "command": workload["command"],
                  "machine": untraced[0]["machine"], "summary": summary,
                  "commands": [{k: v for k, v in r.items()
                                if k not in ("trace", "machine")} for r in attempted]}
    correct = failed == 0 and first is not None
    if trace:
        per_cmd = [spans.layer_metrics(r["trace"], workload["command"]) for r in traced_recs]
        layer = {k: statistics.median(m[k] for m in per_cmd) for k in per_cmd[0]}
        layer["trace.overhead_s"] = (statistics.median(r["run_s"] for r in traced_recs)
                                     - summary["run_s"]["value"])
        checks = [check_trace(r) for r in traced_recs]
        absent = sorted(set(a for r in traced_recs for a in r["trace"]["absent"]))
        miscounted = sorted({s[0] for r in traced_recs for s in r["trace"]["spans"]
                             if s[4] and "counter_error" in s[4]})
        result_set.update(per_layer=layer, trace_checks=checks, absent=absent,
                          counter_errors=miscounted,
                          absent_metrics=spans.absent_metrics(absent, list(layer)),
                          top_self=spans.top_self(traced_recs[0]["trace"]["spans"]))
        correct = correct and all(c["ok"] for c in checks)
    result_set["correct"] = correct
    line = {"correct": correct, "attempted": len(attempted), "failed": failed}
    return line, result_set


def select_metrics(result_set, bench):
    """The declared metrics of this run, as {name: {value, unit}}."""
    if result_set["trace"]:
        layer = result_set["per_layer"]
        return {m["name"]: {"value": layer[m["name"]], "unit": m["unit"]}
                for m in bench["per_layer"]}
    summary = result_set["summary"]
    return {m["name"]: {"value": summary[m["name"]]["value"], "unit": m["unit"]}
            for m in bench["end_to_end"]}


def print_report(result_set):
    name, machine = result_set["workload"], result_set["machine"]
    print(f"== {name}  seed {result_set['seed']}  trace {int(result_set['trace'])}  "
          f"command {result_set['command']}")
    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"{'metric':<14}{'median':>14}{'q1':>14}{'q3':>14}  {'unit':<6}{'n':>4}")
    for metric, s in result_set["summary"].items():
        q1 = "-" if s["q1"] is None else f"{s['q1']:.6g}"
        q3 = "-" if s["q3"] is None else f"{s['q3']:.6g}"
        print(f"{metric:<14}{s['value']:>14.6g}{q1:>14}{q3:>14}  {s['unit']:<6}{s['n']:>4}")
    for rec in result_set["commands"]:
        if rec["failure"]:
            print(f"failed command: {rec['failure']}")
    if result_set["trace"]:
        for key, val in sorted(result_set["per_layer"].items()):
            print(f"  {key:<42}{val:>16.6g}")
        for c in result_set["trace_checks"]:
            print(f"trace accounting: ok={c['ok']} min_self_s={c['min_self_s']:.3g} "
                  f"self_sum_s={c['self_sum_s']:.6f} run_s={c['run_s']:.6f}")
        print(f"trace overhead_s {result_set['per_layer']['trace.overhead_s']:.4f}")
        if result_set["absent"]:
            print("absent spans: " + ", ".join(result_set["absent"]))
            print("absent metrics (reported as 0): "
                  + ", ".join(result_set["absent_metrics"]))
        if result_set["counter_errors"]:
            print("spans whose counters failed (counted as 0): "
                  + ", ".join(result_set["counter_errors"]))
        print("top self time (span <- caller): self_s calls")
        for row in result_set["top_self"]:
            print(f"  {row['span']} <- {row['caller']}: {row['self_s']:.4f} {row['calls']}")


def save(result_set):
    path = os.path.join(STATE, "results", f"{result_set['workload']}-seed{result_set['seed']}"
                        f"-trace{int(result_set['trace'])}.json")
    with open(path, "w") as fh:
        json.dump(result_set, fh, indent=1)
    print(f"result set written to {os.path.relpath(path, ROOT)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must fit in 64 bits")
    if not os.path.isfile(os.path.join(ROOT, "src", "frdecomp", "cli.py")):
        print(f"error: no frdecomp sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    # Turn SIGTERM into SystemExit so the finally blocks kill running commands.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    line = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            one, result_set = run_workload(name, WORKLOADS[name], args.seed, seconds,
                                           bool(args.trace))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_report(result_set)
        save(result_set)
        prefix = f"{name}/" if len(names) > 1 else ""
        line["correct"] = line["correct"] and one["correct"]
        line["attempted"] += one["attempted"]
        line["failed"] += one["failed"]
        line["metrics"].update({prefix + k: v
                                for k, v in select_metrics(result_set, bench).items()})
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
