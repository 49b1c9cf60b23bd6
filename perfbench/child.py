"""Run one frdecomp CLI command in this process and report what it cost.

Usage: python3 perfbench/child.py REPORT MODE CLI_ARG...

REPORT is a JSON file written after the command has finished and the CLI
arguments are passed to ``frdecomp`` unchanged.  MODE is ``run``, ``trace``
(record spans, see spans.py) or ``setup`` (exit as soon as set-up is done).
The report holds CLOCK_MONOTONIC marks (comparable with the parent's clock),
the exit code, machine and library info and, in trace mode, the spans.
Set-up ends when the command's ``normalization_constant`` call returns; if
the CLI no longer has that name, it ends once ``frdecomp.cli`` is imported.
"""

import ctypes
import glob
import json
import os
import platform
import sys
import time


def _exit_code(exc):
    if exc.code is None:
        return 0
    return exc.code if isinstance(exc.code, int) else 1


def _blas_threads(np):
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _cache_sizes():
    base = "/sys/devices/system/cpu/cpu0/cache"
    sizes = {}
    for index in sorted(glob.glob(os.path.join(base, "index*"))):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                sizes[f"L{level}-{kind}"] = fh.read().strip()
        except OSError:
            continue
    return sizes


def machine_info():
    import numpy as np
    import scipy

    import frdecomp
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "caches": _cache_sizes(),
        "frdecomp_backend": getattr(frdecomp, "BACKEND_NAME", None),
    }


def main():
    report_path, mode, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    marks = {"start": time.monotonic()}
    import frdecomp.cli as cli
    marks["imported"] = time.monotonic()
    tracer = None
    if mode == "trace":
        from spans import Tracer
        tracer = Tracer()
        tracer.install(cli.main)
    norm = getattr(cli, "normalization_constant", None)
    if norm is not None:
        def timed_normalization(*args, **kwargs):
            result = norm(*args, **kwargs)
            marks.setdefault("setup_end", time.monotonic())
            if mode == "setup":
                sys.exit(0)
            return result
        cli.normalization_constant = timed_normalization
    code = 0
    try:
        cli.main.main(args=cli_args, prog_name="frdecomp")
    except SystemExit as exc:
        code = _exit_code(exc)
    finally:
        marks["end"] = time.monotonic()
        sys.stdout.flush()
    report = {"marks": marks, "exit_code": code, "machine": machine_info(),
              "trace": tracer.dump() if tracer else None}
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    sys.exit(code)


if __name__ == "__main__":
    main()
