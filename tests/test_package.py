import os
import subprocess
import sys

import frdecomp


def test_public_names_resolve():
    missing = [name for name in frdecomp.__all__
               if getattr(frdecomp, name, None) is None]
    assert missing == []


def test_cli_import_leaves_out_scipy_integrate_and_interpolate():
    # Importing either costs about half a second of every command's start.
    src = os.path.dirname(os.path.dirname(os.path.abspath(frdecomp.__file__)))
    code = ("import sys, frdecomp.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.integrate', 'scipy.interpolate'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), check=True)
    assert proc.stdout.strip() == "[]"
