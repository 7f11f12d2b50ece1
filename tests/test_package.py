"""What importing the package loads, checked in a fresh interpreter: the
CLI leaves ``derham`` unloaded, and every public name still resolves."""

import os
import subprocess
import sys
from pathlib import Path

import frobsplit

SRC = str(Path(frobsplit.__file__).resolve().parent.parent)


def _run(script: str) -> str:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_derham_unloaded():
    out = _run("import sys, frobsplit.cli\nprint(sorted(m for m in sys.modules if m.startswith('frobsplit')))")
    assert "'frobsplit.cli'" in out and "frobsplit.derham" not in out


def test_cli_import_leaves_importlib_resources_unloaded_without_site():
    env = {**os.environ, "PYTHONPATH": SRC}
    script = "import sys, frobsplit.cli; print('importlib.resources' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


def test_every_public_name_resolves_after_import():
    out = _run(
        "import sys, frobsplit\n"
        "assert 'frobsplit.derham' not in sys.modules\n"
        "missing = [n for n in frobsplit.__all__ if n not in dir(frobsplit)]\n"
        "assert not missing, missing\n"
        "values = [getattr(frobsplit, n) for n in frobsplit.__all__]\n"
        "assert 'frobsplit.derham' in sys.modules\n"
        "namespace = {}\n"
        "exec('from frobsplit import *', namespace)\n"
        "assert all(namespace[n] is v for n, v in zip(frobsplit.__all__, values))\n"
        "from frobsplit import derham, wedge, DifferentialForm\n"
        "assert frobsplit.wedge is derham.wedge is wedge\n"
        "try:\n"
        "    frobsplit.no_such_name\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n"
    )
    assert out == "module 'frobsplit' has no attribute 'no_such_name'\n"

