"""The five demos, run as scripts, against their recorded output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import frobsplit

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads((Path(__file__).parent / "golden" / "demos.json").read_text(encoding="utf-8"))


def test_every_demo_has_a_record():
    assert sorted(record["demo"] for record in GOLDEN) == sorted(
        path.name for path in (ROOT / "demos").glob("*.py")
    )


@pytest.mark.parametrize("record", GOLDEN, ids=[record["demo"] for record in GOLDEN])
def test_demo_output_matches_golden(record):
    src = str(Path(frobsplit.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / record["demo"])],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == record["stdout"]
