"""Every script under demos/ and every python block of README.md runs to completion
against the package sources."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def run_python(args, tmp_path):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # scripts that write files put them under TMPDIR, so they land in tmp_path
    env = {**os.environ, "PYTHONPATH": pythonpath, "TMPDIR": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, *args], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_cleanly(demo, tmp_path):
    run_python([str(demo)], tmp_path)
    assert not list(tmp_path.glob("supportq-demo-*")), "demo left its temporary directory behind"


def test_readme_python_blocks_run(tmp_path):
    assert README_BLOCKS, "README.md has no python block"
    for block in README_BLOCKS:
        run_python(["-c", block], tmp_path)
