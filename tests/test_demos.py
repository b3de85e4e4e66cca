"""Every demo script, and every `python` block of README.md, runs to
completion against the current package."""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)


def run(script: Path, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(script)], cwd=cwd, env=env, capture_output=True, text=True, timeout=60
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    # Run in tmp_path: some demos write their output files into the
    # working directory.
    done = run(demo, tmp_path)
    assert done.returncode == 0, done.stderr


def test_the_readme_has_python_blocks():
    assert len(README_BLOCKS) >= 2


@pytest.mark.parametrize("block", README_BLOCKS, ids=["readme-%d" % i for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block, tmp_path):
    # The "Library use" example ranks `plant_src/`: here, the test corpus.
    shutil.copytree(ROOT / "tests" / "corpus", tmp_path / "plant_src")
    script = tmp_path / "example.py"
    script.write_text(block, encoding="utf-8")
    done = run(script, tmp_path)
    assert done.returncode == 0, done.stderr
