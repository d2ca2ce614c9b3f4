"""Repository hygiene: build and run artifacts stay out of git."""

import shutil
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def test_no_bytecode_tracked():
    if shutil.which("git") is None or not (REPO / ".git").exists():
        pytest.skip("not a git checkout")
    proc = subprocess.run(
        ["git", "ls-files", "*.pyc"], cwd=REPO,
        capture_output=True, text=True, timeout=30, check=False,
    )
    if proc.returncode != 0:
        pytest.skip(f"git ls-files failed: {proc.stderr.strip()}")
    assert proc.stdout.split() == []
