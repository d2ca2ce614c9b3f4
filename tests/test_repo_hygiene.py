"""Repository hygiene: build and run artifacts stay out of git."""

import shutil
import subprocess
from pathlib import Path, PurePosixPath

import pytest

REPO = Path(__file__).resolve().parent.parent


def _tracked(*pathspec):
    if shutil.which("git") is None or not (REPO / ".git").exists():
        pytest.skip("not a git checkout")
    proc = subprocess.run(
        ["git", "ls-files", *pathspec], cwd=REPO,
        capture_output=True, text=True, timeout=30, check=False,
    )
    if proc.returncode != 0:
        pytest.skip(f"git ls-files failed: {proc.stderr.strip()}")
    return proc.stdout.splitlines()


def test_no_bytecode_tracked():
    assert _tracked("*.pyc") == []


def test_no_egg_info_tracked():
    """setuptools metadata (``*.egg-info/``) is build output."""
    assert [path for path in _tracked()
            if any(part.endswith(".egg-info")
                   for part in PurePosixPath(path).parts)] == []


def test_serve_layer_never_uses_wait_for():
    """Every await under ``repro.serve`` is bounded by
    ``asyncio.timeout``.  On CPython 3.11 ``asyncio.wait_for`` returns
    its inner result when a cancel lands as that result arrives, so a
    task stopped that way (a health loop under ``Gateway.stop``, a
    connect under shutdown) keeps running."""
    serve = REPO / "src" / "repro" / "serve"
    offenders = [path.name for path in sorted(serve.glob("*.py"))
                 if "wait_for" in path.read_text()]
    assert offenders == []
