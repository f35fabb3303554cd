"""Shared fixtures for the analyzer tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.check import PACKAGE_ROOT, analyze_program

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="session")
def clean_program():
    """One program analysis of the real tree (indexing is the slow part)."""
    return analyze_program(PACKAGE_ROOT)


@pytest.fixture(scope="session")
def repro_check_run():
    """``python -m repro check --jobs 2 --format json`` from the repo root.

    Returns ``(exit_code, payload)``; one subprocess serves every test
    of the module runner.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "check", "--jobs", "2",
         "--format", "json"],
        cwd=REPO_ROOT, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")})
    assert proc.stdout, proc.stderr
    return proc.returncode, json.loads(proc.stdout)
