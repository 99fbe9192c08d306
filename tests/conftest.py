"""Shared fixtures."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tamesigns


@pytest.fixture
def run_cli():
    """Run ``python -m tamesigns ARGV`` in a child process.

    The child must run the code under test, not whatever ``tamesigns``
    console script happens to be on PATH (none is, in a checkout that
    is not installed). So it runs this interpreter with the source root
    of the ``tamesigns`` that pytest imported first on PYTHONPATH.
    ``env`` adds or overrides variables of the child's environment.
    """
    src_root = str(Path(tamesigns.__file__).resolve().parent.parent)
    base_env = dict(os.environ)
    base_env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src_root, base_env.get("PYTHONPATH")))
    )

    def run(argv, timeout, env=None):
        return subprocess.run(
            [sys.executable, "-m", "tamesigns", *argv],
            capture_output=True, env={**base_env, **(env or {})}, timeout=timeout,
        )

    return run
