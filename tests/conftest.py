"""Shared fixtures."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tamesigns
import tamesigns.cyclotomic as cyclotomic
import tamesigns.metacyclic as metacyclic


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


@pytest.fixture
def fresh_polynomial_caches(monkeypatch):
    """Empty the cyclotomic polynomial caches before and after the test.

    A test that injects a fault into the polynomial layer uses this, so
    that the fault is reached (nothing is served from a warm cache) and
    no faulted value outlives the test. It sets up after monkeypatch, so
    its final clear runs before monkeypatch restores the real functions.
    """
    cached = (
        cyclotomic._cyclotomic_squarefree,
        cyclotomic.cyclotomic_polynomial,
        cyclotomic._phi_tail,
    )
    for fn in cached:
        fn.cache_clear()
    yield
    for fn in cached:
        fn.cache_clear()


@pytest.fixture
def fresh_groups(monkeypatch):
    """Empty make_group's cache of shared groups before and after the test.

    A shared group keeps each Frobenius-Schur value it has decided and
    the orbit size it has checked irreducible for each class, so a test
    that injects a fault under either, or counts the checks, uses this:
    the fault is reached (no warm group serves the value), and no value
    formed under the fault outlives the test on a shared group. Like
    fresh_polynomial_caches, it sets up after monkeypatch, so its final
    clear runs before monkeypatch restores the real functions.
    """
    metacyclic.make_group.cache_clear()
    yield
    metacyclic.make_group.cache_clear()
