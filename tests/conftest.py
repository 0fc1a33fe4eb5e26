"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
from pathlib import Path

import pytest


def _run_in_fresh_python(*argv, timeout=120, **env):
    """A child Python run with argv ("-c", code or "-m", "camt", ...),
    the camt this process imported first on its path, and env added."""
    import camt

    src = str(Path(camt.__file__).resolve().parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path, **env)
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=timeout
    )


@pytest.fixture(scope="session")
def fresh_python():
    """Runs a child Python on the camt under test: fresh_python(*argv,
    timeout=120, **env) returns its subprocess.CompletedProcess, with
    stdout and stderr captured as text."""
    return _run_in_fresh_python
