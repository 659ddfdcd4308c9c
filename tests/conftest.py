"""Fixtures shared by the fbsde tests."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import fbsde


@pytest.fixture
def fresh_python():
    """Run a script in a new interpreter that imports the ``fbsde`` under test.

    Returns the completed process; a non-zero exit fails the test.  Use it
    for what a process loads, which an interpreter that has run other
    tests cannot show.
    """
    src = str(Path(fbsde.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    def run(script: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", textwrap.dedent(script)],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )

    return run
