"""Fixtures shared by the fbsde tests."""

import os
import subprocess
import sys
import textwrap
import tracemalloc
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


@pytest.fixture
def traced_peak():
    """``traced_peak(fn, *args)`` is ``fn(*args)`` and the peak bytes allocated
    above the level at the call, under tracemalloc."""

    def measure(fn, *args):
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            result = fn(*args)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        return result, peak

    return measure
