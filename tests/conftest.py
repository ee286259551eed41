import os
import sys
from pathlib import Path

import pytest

# make tests/oracles.py importable as a plain module
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail any test after which this process still has a child, running
    or ended but not reaped: ``analyze`` forks one process per later part
    of a large corpus and must reap each on every way out."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    state = "a running child" if pid == 0 else f"child {pid} unreaped"
    pytest.fail(f"the test left {state} behind")
