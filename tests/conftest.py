import os

import pytest
from hypothesis import settings

settings.register_profile(
    "suite", max_examples=50, deadline=None, database=None, derandomize=True
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def no_child_process_left_behind():
    """Fail a test after which this process still has a child, running or not reaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    pytest.fail("a child process outlived the test" + (f" (pid {pid})" if pid else ""))
