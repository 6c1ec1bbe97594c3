"""Fixtures shared by every test module."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fail a test that ends with a child process still running or unreaped.

    Commands that run two length families at once fork one child each, and
    that child must never outlive the command.
    """
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:         # no child at all
        return
    pytest.fail("the test left a child process behind: "
                + (f"pid {pid}, exited unreaped" if pid else "still running"))
