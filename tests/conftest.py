"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail the test that leaves a child process running or unreaped."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        return
    state = "running" if pid == 0 else f"unreaped: pid {pid}, status {status}"
    pytest.fail(f"the test left a child process behind ({state})")
