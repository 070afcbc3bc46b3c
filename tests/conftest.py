"""Hang guard for the whole suite.

A test that runs past :data:`TEST_TIMEOUT_S` (setup, call and teardown
together) makes :mod:`faulthandler` print every thread's stack and exit the
process with a failure, so a deadlock fails the run with a trace instead of
blocking it.  The limit is far above any single test's normal wall time.
"""

import faulthandler
import os
import sys

import pytest

TEST_TIMEOUT_S = 120.0

_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # Output capture swaps fd 2 during tests; keep a copy of the terminal's.
    config.stash[_STDERR_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    faulthandler.cancel_dump_traceback_later()
    os.close(config.stash[_STDERR_FD])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(
        TEST_TIMEOUT_S, exit=True, file=item.config.stash[_STDERR_FD]
    )
    yield
    faulthandler.cancel_dump_traceback_later()
