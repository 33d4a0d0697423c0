import faulthandler
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))

# A test still running after this many seconds is taken to hang: every
# thread's stack goes to stderr and the run ends with exit code 1, so a
# hang fails the suite instead of holding it.  No test takes more than
# about 10 s.
TEST_TIME_LIMIT_S = 120


def pytest_configure(config):
    # a duplicate of stderr taken before any test captures it, so that the
    # stacks reach the terminal
    config.time_limit_stream = os.fdopen(os.dup(sys.stderr.fileno()), "w")


def pytest_unconfigure(config):
    config.time_limit_stream.close()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT_S, exit=True,
                                      file=item.config.time_limit_stream)
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
