"""Session configuration: hypothesis profile, hang guard and the acceptance summary.

Exact-arithmetic examples have wildly varying runtimes, so the deadline is
off.  Instead, a test whose call runs past LIMIT seconds ends the run with
every thread's traceback on stderr, so a loop that never ends fails the
suite rather than hanging it.  Tests named test_criterion_<n> feed a
one-line-per-criterion verdict into the terminal summary, pass or fail, so
the tail of a full run always shows the acceptance status in one block.
"""

from __future__ import annotations

import faulthandler
import os
import re
import sys

import pytest
from hypothesis import HealthCheck, settings

# far above the slowest test (about 5 s) and the acceptance bounds (30 s)
LIMIT = 300

settings.register_profile(
    "exact",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")

_STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    # a copy of the real stderr: while a test runs, fd 2 is captured, and
    # what is written there is lost when the guard ends the process
    config.stash[_STDERR] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR])


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    faulthandler.dump_traceback_later(LIMIT, exit=True, file=item.config.stash[_STDERR])
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


_CRITERION = re.compile(r"test_criterion_(\d+)")
_verdicts: dict[int, str] = {}


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    match = _CRITERION.search(report.nodeid)
    if not match:
        return
    number = int(match.group(1))
    if report.failed:
        _verdicts[number] = "FAIL"
    elif hasattr(report, "wasxfail"):
        # a sub-claim that is expected to fail keeps the criterion honest:
        # neither a clean pass nor an unexpected failure
        if _verdicts.get(number) != "FAIL":
            _verdicts[number] = "XFAIL"
    elif report.passed:
        _verdicts.setdefault(number, "PASS")


def pytest_terminal_summary(terminalreporter):
    if not _verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_verdicts):
        terminalreporter.write_line(f"ACCEPTANCE {number} {_verdicts[number]}")
