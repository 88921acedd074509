"""Tier-1 test environment.

The parallel executor path is exercised on every run: unless the
caller pins ``REPRO_JOBS`` explicitly, harness runs fan out over two
spawn workers, so a plain ``pytest`` invocation covers worker pickling,
in-worker trace rebuild, and order-preserving result assembly — not
just the in-process serial path.

The on-disk result cache and the crash-bundle directory are redirected
to throwaway directories so test runs stay hermetic (no reads from, or
writes to, the repo's ``benchmarks/.cache/`` or ``benchmarks/crash/``);
cache-specific tests pass their own roots.

When the ``pytest-timeout`` plugin is installed (CI installs it; the
local environment need not), every test gets a generous global timeout
so an accidental harness hang fails the run instead of wedging it.
Without the plugin, a test's own ``@pytest.mark.timeout(seconds)`` is
still enforced here with a SIGALRM timer.
"""

import atexit
import os
import shutil
import signal
import tempfile

import pytest

os.environ.setdefault("REPRO_JOBS", "2")

_CACHE_DIR = tempfile.mkdtemp(prefix="repro-test-cache-")
os.environ.setdefault("REPRO_CACHE_DIR", _CACHE_DIR)
atexit.register(shutil.rmtree, _CACHE_DIR, True)

_CRASH_DIR = tempfile.mkdtemp(prefix="repro-test-crash-")
os.environ.setdefault("REPRO_CRASH_DIR", _CRASH_DIR)
atexit.register(shutil.rmtree, _CRASH_DIR, True)


def pytest_configure(config):
    # applied only when pytest-timeout is available: the container
    # image does not ship it, but CI adds it for hang containment
    if config.pluginmanager.hasplugin("timeout"):
        if config.getoption("--timeout", None) is None:
            config.option.timeout = 300
            config.option.timeout_method = "thread"
    else:
        config.addinivalue_line(
            "markers", "timeout(seconds): fail the test after this long")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Without pytest-timeout, still honour ``@pytest.mark.timeout(s)``
    with a SIGALRM timer, so a runaway test fails instead of running on."""
    mark = item.get_closest_marker("timeout")
    if mark is None or item.config.pluginmanager.hasplugin("timeout"):
        yield
        return
    seconds = mark.args[0]

    def expire(signum, frame):
        pytest.fail(f"timed out after {seconds} s", pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
