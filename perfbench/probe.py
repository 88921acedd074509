"""Task functions the benchmark sends through the worker pool.

Spawn workers unpickle these by reference, so they live in a module of
their own that imports cheaply and never touches the tracer.
"""

from __future__ import annotations

import os
import resource
import signal
import threading
import time

from repro.verify import campaign

#: the campaign's own per-program task, captured before any patching
#: (None when the campaign no longer has one: the driver then falls
#: back to the pool's own per-task timeout and reports the hook as
#: missing)
_RUN_PROGRAM = getattr(campaign, "_run_program", None)

#: CPU seconds one verify program may take before it is cut (the
#: interleaving oracle is exponential in per-thread op counts and a few
#: generated programs near its caps run for minutes and gigabytes).
#: CPU time, not wall time, so that a busy host does not cut more.
PROGRAM_TIMEOUT_S = 4.0
#: the error text of a cut program; no other failure carries it
CUT_MESSAGE = f"program cut after {PROGRAM_TIMEOUT_S:g} CPU seconds"

#: (program, host seconds, status) for programs run in this process
SAMPLES = []


def cpu_seconds(who=resource.RUSAGE_SELF) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def warm(payload, attempt):
    """No-op pool task: returns once the worker has imported ``repro``,
    with the CPU the worker has spent so far and its max RSS."""
    return "ok", {"pid": os.getpid(), "cpu_s": cpu_seconds(),
                  "rss_kb": resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss}


class ProgramTimeout(BaseException):
    """Not an ``Exception``: the campaign's per-cell and per-program
    handlers must not turn a cut into an ordinary error result."""


def _expire(signum, frame):
    raise ProgramTimeout(CUT_MESSAGE)


def is_cut(entry: dict) -> bool:
    """Was this checkpoint entry cut by the program timeout (ours, or
    the pool's per-task timeout when the hook is missing)?  Any other
    error is a failure of the program under test."""
    errors = [e.get("error", "") for e in entry.get("errors", [])]
    return bool(errors) and all(
        CUT_MESSAGE in text or (text.startswith("timeout: cell verify/")
                                and text.endswith("exceeded its timeout"))
        for text in errors)


def run_program(payload, attempt):
    """``campaign._run_program`` bounded by :data:`PROGRAM_TIMEOUT_S`
    of CPU and timed; the result value gains ``host_s``.  A program that
    runs out of time comes back as an error of kind ``timeout`` whose
    message is :data:`CUT_MESSAGE`."""
    bounded = threading.current_thread() is threading.main_thread()
    if bounded:
        previous = signal.signal(signal.SIGPROF, _expire)
        signal.setitimer(signal.ITIMER_PROF, PROGRAM_TIMEOUT_S)
    start = time.perf_counter()
    try:
        try:
            status, value = _RUN_PROGRAM(payload, attempt)
        finally:
            if bounded:
                signal.setitimer(signal.ITIMER_PROF, 0)
                signal.signal(signal.SIGPROF, previous)
    except ProgramTimeout:
        status, value = "error", {"kind": "timeout", "message": CUT_MESSAGE,
                                  "traceback": "", "bundle": None}
    elapsed = time.perf_counter() - start
    name = payload[0]["name"]
    SAMPLES.append((name, elapsed, status))
    if status == "ok":
        value = dict(value, host_s=elapsed)
    return status, value
