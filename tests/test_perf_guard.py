"""Steady-state allocation guard and REPRO_CHECK self-verification.

The cycle loop constructs no new NumPy arrays in steady state.  This
guard pins that property: after a warm-up, a window of fully stepped
cycles must execute without a single call to a NumPy array
*constructor* (``np.zeros`` / ``np.empty`` / ``np.ones`` / ``np.full``
/ ``np.arange``).  A default core also allocates no ``(N, N)`` array
at all: the IQ/ROB schedulers run from age keys, dependent lists and
the SPEC frontier, not from the :mod:`repro.core` matrices.

The shim counts Python-level constructor calls.  (C-level temporaries
inside ufuncs are invisible to any Python shim.)

Set ``REPRO_NO_PERF_GUARD=1`` to skip the guard, e.g. when bisecting
an unrelated failure on a machine where the engine is being hacked on.

The second half exercises ``REPRO_CHECK=1``: with checking latched on,
the pipeline mirrors every event into the matrix reference model and
compares its answers with the keys every cycle; checked and unchecked
runs must agree over whole runs, and a corrupted key must be caught.
"""

import dataclasses
import os
import unittest.mock

import numpy as np
import pytest

from repro.core import check
from repro.criticality import CriticalityTagger, clear_tags
from repro.pipeline import O3Core, base_config
from repro.workloads import build_trace

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_NO_PERF_GUARD") == "1",
    reason="REPRO_NO_PERF_GUARD=1")

CONSTRUCTORS = ("zeros", "empty", "ones", "full", "arange")
WARMUP_STEPS = 400
GUARDED_STEPS = 200


def _counting_shim(counts):
    patchers = []
    for name in CONSTRUCTORS:
        original = getattr(np, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(*args, **kwargs)

        patchers.append(unittest.mock.patch.object(np, name, counted))
    return patchers


@pytest.mark.parametrize("scheduler,commit", [
    ("age", "ioc"),
    ("orinoco", "orinoco"),
])
def test_steady_state_cycles_allocate_nothing(scheduler, commit):
    trace = build_trace("mcf.chase", scale=0.5)
    config = base_config(scheduler=scheduler, commit=commit)
    core = O3Core(trace, config)
    # fully stepped cycles (no fast-forward): the guard covers the
    # exact per-cycle engine work
    for _ in range(WARMUP_STEPS):
        if core.done():
            break
        core.step()
    assert not core.done(), "trace too small to reach steady state"

    counts = {}
    patchers = _counting_shim(counts)
    for patcher in patchers:
        patcher.start()
    try:
        for _ in range(GUARDED_STEPS):
            if core.done():
                break
            core.step()
    finally:
        for patcher in patchers:
            patcher.stop()
    assert not counts, (
        f"steady-state cycles constructed NumPy arrays: {counts} "
        f"over {GUARDED_STEPS} cycles — a scratch buffer regressed")


def _recording_shim(shapes):
    patchers = []
    for name in CONSTRUCTORS:
        original = getattr(np, name)

        def recorded(*args, _original=original, **kwargs):
            result = _original(*args, **kwargs)
            shapes.append(result.shape)
            return result

        patchers.append(unittest.mock.patch.object(np, name, recorded))
    return patchers


@pytest.mark.parametrize("scheduler,commit", [
    ("age", "ioc"),
    ("orinoco", "orinoco"),
])
def test_default_core_allocates_no_square_matrix(scheduler, commit):
    """Construction and a whole run of a default (unchecked) core build
    no IQ- or ROB-sized (N, N) array."""
    check.reset()
    trace = build_trace("perl.branchy", scale=0.1)
    config = base_config(scheduler=scheduler, commit=commit)
    shapes = []
    patchers = _recording_shim(shapes)
    for patcher in patchers:
        patcher.start()
    try:
        O3Core(trace, config).run()
    finally:
        for patcher in patchers:
            patcher.stop()
    square = [shape for shape in shapes
              if shape in ((config.iq_size, config.iq_size),
                           (config.rob_size, config.rob_size))]
    assert not square, f"default core allocated {square}"


class TestReproCheck:
    """REPRO_CHECK=1 cross-checks the incremental caches end to end."""

    def teardown_method(self):
        check.reset()

    def test_latched_from_environment(self, monkeypatch):
        check.reset()
        monkeypatch.setenv("REPRO_CHECK", "1")
        assert check.check_enabled()
        check.reset()
        monkeypatch.setenv("REPRO_CHECK", "0")
        assert not check.check_enabled()

    @staticmethod
    def _run(trace, config, checked):
        check.set_enabled(checked)
        try:
            return dataclasses.asdict(O3Core(trace, config).run())
        finally:
            check.reset()

    @pytest.mark.parametrize("scheduler,commit", [
        ("age", "ioc"),
        ("orinoco", "orinoco"),
        ("mult", "rob"),
    ])
    def test_checked_run_matches_unchecked(self, scheduler, commit):
        """A checked run must complete without CheckError and produce
        the same statistics as the unchecked engine."""
        trace = build_trace("xalanc.hash", scale=0.3)
        config = base_config(scheduler=scheduler, commit=commit)
        assert self._run(trace, config, True) == \
            self._run(trace, config, False)

    @pytest.mark.parametrize("scheduler,commit", [
        ("orinoco", "orinoco"),
        ("age", "rob"),
    ])
    def test_checked_squash_run_matches_unchecked(self, scheduler, commit):
        """``sys.drain`` squashes on precise exceptions: the squashed
        entries must leave the SPEC set and the matrices alike."""
        trace = build_trace("sys.drain", scale=0.3)
        config = base_config(scheduler=scheduler, commit=commit)
        assert self._run(trace, config, True) == \
            self._run(trace, config, False)

    def test_checked_cri_run_matches_unchecked(self):
        """CRI with real tags: the criticality encoding is compared
        against the age-matrix order every cycle."""
        trace = build_trace("xalanc.hash", scale=0.3)
        profiler = O3Core(trace, base_config(scheduler="age"))
        profiler.run()
        tagger = CriticalityTagger()
        tagger.feed_profile(profiler.pc_l1_misses, profiler.pc_mispredicts)
        config = base_config(scheduler="cri", commit="orinoco")
        try:
            assert tagger.tag(trace) > 0
            checked = self._run(trace, config, True)
            unchecked = self._run(trace, config, False)
        finally:
            clear_tags(trace)
        assert checked == unchecked

    @staticmethod
    def _step_until(core, ready, limit=2000):
        for _ in range(limit):
            if ready():
                return
            core.step()
        pytest.fail("state never reached")

    def test_check_error_raised_on_seeded_divergence(self):
        """A bumped ``iq_pending`` disagrees with the wakeup matrix: the
        per-cycle comparison must raise (proves it compares)."""
        from repro.core.check import CheckError
        trace = build_trace("gcc.mix", scale=0.2)
        config = base_config(scheduler="age", commit="ioc")
        check.set_enabled(True)
        try:
            core = O3Core(trace, config)
            self._step_until(core, lambda: core.iq_ops)
            core.state.shadow.verify(core.state)         # healthy
            op = next(iter(core.iq_ops.values()))
            op.iq_pending += 1                           # corrupt key
            with pytest.raises(CheckError, match="wakeup"):
                core.state.shadow.verify(core.state)
        finally:
            check.reset()

    def test_check_error_raised_on_dropped_spec_seq(self):
        """A speculative seq dropped from the SPEC set moves the
        frontier past it: the merged matrix still says unsafe."""
        from repro.core.check import CheckError
        trace = build_trace("gcc.mix", scale=0.2)
        config = base_config(scheduler="orinoco", commit="orinoco")
        check.set_enabled(True)
        try:
            core = O3Core(trace, config)
            self._step_until(core, lambda: any(
                seq > min(core.spec_live, default=seq)
                for seq, op in core.window.items() if not op.wrong_path))
            core.state.shadow.verify(core.state)         # healthy
            core.spec_live.discard(min(core.spec_live))  # corrupt SPEC
            with pytest.raises(CheckError, match="SPEC frontier"):
                core.state.shadow.verify(core.state)
        finally:
            check.reset()
