"""Contracts the retired lane-batched engine was held to, on the single
engine that replaced it.

The lane engine ran several cells in lockstep over stacked matrix
storage.  It is gone: the pipeline now schedules from keys on the
in-flight ops, and the :mod:`repro.core` matrices are the hardware
reference model that ``REPRO_CHECK=1`` mirrors beside them.  The
guarantees its tests pinned still hold and are kept here under the
same names:

* the reference matrices keep their own storage per core and catch a
  corrupted incremental counter;
* a checked core (one carrying the matrix shadow) is field-identical
  to an unchecked one, and a core run after another starts pristine;
* every cell of an in-process batch is field-identical to its own
  serial run, a deadlocking core leaves its batch-mates untouched, and
  a failing cell on the worker path is an annotated hole;
* no ``lanes`` option, environment variable or CLI flag remains.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.harness as harness
from repro.core import AgeMatrix, MergedCommitMatrix, WakeupMatrix, check
from repro.harness import (CellStatus, run_config,
                           run_config_with_criticality, run_suite)
from repro.harness.cache import ResultCache
from repro.harness.parallel import Job
from repro.harness.runner import _serial_criticality_suite
from repro.isa import ProgramBuilder, trace_program
from repro.pipeline import DeadlockError, O3Core, base_config
from repro.pipeline.stages.shadow import MatrixShadow
from repro.workloads import build_suite, build_trace

SCALE = 0.1


def fields(stats):
    return dataclasses.asdict(stats)


def checked_run(trace, config, max_cycles=5_000_000):
    check.set_enabled(True)
    try:
        return O3Core(trace, config).run(max_cycles)
    finally:
        check.reset()


@pytest.fixture(scope="module")
def trace():
    return build_trace("gcc.mix", SCALE)


@pytest.fixture(scope="module")
def traces():
    return build_suite(SCALE, ["gcc.mix", "x264.divint", "mcf.chase"])


@pytest.fixture(autouse=True)
def _check_off():
    yield
    check.reset()


def _step_until(core, ready, limit=2000):
    for _ in range(limit):
        if ready():
            return
        core.step()
    pytest.fail("state never reached")


# -- the reference matrices ------------------------------------------------

class TestLaneStack:
    def test_no_cross_lane_aliasing(self, trace):
        """Two checked cores each own their shadow matrices: writing
        one core's planes leaves the other's untouched."""
        config = base_config()
        check.set_enabled(True)
        one, two = O3Core(trace, config), O3Core(trace, config)
        a, b = one.state.shadow, two.state.shadow
        for mine, theirs in ((a.iq_age.matrix.bits, b.iq_age.matrix.bits),
                             (a.wakeup.matrix.bits, b.wakeup.matrix.bits),
                             (a.merged.spec, b.merged.spec),
                             (a.merged.valid, b.merged.valid)):
            assert not np.shares_memory(mine, theirs)
            mine[...] = True
            assert not theirs.any()

    def test_bad_dimensions(self):
        for matrix in (AgeMatrix, WakeupMatrix, MergedCommitMatrix):
            with pytest.raises(ValueError):
                matrix(0)

    def test_occupancy_reductions(self, trace):
        """Mid-run, the shadow's valid planes count exactly the IQ and
        ROB occupancy the keyed state holds."""
        check.set_enabled(True)
        core = O3Core(trace, base_config())
        _step_until(core, lambda: len(core.iq_ops) >= 4)
        for _ in range(50):
            shadow = core.state.shadow
            assert shadow.iq_age.occupancy() == len(core.iq_ops)
            assert int(shadow.wakeup.valid.sum()) == len(core.iq_ops)
            assert int(shadow.merged.valid.sum()) == len(core.window)
            core.step()

    def test_verify_catches_corrupted_counter(self):
        check.set_enabled(True)
        wakeup = WakeupMatrix(8)
        wakeup.dispatch(0, [])
        wakeup.dispatch(1, [0])                   # clean matrix passes
        wakeup._pending[1] = 9                    # bits say 1
        with pytest.raises(check.CheckError, match="pending diverged"):
            wakeup.dispatch(2, [])

    def test_verify_catches_corrupted_blockers(self):
        check.set_enabled(True)
        merged = MergedCommitMatrix(8)
        merged.dispatch(0, True)
        merged.dispatch(1, False)                 # clean matrix passes
        merged._blockers[1] = 2                   # one SPEC bit older
        with pytest.raises(check.CheckError, match="blockers"):
            merged.dispatch(2, False)


# -- checked cores ---------------------------------------------------------

class TestSlotBackedCore:
    def test_identical_to_owned_storage(self, trace):
        """A core carrying the matrix shadow schedules exactly as one
        without it."""
        config = base_config(scheduler="orinoco", commit="orinoco")
        want = fields(O3Core(trace, config).run())
        assert fields(checked_run(trace, config)) == want

    def test_slot_reuse_resets_state(self, trace):
        """A core built after another has run must start pristine."""
        config = base_config()
        other = build_trace("x264.divint", SCALE)
        want = fields(O3Core(other, config).run())
        O3Core(trace, config).run()
        assert fields(O3Core(other, config).run()) == want
        checked_run(trace, config)
        assert fields(checked_run(other, config)) == want


# -- in-process batches ----------------------------------------------------

class TestLaneBatch:
    def test_identity_with_refill(self, traces):
        """Two configurations over three workloads, run in (workload,
        scale) order in one process: every cell is field-identical to
        its own serial run, and results come back in job order."""
        configs = [("A", base_config(scheduler="orinoco",
                                     commit="orinoco")),
                   ("B", base_config())]
        jobs = [Job(label, config, name, SCALE, trace=t)
                for label, config in configs for name, t in traces.items()]
        results = run_suite(jobs, workers=1)
        assert list(results) == ["A", "B"]
        for label, config in configs:
            assert list(results[label].stats) == list(traces)
            for name, t in traces.items():
                assert fields(results[label].stats[name]) == \
                    fields(O3Core(t, config).run()), f"{label}/{name}"

    def test_deadlock_in_one_lane_is_isolated(self, traces):
        """A core that exhausts its budget raises; cores run after it in
        the same process finish with serial-identical stats."""
        config = base_config()
        names = list(traces)
        want = {name: fields(O3Core(traces[name], config).run())
                for name in (names[0], names[2])}
        with pytest.raises(DeadlockError, match="budget"):
            O3Core(traces[names[1]], config).run(max_cycles=1)
        for name, stats in want.items():
            assert fields(O3Core(traces[name], config).run()) == stats

    def test_on_cell_fires_per_retirement(self, traces, tmp_path):
        """Each finished cell is flushed to the cache exactly once."""
        cache = ResultCache(tmp_path / "cache")
        seen = []
        original = cache.put
        cache.put = lambda key, stats: seen.append(key) or \
            original(key, stats)
        jobs = [Job("A", base_config(), name, SCALE, trace=t)
                for name, t in traces.items()]
        run_suite(jobs, workers=1, cache=cache)
        assert len(seen) == len(set(seen)) == len(traces)

    def test_batched_verify_runs_under_check(self, trace, monkeypatch):
        """REPRO_CHECK=1 wires the shadow comparison into the cycle
        loop: it runs on stepped cycles and the run still matches."""
        calls = []
        original = MatrixShadow.verify
        monkeypatch.setattr(
            MatrixShadow, "verify",
            lambda self, s: calls.append(s.cycle) or original(self, s))
        config = base_config()
        stats = checked_run(trace, config)
        assert calls
        assert calls == sorted(set(calls))
        assert fields(stats) == fields(O3Core(trace, config).run())


# -- property test: random programs, checked against unchecked -------------

@st.composite
def tiny_programs(draw):
    """Random short loops, small enough for many examples."""
    b = ProgramBuilder("lane-prop")
    b.li("x1", 0)
    b.li("x2", draw(st.integers(min_value=1, max_value=3)))
    b.li("x3", 0x1000)
    b.label("loop")
    for i in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(["alu", "mul", "load", "store"]))
        dst = f"x{10 + (i % 6)}"
        src = f"x{10 + ((i + 2) % 6)}"
        if kind == "alu":
            b.add(dst, src, "x1")
        elif kind == "mul":
            b.mul(dst, src, "x2")
        elif kind == "load":
            b.ld(dst, "x3", draw(st.integers(0, 3)) * 8)
        else:
            b.sd(src, "x3", draw(st.integers(0, 3)) * 8)
    b.addi("x1", "x1", 1)
    b.blt("x1", "x2", "loop")
    b.halt()
    return b.build()


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(data=st.data())
def test_property_lane_batches_match_serial(data):
    """Random tiny cells under random schedulers and commit policies:
    each checked run (matrix shadow compared every cycle) is
    field-identical to its unchecked run, and a budget-starved cell
    raises without disturbing the cells after it."""
    n_cells = data.draw(st.integers(min_value=2, max_value=5),
                        label="n_cells")
    dead = data.draw(
        st.one_of(st.none(), st.integers(0, n_cells - 1)), label="dead")
    for i in range(n_cells):
        trace = trace_program(data.draw(tiny_programs(), label=f"p{i}"))
        config = base_config(
            scheduler=data.draw(st.sampled_from(
                ["age", "rand", "mult", "orinoco"]), label=f"sched{i}"),
            commit=data.draw(st.sampled_from(["ioc", "orinoco", "rob"]),
                             label=f"commit{i}"))
        if dead == i:
            with pytest.raises(DeadlockError):
                checked_run(trace, config, max_cycles=1)
            continue
        want = fields(O3Core(trace, config).run(200_000))
        assert fields(checked_run(trace, config, 200_000)) == want, \
            f"cell {i} diverged under REPRO_CHECK"


# -- harness wiring --------------------------------------------------------

class TestHarnessWiring:
    def test_default_lanes_env(self, traces, monkeypatch):
        """``$REPRO_LANES`` is gone: the harness exports no lane knob and
        the variable changes nothing."""
        assert not hasattr(harness, "default_lanes")
        monkeypatch.delenv("REPRO_LANES", raising=False)
        want = run_config("env", base_config(), traces, workers=1,
                          use_cache=False)
        monkeypatch.setenv("REPRO_LANES", "6")
        got = run_config("env", base_config(), traces, workers=1,
                         use_cache=False)
        for name in traces:
            assert fields(got.stats[name]) == fields(want.stats[name])

    def test_repro_check_samples_a_crosscheck(self, traces, monkeypatch):
        """REPRO_CHECK=1 through the harness compares the shadow every
        stepped cycle and leaves the results unchanged."""
        calls = []
        original = MatrixShadow.verify
        monkeypatch.setattr(
            MatrixShadow, "verify",
            lambda self, s: calls.append(1) or original(self, s))
        want = run_config("chk", base_config(), traces, workers=1,
                          use_cache=False)
        assert not calls
        check.set_enabled(True)
        got = run_config("chk", base_config(), traces, workers=1,
                         use_cache=False)
        check.reset()
        assert calls, "no shadow comparison ran under REPRO_CHECK=1"
        for name in traces:
            assert fields(got.stats[name]) == fields(want.stats[name])

    def test_lane_failures_are_annotated_holes(self, traces, monkeypatch,
                                               tmp_path):
        """On the worker path a failing cell is a typed hole; its
        batch-mates complete serial-identical."""
        monkeypatch.setenv("REPRO_CRASH_DIR", str(tmp_path / "crash"))
        monkeypatch.setenv("REPRO_FAULT", "explode:iso/mcf.chase:40")
        result = run_config("iso", base_config(), traces,
                            workers=2, use_cache=False)
        assert result.statuses["mcf.chase"] is CellStatus.FAILED
        assert "InjectedFault" in result.failures["mcf.chase"].message
        for name in ("gcc.mix", "x264.divint"):
            assert result.statuses[name] is CellStatus.OK
            assert fields(result.stats[name]) == \
                fields(O3Core(traces[name], base_config()).run())

    def test_criticality_cells_never_lane_batch(self, traces):
        """The executor's criticality path matches the ad-hoc serial
        one (profile, tag, simulate) cell for cell."""
        config, profile = base_config(scheduler="cri"), base_config()
        result = run_config_with_criticality(
            "cri", config, traces, profile, workers=1, use_cache=False)
        assert result.complete()
        want = _serial_criticality_suite([("cri", config)], traces,
                                         profile)["cri"]
        for name in traces:
            assert fields(result.stats[name]) == fields(want.stats[name])

    def test_fault_runs_never_lane_batch(self, traces, monkeypatch):
        """A fault programme that matches no cell leaves every cell
        complete and serial-identical."""
        want = run_config("flt", base_config(), traces, workers=1,
                          use_cache=False)
        monkeypatch.setenv("REPRO_FAULT", "crash:no-such-cell/*")
        result = run_config("flt", base_config(), traces,
                            workers=1, use_cache=False)
        assert result.complete()
        for name in traces:
            assert fields(result.stats[name]) == fields(want.stats[name])


# -- CLI surface -----------------------------------------------------------

class TestProfileLanes:
    def test_profile_lanes_rejects_events(self, capsys):
        """``profile --lanes`` is no longer a flag."""
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["profile", "gcc.mix", "--lanes", "2", "--events"])
        assert exc.value.code == 2
        assert "--lanes" in capsys.readouterr().err
