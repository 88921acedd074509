"""Workload target registry: kinds, scenarios, trace-file ingestion.

The acceptance pin lives here: a trace recorded from a kernel and
re-imported as a trace-file target must simulate field-identical to
the in-memory kernel across the serial, ``--jobs 2`` and cache-hit
execution paths.
"""

import dataclasses
import json

import pytest

from repro.harness import CellStatus, ResultCache, jobs_for, run_config
from repro.isa import save_trace
from repro.pipeline import O3Core, base_config
from repro.workloads import (InterleaveTarget, TraceFileTarget,
                             add_trace_target, build_trace, ensure_target,
                             get_target, has_target, kernel_names,
                             register_target, sweep_names, target_names,
                             unregister_target, workload_fingerprint)
from repro.workloads.scenarios import ADDR_STRIDE, PC_STRIDE

SCALE = 0.25


def fields(stats):
    return dataclasses.asdict(stats)


class TestRegistry:
    def test_synthetic_and_scenario_kinds_registered(self):
        assert len(target_names(kind="synthetic")) >= 12
        assert set(target_names(kind="scenario")) >= \
            {"smt.gccdiv", "sys.drain", "phase.flip"}

    def test_sweep_covers_every_kind(self):
        names = sweep_names()
        assert set(kernel_names()) < set(names)
        assert "smt.gccdiv" in names

    def test_unknown_target_names_choices(self):
        with pytest.raises(ValueError, match="unknown workload target"):
            get_target("no.such.kernel")

    def test_synthetic_fingerprint_tracks_scale(self):
        assert workload_fingerprint("gcc.mix", 0.5) != \
            workload_fingerprint("gcc.mix", 0.6)
        fp = workload_fingerprint("gcc.mix", 0.5)
        assert fp == {"kind": "synthetic", "params": {"n": 350}}

    def test_scenario_fingerprint_embeds_components(self):
        fp = workload_fingerprint("smt.gccdiv", SCALE)
        assert fp["kind"] == "scenario" and fp["family"] == "interleave"
        assert workload_fingerprint("gcc.mix", SCALE) in fp["components"]

    def test_fingerprints_are_json_stable(self):
        for name in sweep_names():
            blob = json.dumps(workload_fingerprint(name, SCALE),
                              sort_keys=True)
            assert json.loads(blob) == workload_fingerprint(name, SCALE)


class TestScenarioFamilies:
    def test_seq_equals_index(self):
        # the timing model's fetch/squash paths index the trace by seq
        for name in ("smt.gccdiv", "sys.drain", "phase.flip"):
            trace = build_trace(name, SCALE, use_cache=False)
            assert all(instr.seq == index
                       for index, instr in enumerate(trace))

    def test_builds_are_deterministic(self):
        for name in ("smt.gccdiv", "sys.drain", "phase.flip"):
            a = build_trace(name, SCALE, use_cache=False)
            b = build_trace(name, SCALE, use_cache=False)
            assert [repr(i) for i in a] == [repr(i) for i in b]

    def test_interleave_keeps_programs_disjoint(self):
        trace = build_trace("smt.gccdiv", SCALE, use_cache=False)
        programs = {instr.pc // PC_STRIDE for instr in trace}
        assert programs == {0, 1}
        for instr in trace:
            if instr.addr is not None:
                assert instr.addr // ADDR_STRIDE == instr.pc // PC_STRIDE
        # both component streams survive the merge in full
        merged = sum(len(build_trace(c, SCALE, use_cache=False))
                     for c in ("gcc.mix", "x264.divint"))
        assert len(trace) == merged

    def test_drain_injects_faults_and_core_skips_them(self):
        source = build_trace("gcc.mix", SCALE, use_cache=False)
        drained = build_trace("sys.drain", SCALE, use_cache=False)
        injected = (sum(1 for i in drained if i.fault)
                    - sum(1 for i in source if i.fault))
        assert injected > 0
        stats = O3Core(drained, base_config()).run()
        assert stats.exceptions >= injected
        assert stats.committed < len(drained)

    def test_drain_does_not_mutate_component(self):
        source = build_trace("gcc.mix", SCALE)       # shared LRU object
        before = sum(1 for i in source if i.fault)
        build_trace("sys.drain", SCALE, use_cache=False)
        assert sum(1 for i in source if i.fault) == before

    def test_scenarios_simulate_identically_across_workers(self):
        config = base_config()
        traces = {name: build_trace(name, SCALE)
                  for name in ("smt.gccdiv", "sys.drain", "phase.flip")}
        serial = run_config("s", config, traces, workers=1,
                            use_cache=False)
        parallel = run_config("s", config, traces, workers=2,
                              use_cache=False)
        for name in traces:
            assert fields(parallel.stats[name]) == \
                fields(serial.stats[name])

    def test_custom_scenario_registration(self):
        target = InterleaveTarget("tmp.mix", ("gcc.mix", "perl.branchy"),
                                  seed=99)
        try:
            register_target(target)
            assert has_target("tmp.mix")
            trace = build_trace("tmp.mix", SCALE, use_cache=False)
            assert len(trace) > 100
        finally:
            unregister_target("tmp.mix")


@pytest.fixture
def recorded(tmp_path):
    """A gcc.mix trace recorded to disk and imported as a target."""
    source = build_trace("gcc.mix", SCALE)
    path = tmp_path / "gcc.jsonl"
    save_trace(source, path, meta={"source": "gcc.mix", "scale": SCALE})
    target = add_trace_target(path, name="ext.gcc")
    yield target, source
    unregister_target("ext.gcc")


class TestTraceFileTarget:
    def test_kind_fingerprint_provenance(self, recorded, tmp_path):
        target, _ = recorded
        assert target.kind == "trace-file"
        fp = target.fingerprint(SCALE)
        assert fp == {"kind": "trace-file", "sha256": target.sha256}
        assert "gcc.mix" in target.provenance()
        # content identity: a byte-identical copy fingerprints the same
        copy = tmp_path / "copy.jsonl"
        copy.write_bytes(target.path.read_bytes())
        assert TraceFileTarget("copy", copy).sha256 == target.sha256

    def test_jobs_for_accepts_trace_file_targets(self, recorded):
        # the registry-only restriction is lifted: registered
        # trace-file targets ride the parallel executor
        traces = {"ext.gcc": build_trace("ext.gcc", SCALE)}
        jobs = jobs_for("l", base_config(), traces)
        assert jobs[0].workload == "ext.gcc"

    def test_checksum_mismatch_rejected(self, recorded):
        target, _ = recorded
        spec = ("trace-file", "ext.gcc.alias", str(target.path),
                "0" * 64)
        with pytest.raises(ValueError, match="checksum mismatch"):
            ensure_target(spec)

    def test_content_edit_detected_at_build(self, recorded):
        target, _ = recorded
        lines = target.path.read_text().splitlines()
        target.path.write_text("\n".join(lines) + " \n")
        with pytest.raises(ValueError, match="checksum mismatch"):
            target.build_trace(SCALE)

    def test_worker_spec_rebuilds_in_process(self, recorded):
        target, _ = recorded
        unregister_target("ext.gcc")
        rebuilt = ensure_target(target.worker_spec())
        assert rebuilt.sha256 == target.sha256
        assert has_target("ext.gcc")


class TestTraceFileDeterminismPin:
    """Recorded trace-file target ≡ source kernel, on every path."""

    @staticmethod
    def _numeric(stats):
        # SimStats.name embeds the workload label ("ext.gcc/..." vs
        # "gcc.mix/...") by design; every measured field must match
        payload = fields(stats)
        payload.pop("name")
        return payload

    @pytest.fixture(autouse=True)
    def _setup(self, recorded):
        self.target, self.source = recorded
        self.config = base_config(scheduler="orinoco", commit="orinoco")
        self.reference = self._numeric(O3Core(self.source,
                                              self.config).run())
        self.traces = {"ext.gcc": build_trace("ext.gcc", SCALE)}

    def _assert_matches(self, result, path):
        assert self._numeric(result.stats["ext.gcc"]) == self.reference, \
            f"trace-file target diverged from source kernel on {path}"

    def test_serial(self):
        self._assert_matches(
            run_config("pin", self.config, self.traces, workers=1,
                       use_cache=False), "serial")

    def test_jobs_2(self):
        # workers rebuild the target from (path, sha256) — never from
        # a pickled trace or the parent's registry
        self._assert_matches(
            run_config("pin", self.config, self.traces, workers=2,
                       use_cache=False), "--jobs 2")

    def test_cache_hit(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        first = run_config("pin", self.config, self.traces, workers=1,
                           cache=cache)
        self._assert_matches(first, "cache cold")
        second = run_config("pin", self.config, self.traces, workers=1,
                            cache=cache)
        assert second.statuses["ext.gcc"] is CellStatus.CACHED
        self._assert_matches(second, "cache hit")

    def test_cache_key_is_content_addressed(self, tmp_path):
        from repro.harness import cache_key
        key_here = cache_key(self.config, "ext.gcc", SCALE)
        # same content under another path/registration → same key
        copy = tmp_path / "elsewhere.jsonl"
        copy.write_bytes(self.target.path.read_bytes())
        unregister_target("ext.gcc")
        add_trace_target(copy, name="ext.gcc")
        assert cache_key(self.config, "ext.gcc", SCALE) == key_here
