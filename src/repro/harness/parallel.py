"""Parallel experiment executor: fan simulation cells out over workers.

Every paper artefact is a grid of independent (config, workload) cells
— exactly the embarrassingly parallel shape the figures' serial loops
wasted.  :func:`run_suite` takes a flat list of :class:`Job` cells and
executes them over the fault-isolated dispatcher in
:mod:`repro.harness.resilience`, with four guarantees:

* **Determinism** — outcomes are keyed by task id and assembled in job
  order, every cell is a pure function of (config, workload name,
  scale), and cells are reconstructed identically in any process;
  parallel, serial, and cached paths return bit-identical
  :class:`~repro.pipeline.SimStats` on fault-free runs.
* **Spawn safety** — workers receive a pickled ``CoreConfig`` plus the
  *workload name, scale, and rebuild spec*
  (``WorkloadTarget.worker_spec()``), never a pickled ``Trace``: traces
  are large (megabytes of ``DynInstr``) and rebuilding from the target
  registry is both cheaper than pickling and guaranteed to reproduce
  the same instruction stream.  Registry-backed targets (synthetic
  kernels, scenario families) re-register when the worker imports
  ``repro.workloads``; trace-file targets ship ``(path, sha256)`` and
  the worker re-imports the file under a checksum guard
  (:func:`repro.workloads.ensure_target`).  The ``spawn`` start method
  is used explicitly so the executor behaves identically on every
  platform (fork would share the parent's trace cache by accident).
* **Two-stage criticality** — jobs carrying a ``profile_config``
  express the profile→tag→run dependency: stage one runs each unique
  (profile config, workload) cell exactly once, stage two feeds that
  single profile to every dependent run (the serial path re-simulated
  the profile per output config).
* **Graceful degradation** — a crashed, hung, or raising cell is an
  annotated hole in the grid, not a dead campaign: its
  :class:`SuiteResult` slot records a typed status
  (:class:`~repro.harness.resilience.CellStatus`) and a
  :class:`~repro.harness.resilience.CellFailure` (with a crash bundle
  for in-worker exceptions), healthy cells complete and are flushed to
  the cache as they finish, and Ctrl-C raises
  :class:`~repro.harness.resilience.SuiteInterrupted` naming exactly
  what finished.

The ``workers<=1`` path runs in-process with no dispatcher, no fault
injection, and seed semantics (exceptions propagate) — it is the
reference the parallel path must match bit-for-bit.

Results come back as ``{label: SuiteResult}`` with per-cell wall-clock
timings so benchmark output can report actual speedup, and an optional
:class:`~repro.harness.cache.ResultCache` short-circuits cells whose
key was already computed.
"""

from __future__ import annotations

import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..criticality import CriticalityTagger, clear_tags
from ..envutil import env_flag
from ..isa import Trace
from ..pipeline import CoreConfig, O3Core, SimStats
from ..testing import faults
from ..workloads import ensure_target, fetch_trace, get_target, has_target
from .cache import ResultCache, cache_key
from .diagnostics import build_crash_bundle, write_bundle
from .resilience import (CellFailure, CellStatus, SuiteInterrupted,
                         TaskOutcome, TaskSpec, default_cell_timeout,
                         default_chunk_size, default_max_retries,
                         get_pool, next_task_id, shutdown_pools)

__all__ = ["Job", "ProfileData", "default_use_cache",
           "default_workers", "estimate_cell_seconds", "jobs_for",
           "run_suite", "shutdown_pools"]

#: pc_l1_misses, pc_mispredicts — the profile payload fed to the tagger
ProfileData = Tuple[Dict[int, int], Dict[int, int]]


@dataclass
class Job:
    """One simulation cell: a config applied to one registry workload."""

    label: str
    config: CoreConfig
    workload: str
    scale: float = 1.0
    #: when set, this is a criticality run: profile under this config,
    #: tag the critical slices, then simulate under ``config``
    profile_config: Optional[CoreConfig] = None
    #: the caller's already-built trace of (workload, scale); the
    #: in-process path simulates it instead of fetching it again
    #: (workers always rebuild from the registry)
    trace: Optional[Trace] = field(default=None, repr=False,
                                   compare=False)

    @property
    def cell_id(self) -> str:
        return f"{self.label}/{self.workload}"


def default_workers() -> int:
    """Worker count from ``$REPRO_JOBS`` (default 1 = in-process)."""
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


def default_use_cache() -> bool:
    """Cache policy from ``$REPRO_CACHE`` (off unless set truthy —
    ``false``/``off``/``no``/``0``/unset all disable)."""
    return env_flag("REPRO_CACHE", default=False)


#: crude generation-parameter-to-seconds calibration for chunk sizing:
#: suite kernels emit ~12 trace instructions per size-parameter unit
#: and the engine sustains ~20 kcycles/sec at ~1.3 cycles/instr
_SECONDS_PER_PARAM_UNIT = 1.0 / 1300.0


def estimate_cell_seconds(workload: str, scale: float = 1.0) -> float:
    """Order-of-magnitude wall-clock estimate for one cell.

    Only used to auto-size dispatch chunks (``TaskSpec.est_seconds``);
    an estimate that is off by a few× merely changes how many cells
    share a pipe round-trip, never what they compute.
    """
    try:
        units = get_target(workload).cost_estimate(scale)
    except ValueError:
        return 0.0
    return units * _SECONDS_PER_PARAM_UNIT


def _workload_spec(workload: str):
    """The picklable rebuild recipe shipped inside worker payloads."""
    return get_target(workload).worker_spec()


def jobs_for(label: str, config: CoreConfig, traces: Dict[str, object],
             profile_config: Optional[CoreConfig] = None) -> List[Job]:
    """Jobs covering ``traces`` (registered workload targets only)."""
    jobs = []
    for name, trace in traces.items():
        scale = getattr(trace, "scale", None)
        if not has_target(name) or scale is None:
            raise ValueError(
                f"trace {name!r} is not rebuildable from the workload "
                f"target registry (register it with "
                f"repro.workloads.register_target / add_trace_target); "
                f"use the serial runner for ad-hoc traces")
        jobs.append(Job(label, config, name, scale, profile_config, trace))
    return jobs


# -- worker protocol -------------------------------------------------------
# Top-level functions so they pickle by reference under spawn.  Workers
# import repro afresh, fetch the trace through the bounded in-process
# LRU (:func:`repro.workloads.fetch_trace` — rebuilt from the registry
# on a miss, never pickled), simulate, and return (picklable) SimStats
# plus the cell's wall-clock seconds and whether its trace was an LRU
# hit.  Each guarded payload carries the target's ``worker_spec()``
# rebuild recipe (:func:`repro.workloads.ensure_target`): built-in
# targets re-register when the worker imports repro.workloads, and
# trace-file targets ship ``(path, sha256)`` so the worker re-imports
# the file — verifying the checksum — instead of unpickling megabytes
# of DynInstr.  Because worker processes persist across chunks and
# run_suite calls, and the parent sorts cells so same-workload cells
# share a chunk, successive cells stop re-generating megabyte traces.
# The _simulate_* pair is the bare reference path (used in-process when
# workers <= 1); the _guarded_* pair wraps it for the dispatcher —
# applying injected faults and converting exceptions into failure
# dicts carrying a crash-diagnostic bundle.

def _simulate_profile(task) -> Tuple[Dict[int, int], Dict[int, int], float]:
    """Stage 1: profile run → per-PC L1-miss / misprediction counts."""
    config, workload, scale = task
    trace, _hit = fetch_trace(workload, scale)
    start = time.perf_counter()
    core = O3Core(trace, config)
    core.run()
    return (dict(core.pc_l1_misses), dict(core.pc_mispredicts),
            time.perf_counter() - start)


def _simulate_cell(task, subscribers: Sequence = (),
                   trace: Optional[Trace] = None
                   ) -> Tuple[SimStats, float, bool]:
    """Stage 2: simulate one cell (tagging first for criticality runs).

    Tagging happens *inside* the try so a crash mid-``tag`` (partial
    tags) still clears the shared in-process trace on the way out.
    ``subscribers`` are attached to the core's event bus before the
    run (fault injection; empty on the reference path).  ``trace`` is
    the caller's already-built trace, if any; otherwise it comes
    through the trace LRU.  Returns ``(stats, seconds,
    trace_was_not_rebuilt)``.
    """
    config, workload, scale, profile = task
    if trace is None:
        trace, trace_hit = fetch_trace(workload, scale)
    else:
        trace_hit = True
    start = time.perf_counter()
    if profile is None:
        core = O3Core(trace, config)
        for subscriber in subscribers:
            core.bus.attach(subscriber)
        stats = core.run()
    else:
        tagger = CriticalityTagger()
        tagger.feed_profile(profile[0], profile[1])
        try:
            tagger.tag(trace)
            core = O3Core(trace, config)
            for subscriber in subscribers:
                core.bus.attach(subscriber)
            stats = core.run()
        finally:
            clear_tags(trace)
    return stats, time.perf_counter() - start, trace_hit


def _guarded_profile(payload, attempt: int):
    """Dispatcher wrapper for stage 1: fault hooks + failure capture."""
    cell_id, config, workload, scale, workload_spec, faults_text = payload
    specs = faults.parse_fault_specs(faults_text)
    faults.preflight(specs, cell_id, attempt)
    try:
        ensure_target(workload_spec)
        return "ok", _simulate_profile((config, workload, scale))
    except Exception as exc:
        tb = traceback.format_exc()
        bundle = build_crash_bundle(
            label="profile", config=config, workload=workload, scale=scale,
            exc=exc, tb=tb, attempt=attempt, faults_text=faults_text)
        return "error", {"kind": "exception",
                         "message": f"{type(exc).__name__}: {exc}",
                         "traceback": tb, "bundle": bundle}


def _guarded_cell(payload, attempt: int):
    """Dispatcher wrapper for stage 2: fault hooks + failure capture."""
    (label, config, workload, scale, workload_spec, profile,
     profile_config, faults_text) = payload
    cell_id = f"{label}/{workload}"
    specs = faults.parse_fault_specs(faults_text)
    faults.preflight(specs, cell_id, attempt)
    exploder = faults.explode_subscriber(specs, cell_id, attempt)
    subscribers = (exploder,) if exploder is not None else ()
    try:
        ensure_target(workload_spec)
        stats, elapsed, trace_hit = _simulate_cell(
            (config, workload, scale, profile), subscribers)
        return "ok", (stats, elapsed, trace_hit)
    except Exception as exc:
        tb = traceback.format_exc()
        bundle = build_crash_bundle(
            label=label, config=config, workload=workload, scale=scale,
            profile=profile, profile_config=profile_config,
            exc=exc, tb=tb, attempt=attempt, faults_text=faults_text)
        return "error", {"kind": "exception",
                         "message": f"{type(exc).__name__}: {exc}",
                         "traceback": tb, "bundle": bundle}


# -- the executor ----------------------------------------------------------

@dataclass
class _CellRecord:
    """Terminal state of one job's cell, pre-assembly."""

    status: CellStatus
    stats: Optional[SimStats] = None
    elapsed: float = 0.0
    failure: Optional[CellFailure] = None
    #: seconds spent waiting for a worker (enqueue → actual dispatch)
    queued: float = 0.0
    #: was the cell's trace reused (the job's own trace, or the
    #: in-process/in-worker LRU) rather than rebuilt?
    trace_hit: bool = False


def _finalize_failure(failure: Optional[CellFailure]
                      ) -> Optional[CellFailure]:
    """Write a failure's in-worker bundle payload to the crash dir."""
    if failure is not None and failure.bundle_data is not None:
        try:
            failure.bundle = str(write_bundle(failure.bundle_data))
        except OSError:
            pass
        failure.bundle_data = None
    return failure


def run_suite(jobs: Sequence[Job], workers: Optional[int] = None,
              cache: Optional[ResultCache] = None,
              progress: bool = False,
              timeout: Optional[float] = None,
              retries: Optional[int] = None,
              chunk: Optional[int] = None) -> Dict[str, "SuiteResult"]:
    """Execute every job; return ``{label: SuiteResult}`` in job order.

    ``workers=None`` reads ``$REPRO_JOBS``; ``workers<=1`` runs
    in-process (the bit-identical serial reference path, where
    exceptions propagate and no faults are injected).  ``cache``
    short-circuits cells (and profiles) already on disk — resolved in
    the parent *before* dispatch, so a fully warm sweep never spawns a
    worker — and receives each completed cell as it finishes.
    ``timeout`` (seconds; ``None`` reads ``$REPRO_CELL_TIMEOUT``)
    bounds each cell on the worker path; ``retries`` (``None`` reads
    ``$REPRO_RETRIES``) bounds crash retries.  ``chunk`` (``None``
    reads ``$REPRO_CHUNK``, 0/unset → auto-size from per-cell timing
    estimates) sets how many cells share one dispatch round-trip.
    Both paths run cells grouped by (workload, scale) — in-process so
    consecutive cells hit the bounded trace LRU, on workers so
    chunk-mates do — and assemble results in job order; in-process, a
    job's own ``trace`` is simulated without a lookup.  Failed cells
    come back as annotated holes in the :class:`SuiteResult`, never as
    raised exceptions.
    """
    from .runner import SuiteResult          # local: avoid import cycle
    if workers is None:
        workers = default_workers()
    if timeout is None:
        timeout = default_cell_timeout()
    if retries is None:
        retries = default_max_retries()
    if chunk is None:
        chunk = default_chunk_size()
    # the fault programme is sampled here, in the parent, and travels
    # inside task payloads: persistent pools may predate the env var,
    # and a typo'd programme must fail the suite, not silently no-op
    faults_text = os.environ.get(faults.FAULT_ENV, "")
    fault_specs = faults.parse_fault_specs(faults_text)

    def flush_cell(index: int, stats: SimStats) -> None:
        if cache is None:
            return
        cache.put(cell_keys[index], stats)
        if fault_specs:
            faults.apply_corrupt_faults(
                fault_specs, jobs[index].cell_id,
                cache.path_for(cell_keys[index]))

    # cached cells short-circuit everything, including their profiles;
    # resolving them here, before any dispatch, means a fully warm
    # sweep never touches (or spawns) the worker pool at all
    cell_keys = [cache_key(job.config, job.workload, job.scale,
                           job.profile_config) for job in jobs]
    records: Dict[int, _CellRecord] = {}
    if cache is not None:
        hits = cache.get_many(cell_keys)
        for index, key in enumerate(cell_keys):
            if key in hits:
                records[index] = _CellRecord(CellStatus.CACHED, hits[key])

    # stage 1: one profile simulation per unique (profile, workload) cell
    profile_keys = {}                        # job index -> profile cell key
    profile_cells = {}                       # key -> (config, name, scale)
    for index, job in enumerate(jobs):
        if job.profile_config is None or index in records:
            continue
        key = cache_key(job.profile_config, job.workload, job.scale)
        profile_keys[index] = key
        profile_cells.setdefault(
            key, (job.profile_config, job.workload, job.scale))
    profiles: Dict[str, ProfileData] = {}
    profile_failures: Dict[str, CellFailure] = {}
    if cache is not None:
        for key in list(profile_cells):
            hit = cache.get_profile(key)
            if hit is not None:
                profiles[key] = hit
                del profile_cells[key]
    pending = list(profile_cells.items())
    if pending and progress:
        for key, (config, name, scale) in pending:
            print(f"    profile[{config.scheduler}/{config.commit}]: "
                  f"{name}", flush=True)
    # affinity: same-(workload, scale) profiles run adjacently so they
    # hit the trace LRU (in-process) or share a chunk (workers)
    pending.sort(key=lambda kv: (kv[1][1], kv[1][2]))
    if pending and workers <= 1:
        for key, cell in pending:
            misses, mispredicts, _elapsed = _simulate_profile(cell)
            profiles[key] = (misses, mispredicts)
            if cache is not None:
                cache.put_profile(key, misses, mispredicts)
    elif pending:
        specs, key_of = [], {}
        for key, (config, name, scale) in pending:
            spec = TaskSpec(next_task_id(), f"profile/{name}",
                            _guarded_profile,
                            (f"profile/{name}", config, name, scale,
                             _workload_spec(name), faults_text),
                            est_seconds=estimate_cell_seconds(name, scale))
            specs.append(spec)
            key_of[spec.task_id] = key

        def profile_done(spec: TaskSpec, outcome: TaskOutcome) -> None:
            if outcome.status is not CellStatus.OK:
                profile_failures[key_of[spec.task_id]] = \
                    _finalize_failure(outcome.failure)
                return
            misses, mispredicts, _elapsed = outcome.value
            profiles[key_of[spec.task_id]] = (misses, mispredicts)
            if cache is not None:
                cache.put_profile(key_of[spec.task_id], misses, mispredicts)

        get_pool(workers).run(specs, timeout=timeout, retries=retries,
                              on_complete=profile_done, chunk=chunk)

    # stage 2: the remaining runs
    if progress:
        for index, job in enumerate(jobs):
            note = " (cached)" if index in records else ""
            print(f"    {job.label}: {job.workload}{note}", flush=True)
    task_indices = [index for index in range(len(jobs))
                    if index not in records]
    # affinity: run same-(workload, scale) cells adjacently.  In-process
    # that keeps the bounded trace LRU from thrashing on job order (a
    # figure lists every workload once per configuration) when jobs
    # carry no trace; on workers it lands them in the same chunk.
    # Outcomes are keyed by job index and assembled in job order below,
    # so run order never affects results.
    ordered = sorted(task_indices,
                     key=lambda i: (jobs[i].workload, jobs[i].scale,
                                    jobs[i].label))
    if workers <= 1:
        # in-process reference path: exceptions propagate (seed
        # semantics); Ctrl-C still reports what finished
        try:
            for index in ordered:
                job = jobs[index]
                profile = profiles[profile_keys[index]] \
                    if index in profile_keys else None
                stats, elapsed, trace_hit = _simulate_cell(
                    (job.config, job.workload, job.scale, profile),
                    trace=job.trace)
                records[index] = _CellRecord(CellStatus.OK, stats, elapsed,
                                             trace_hit=trace_hit)
                flush_cell(index, stats)
        except KeyboardInterrupt:
            done = [jobs[i].cell_id for i in task_indices if i in records]
            raise SuiteInterrupted(done, len(task_indices)) from None
    else:
        specs, index_of = [], {}
        for index in ordered:
            job = jobs[index]
            key = profile_keys.get(index)
            if key is not None and key not in profiles:
                # the profile this cell depends on failed upstream
                upstream = profile_failures.get(key)
                records[index] = _CellRecord(
                    CellStatus.FAILED,
                    failure=CellFailure(
                        kind="dependency",
                        message=(f"profile cell failed: "
                                 f"{upstream.summary()}" if upstream
                                 else "profile cell failed"),
                        bundle=upstream.bundle if upstream else None))
                continue
            profile = profiles[key] if key is not None else None
            spec = TaskSpec(next_task_id(), job.cell_id, _guarded_cell,
                            (job.label, job.config, job.workload,
                             job.scale, _workload_spec(job.workload),
                             profile, job.profile_config, faults_text),
                            est_seconds=estimate_cell_seconds(
                                job.workload, job.scale))
            specs.append(spec)
            index_of[spec.task_id] = index

        def cell_done(spec: TaskSpec, outcome: TaskOutcome) -> None:
            index = index_of[spec.task_id]
            if outcome.status is CellStatus.OK:
                stats, elapsed, trace_hit = outcome.value
                records[index] = _CellRecord(CellStatus.OK, stats, elapsed,
                                             queued=outcome.queued_s,
                                             trace_hit=trace_hit)
                flush_cell(index, stats)
            else:
                records[index] = _CellRecord(
                    outcome.status,
                    failure=_finalize_failure(outcome.failure),
                    queued=outcome.queued_s)

        if specs:                        # a warm sweep spawns no workers
            get_pool(workers).run(specs, timeout=timeout, retries=retries,
                                  on_complete=cell_done, chunk=chunk)
        for spec in specs:               # backstop: no task goes missing
            index = index_of[spec.task_id]
            if index not in records:
                records[index] = _CellRecord(
                    CellStatus.FAILED,
                    failure=CellFailure(kind="crash",
                                        message="no outcome recorded"))

    results: Dict[str, SuiteResult] = {}
    for index, job in enumerate(jobs):
        record = records[index]
        result = results.get(job.label)
        if result is None:
            result = results[job.label] = SuiteResult(job.label, job.config)
        result.statuses[job.workload] = record.status
        result.timings[job.workload] = record.elapsed
        result.queued[job.workload] = record.queued
        result.cached[job.workload] = record.status is CellStatus.CACHED
        result.trace_hits[job.workload] = record.trace_hit
        if record.stats is not None:
            result.stats[job.workload] = record.stats
        if record.failure is not None:
            result.failures[job.workload] = record.failure
    return results
