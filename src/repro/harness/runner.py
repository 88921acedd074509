"""Experiment runner: simulate suites of (config, workload) pairs.

``run_config`` / ``run_config_with_criticality`` keep their original
signatures but now submit through the parallel executor
(:mod:`repro.harness.parallel`): ``workers`` defaults to ``$REPRO_JOBS``
and ``use_cache`` to ``$REPRO_CACHE``, so the serial seed behaviour is
unchanged unless the environment (or a caller) opts in.  Ad-hoc traces
that are not rebuildable from the workload registry fall back to the
in-process serial path automatically.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..criticality import CriticalityTagger, clear_tags
from ..isa import Trace
from ..pipeline import CoreConfig, O3Core, SimStats
from .cache import ResultCache
from .parallel import (Job, default_use_cache, default_workers, jobs_for,
                       run_suite)
from .resilience import CellFailure, CellStatus


@dataclass
class SuiteResult:
    """IPC (and full stats) for one configuration across the suite.

    A cell that failed, timed out, or lost its profile dependency is
    an annotated hole: absent from ``stats`` but present in
    ``statuses`` (and ``failures``) so downstream artefacts render
    missing cells instead of crashing on ``KeyError``.
    """

    label: str
    config: CoreConfig
    stats: Dict[str, SimStats] = field(default_factory=dict)
    #: per-workload simulation wall-clock seconds, measured in-worker
    #: from actual dispatch (0.0 for cache hits) — queue wait is
    #: reported separately in ``queued`` so durations are never
    #: inflated by time spent waiting for a free worker
    timings: Dict[str, float] = field(default_factory=dict)
    #: per-workload seconds spent queued (enqueue → dispatch; 0.0 on
    #: the serial path and for cache hits)
    queued: Dict[str, float] = field(default_factory=dict)
    #: per-workload flag: did the cell come from the result cache?
    cached: Dict[str, bool] = field(default_factory=dict)
    #: per-workload flag: was the cell's trace reused (the caller's
    #: trace in-process, or the trace LRU) instead of being rebuilt?
    trace_hits: Dict[str, bool] = field(default_factory=dict)
    #: per-workload terminal status (ok | failed | timeout | cached)
    statuses: Dict[str, CellStatus] = field(default_factory=dict)
    #: per-workload failure detail for non-ok cells
    failures: Dict[str, CellFailure] = field(default_factory=dict)

    def ipc(self, workload: str) -> float:
        try:
            return self.stats[workload].ipc
        except KeyError:
            failure = self.failures.get(workload)
            if failure is not None:
                raise KeyError(
                    f"workload {workload!r} in suite result "
                    f"{self.label!r} did not finish — "
                    f"{failure.summary()}") from None
            available = ", ".join(sorted(self.stats)) or "none"
            raise KeyError(
                f"no stats for workload {workload!r} in suite result "
                f"{self.label!r} (available: {available})") from None

    def workloads(self) -> List[str]:
        return list(self.stats)

    def missing(self) -> List[str]:
        """Workloads attempted but absent from ``stats``."""
        return [name for name in self.statuses if name not in self.stats]

    def complete(self) -> bool:
        return not self.missing()

    def failure_notes(self) -> List[str]:
        """Human-readable lines, one per missing cell."""
        notes = []
        for name in self.missing():
            failure = self.failures.get(name)
            detail = failure.summary() if failure is not None \
                else str(self.statuses[name])
            notes.append(f"{self.label}/{name}: {detail}")
        return notes

    def sim_seconds(self) -> float:
        """Total simulation wall-clock across cells (cache hits cost 0)."""
        return sum(self.timings.values())

    def queued_seconds(self) -> float:
        """Total time cells spent waiting for a worker."""
        return sum(self.queued.values())

    def cache_hits(self) -> int:
        return sum(1 for hit in self.cached.values() if hit)

    def trace_cache_hits(self) -> int:
        """Cells whose trace was reused, not rebuilt."""
        return sum(1 for hit in self.trace_hits.values() if hit)

    def trace_cache_misses(self) -> int:
        """Cells whose trace had to be (re)generated."""
        return sum(1 for name, hit in self.trace_hits.items()
                   if not hit and not self.cached.get(name, False))


def resolve_execution(workers: Optional[int] = None,
                      use_cache: Optional[bool] = None,
                      cache: Optional[ResultCache] = None
                      ) -> Tuple[int, Optional[ResultCache]]:
    """Fill executor knobs from the environment where unspecified."""
    if workers is None:
        workers = default_workers()
    if cache is None:
        if use_cache is None:
            use_cache = default_use_cache()
        cache = ResultCache() if use_cache else None
    return workers, cache


def _registry_backed(traces: Dict[str, Trace]) -> bool:
    """Every trace rebuildable by name from the target registry?

    Registered targets of any kind (synthetic, scenario, trace-file)
    qualify for the executor; truly ad-hoc in-memory traces take the
    serial seed path.
    """
    from ..workloads import has_target
    return all(has_target(name)
               and getattr(trace, "scale", None) is not None
               for name, trace in traces.items())


def run_config(label: str, config: CoreConfig,
               traces: Dict[str, Trace],
               progress: bool = False,
               workers: Optional[int] = None,
               use_cache: Optional[bool] = None,
               cache: Optional[ResultCache] = None,
               timeout: Optional[float] = None,
               chunk: Optional[int] = None) -> SuiteResult:
    """Simulate every trace under ``config`` (via the executor)."""
    if not _registry_backed(traces):
        return _serial_run_config(label, config, traces, progress)
    workers, cache = resolve_execution(workers, use_cache, cache)
    results = run_suite(jobs_for(label, config, traces),
                        workers=workers, cache=cache, progress=progress,
                        timeout=timeout, chunk=chunk)
    return results.get(label, SuiteResult(label, config))


def _serial_run_config(label: str, config: CoreConfig,
                       traces: Dict[str, Trace],
                       progress: bool = False) -> SuiteResult:
    """The seed path: ad-hoc traces simulated in-process."""
    result = SuiteResult(label, config)
    for name, trace in traces.items():
        if progress:
            print(f"    {label}: {name}", flush=True)
        start = time.perf_counter()
        result.stats[name] = O3Core(trace, config).run()
        result.timings[name] = time.perf_counter() - start
        result.queued[name] = 0.0
        result.cached[name] = False
        result.trace_hits[name] = False
        result.statuses[name] = CellStatus.OK
    return result


def run_criticality_suite(specs: Sequence[Tuple[str, CoreConfig]],
                          traces: Dict[str, Trace],
                          profile_config: CoreConfig,
                          progress: bool = False,
                          workers: Optional[int] = None,
                          use_cache: Optional[bool] = None,
                          cache: Optional[ResultCache] = None,
                          timeout: Optional[float] = None,
                          chunk: Optional[int] = None
                          ) -> Dict[str, SuiteResult]:
    """CRI runs for several output configs sharing one profile.

    Profile under ``profile_config`` (HPC stand-in) once per workload,
    tag the critical slices via CCT+IBDA, then simulate every
    ``(label, config)`` spec against the tagged trace.  The profile
    simulation is deduplicated: one profile feeds all dependent runs.
    """
    if not _registry_backed(traces):
        return _serial_criticality_suite(specs, traces, profile_config,
                                         progress)
    workers, cache = resolve_execution(workers, use_cache, cache)
    jobs: List[Job] = []
    for label, config in specs:
        jobs.extend(jobs_for(label, config, traces, profile_config))
    results = run_suite(jobs, workers=workers, cache=cache,
                        progress=progress, timeout=timeout, chunk=chunk)
    return {label: results.get(label, SuiteResult(label, config))
            for label, config in specs}


def _serial_criticality_suite(specs: Sequence[Tuple[str, CoreConfig]],
                              traces: Dict[str, Trace],
                              profile_config: CoreConfig,
                              progress: bool = False
                              ) -> Dict[str, SuiteResult]:
    """Ad-hoc-trace path: profile each trace once, feed every spec."""
    results = {label: SuiteResult(label, config)
               for label, config in specs}
    for name, trace in traces.items():
        if progress:
            print(f"    profile: {name}", flush=True)
        profiler = O3Core(trace, profile_config)
        profiler.run()
        for label, config in specs:
            if progress:
                print(f"    {label}: {name}", flush=True)
            tagger = CriticalityTagger()
            tagger.feed_profile(profiler.pc_l1_misses,
                                profiler.pc_mispredicts)
            start = time.perf_counter()
            # tag() inside the try: a crash mid-tag must not leak
            # partial tags into later runs of this shared trace
            try:
                tagger.tag(trace)
                results[label].stats[name] = O3Core(trace, config).run()
            finally:
                clear_tags(trace)
            results[label].timings[name] = time.perf_counter() - start
            results[label].queued[name] = 0.0
            results[label].cached[name] = False
            results[label].trace_hits[name] = False
            results[label].statuses[name] = CellStatus.OK
    return results


def run_config_with_criticality(label: str, config: CoreConfig,
                                traces: Dict[str, Trace],
                                profile_config: CoreConfig,
                                progress: bool = False,
                                workers: Optional[int] = None,
                                use_cache: Optional[bool] = None,
                                cache: Optional[ResultCache] = None,
                                timeout: Optional[float] = None,
                                chunk: Optional[int] = None
                                ) -> SuiteResult:
    """One CRI configuration (see :func:`run_criticality_suite`)."""
    results = run_criticality_suite([(label, config)], traces,
                                    profile_config, progress,
                                    workers=workers, use_cache=use_cache,
                                    cache=cache, timeout=timeout,
                                    chunk=chunk)
    return results[label]


def geomean(values: List[float]) -> float:
    if not values:
        return 1.0
    return math.exp(sum(math.log(max(v, 1e-12)) for v in values)
                    / len(values))


def speedups(result: SuiteResult, baseline: SuiteResult
             ) -> Dict[str, float]:
    """Per-workload IPC ratio vs the baseline configuration.

    Only workloads with stats on *both* sides contribute — a cell
    that failed in either suite is a hole, not a crash.
    """
    return {name: result.ipc(name) / baseline.ipc(name)
            for name in baseline.workloads()
            if name in result.stats}


def geomean_speedup(result: SuiteResult, baseline: SuiteResult) -> float:
    return geomean(list(speedups(result, baseline).values()))
