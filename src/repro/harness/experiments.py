"""Per-figure / per-table experiment drivers (paper §6).

Each function reproduces one evaluation artefact and returns an
:class:`ExperimentResult` whose ``format()`` prints the same rows or
series the paper reports.  The bench harness under ``benchmarks/``
calls these and records paper-vs-measured in EXPERIMENTS.md.

Every figure is a grid of independent (config, workload) cells, so the
drivers build one flat job list and submit it through the parallel
executor in a single batch: ``workers`` (default ``$REPRO_JOBS``) fans
the whole grid out at once, and the criticality configurations share
one profile simulation per workload instead of re-profiling per label.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..pipeline import CoreConfig, make_config
from ..workloads import build_suite
from .parallel import Job, jobs_for, run_suite
from .report import format_speedup_matrix, format_table, percent
from .runner import (SuiteResult, geomean, resolve_execution, speedups)


@dataclass
class ExperimentResult:
    """One reproduced figure/table."""

    name: str
    description: str
    #: configuration label -> geomean speedup vs the experiment baseline
    summary: Dict[str, float] = field(default_factory=dict)
    #: workload -> {configuration label -> speedup}
    per_workload: Dict[str, Dict[str, float]] = field(default_factory=dict)
    baseline_label: str = ""
    results: Dict[str, SuiteResult] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def format(self) -> str:
        order = [label for label in self.results if label
                 != self.baseline_label]
        parts = [format_speedup_matrix(self.per_workload, order,
                                       title=self.name,
                                       baseline=self.baseline_label)]
        rows = [(label, f"{value:.3f}", percent(value))
                for label, value in self.summary.items()]
        parts.append(format_table(["config", "geomean", "gain"], rows,
                                  title=f"{self.name} — geomean"))
        if self.notes:
            parts.append("notes: " + "; ".join(self.notes))
        return "\n\n".join(parts)

    def sim_seconds(self) -> float:
        """Total simulation wall-clock over every cell of the figure."""
        return sum(r.sim_seconds() for r in self.results.values())

    def cache_hits(self) -> int:
        return sum(r.cache_hits() for r in self.results.values())

    def cells(self) -> int:
        return sum(len(r.stats) for r in self.results.values())

    def trace_cache_hits(self) -> int:
        """Cells served by the in-process/in-worker trace LRU."""
        return sum(r.trace_cache_hits() for r in self.results.values())

    def trace_cache_misses(self) -> int:
        """Cells whose trace had to be (re)generated."""
        return sum(r.trace_cache_misses() for r in self.results.values())


def _missing_notes(results: Dict[str, SuiteResult]) -> List[str]:
    """One annotation per failed/timed-out/missing cell."""
    notes: List[str] = []
    for result in results.values():
        notes.extend(result.failure_notes())
    return notes


def _collect(results: Dict[str, SuiteResult], baseline_label: str,
             name: str, description: str) -> ExperimentResult:
    baseline = results[baseline_label]
    experiment = ExperimentResult(name, description,
                                  baseline_label=baseline_label,
                                  results=results)
    for label, result in results.items():
        if label == baseline_label:
            continue
        per = speedups(result, baseline)
        for workload, value in per.items():
            experiment.per_workload.setdefault(workload, {})[label] = value
        if per:
            experiment.summary[label] = geomean(list(per.values()))
        else:
            experiment.notes.append(
                f"{label}: no cells completed; geomean omitted")
    experiment.notes.extend(_missing_notes(results))
    return experiment


def fig14(scale: float = 1.0, names: Optional[List[str]] = None,
          preset: str = "base", progress: bool = False,
          workers: Optional[int] = None,
          use_cache: Optional[bool] = None,
          timeout: Optional[float] = None,
          chunk: Optional[int] = None) -> ExperimentResult:
    """Figure 14: IPC improvements of priority scheduling.

    Baseline AGE; comparisons MULT, Orinoco, CRI w/ AGE, CRI w/ Orinoco
    — all with in-order commit.  The two CRI configurations share one
    AGE profile simulation per workload (the profile→tag→run stages are
    expressed as an executor dependency, not re-simulated per label).
    """
    traces = build_suite(scale, names)
    base = make_config(preset, commit="ioc")
    profile_config = base.with_policies(scheduler="age")
    workers, cache = resolve_execution(workers, use_cache)
    jobs: List[Job] = []
    jobs += jobs_for("AGE", base.with_policies(scheduler="age"), traces)
    jobs += jobs_for("MULT", base.with_policies(scheduler="mult"), traces)
    jobs += jobs_for("Orinoco", base.with_policies(scheduler="orinoco"),
                     traces)
    jobs += jobs_for("CRI w/ AGE",
                     base.with_policies(scheduler="age", criticality=True),
                     traces, profile_config)
    jobs += jobs_for("CRI w/ Orinoco", base.with_policies(scheduler="cri"),
                     traces, profile_config)
    results = run_suite(jobs, workers=workers, cache=cache,
                        progress=progress, timeout=timeout, chunk=chunk)
    return _collect(results, "AGE", "Figure 14",
                    "IPC improvement of priority scheduling over AGE")


#: Figure 15 configuration labels -> commit policy names.
FIG15_CONFIGS = {
    "Orinoco": "orinoco",
    "VB": "vb",
    "VB w/o ECL": "vb_noecl",
    "BR": "br",
    "BR w/o ECL": "br_noecl",
    "SPEC": "spec",
    "SPEC w/o ROB": "spec_norob",
    "ECL": "ecl",
    "ROB": "rob",
}


def fig15(scale: float = 1.0, names: Optional[List[str]] = None,
          preset: str = "base", progress: bool = False,
          workers: Optional[int] = None,
          use_cache: Optional[bool] = None,
          timeout: Optional[float] = None,
          chunk: Optional[int] = None) -> ExperimentResult:
    """Figure 15: IPC improvements of out-of-order commit over IOC
    (all with the AGE scheduler, as in the paper's baseline)."""
    traces = build_suite(scale, names)
    base = make_config(preset, scheduler="age")
    workers, cache = resolve_execution(workers, use_cache)
    jobs = jobs_for("IOC", base.with_policies(commit="ioc"), traces)
    for label, commit in FIG15_CONFIGS.items():
        jobs += jobs_for(label, base.with_policies(commit=commit), traces)
    results = run_suite(jobs, workers=workers, cache=cache,
                        progress=progress, timeout=timeout, chunk=chunk)
    return _collect(results, "IOC", "Figure 15",
                    "IPC improvement of out-of-order commit over IOC")


def fig16(scale: float = 1.0, names: Optional[List[str]] = None,
          progress: bool = False, workers: Optional[int] = None,
          use_cache: Optional[bool] = None,
          timeout: Optional[float] = None,
          chunk: Optional[int] = None) -> ExperimentResult:
    """Figure 16: sensitivity to core size (Base / Pro / Ultra).

    For each size, speedups of priority scheduling (Orinoco issue),
    out-of-order commit (Orinoco commit) and both over that size's
    AGE+IOC baseline.  All 12 configurations are submitted as one batch.
    """
    traces = build_suite(scale, names)
    workers, cache = resolve_execution(workers, use_cache)
    variant_kinds = {
        "priority": dict(scheduler="orinoco"),
        "ooo-commit": dict(commit="orinoco"),
        "synergy": dict(scheduler="orinoco", commit="orinoco"),
    }
    jobs: List[Job] = []
    for preset in ("base", "pro", "ultra"):
        base = make_config(preset, scheduler="age", commit="ioc")
        jobs += jobs_for(f"{preset}: AGE+IOC", base, traces)
        for kind, policies in variant_kinds.items():
            jobs += jobs_for(f"{preset}: {kind}",
                             base.with_policies(**policies), traces)
    results = run_suite(jobs, workers=workers, cache=cache,
                        progress=progress, timeout=timeout, chunk=chunk)
    experiment = ExperimentResult(
        "Figure 16", "normalized performance sensitivity",
        baseline_label="AGE+IOC", results=results)
    for preset in ("base", "pro", "ultra"):
        baseline = results[f"{preset}: AGE+IOC"]
        for kind in variant_kinds:
            label = f"{preset}: {kind}"
            per = speedups(results[label], baseline)
            for workload, value in per.items():
                experiment.per_workload.setdefault(
                    workload, {})[label] = value
            if per:
                experiment.summary[label] = geomean(list(per.values()))
            else:
                experiment.notes.append(
                    f"{label}: no cells completed; geomean omitted")
    experiment.notes.extend(_missing_notes(results))
    return experiment


def stall_breakdown(scale: float = 1.0,
                    names: Optional[List[str]] = None,
                    preset: str = "base",
                    progress: bool = False,
                    workers: Optional[int] = None,
                    use_cache: Optional[bool] = None,
                    timeout: Optional[float] = None,
                    chunk: Optional[int] = None
                    ) -> Dict[str, Dict[str, float]]:
    """§2.2 / §6.2 statistics.

    Returns, for IOC and Orinoco commit:
      * fraction of commit-stall cycles with a committable-but-not-head
        instruction (paper: 72% for the baseline);
      * same during full-window stalls (paper: 76%);
      * full-window stall cycles (Orinoco reduces them by ~65%);
      * per-resource dispatch-stall breakdown.
    """
    traces = build_suite(scale, names)
    base = make_config(preset, scheduler="age")
    workers, cache = resolve_execution(workers, use_cache)
    jobs = (jobs_for("IOC", base.with_policies(commit="ioc"), traces)
            + jobs_for("Orinoco", base.with_policies(commit="orinoco"),
                       traces))
    results = run_suite(jobs, workers=workers, cache=cache,
                        progress=progress, timeout=timeout, chunk=chunk)
    out: Dict[str, Dict[str, float]] = {}
    for label in ("IOC", "Orinoco"):
        result = results[label]
        total = {"commit_stalls": 0, "ready_not_head": 0,
                 "full_window": 0, "fw_ready": 0, "rob_full": 0,
                 "rob": 0, "iq": 0, "lq": 0, "sq": 0, "reg": 0,
                 "cycles": 0}
        for stats in result.stats.values():
            total["commit_stalls"] += stats.commit_stall_cycles
            total["ready_not_head"] += stats.stalled_commit_ready_cycles
            total["full_window"] += stats.full_window_stall_cycles
            total["fw_ready"] += stats.full_window_commit_ready_cycles
            total["rob_full"] += stats.rob_full_commit_stall_cycles
            total["rob"] += stats.stall_rob
            total["iq"] += stats.stall_iq
            total["lq"] += stats.stall_lq
            total["sq"] += stats.stall_sq
            total["reg"] += stats.stall_reg
            total["cycles"] += stats.cycles
        total["ready_not_head_frac"] = (
            total["ready_not_head"] / total["commit_stalls"]
            if total["commit_stalls"] else 0.0)
        total["fw_ready_frac"] = (
            total["fw_ready"] / total["rob_full"]
            if total["rob_full"] else 0.0)
        out[label] = total
    if out["IOC"]["full_window"]:
        out["reduction"] = {
            "full_window_stalls": 1.0 - (out["Orinoco"]["full_window"]
                                         / out["IOC"]["full_window"]),
            "rob_stalls": 1.0 - (out["Orinoco"]["rob"]
                                 / out["IOC"]["rob"])
            if out["IOC"]["rob"] else 0.0,
            "lq_stalls": 1.0 - (out["Orinoco"]["lq"] / out["IOC"]["lq"])
            if out["IOC"]["lq"] else 0.0,
            "reg_stalls": 1.0 - (out["Orinoco"]["reg"]
                                 / out["IOC"]["reg"])
            if out["IOC"]["reg"] else 0.0,
        }
    return out


def table1() -> str:
    """Table 1: the three core configurations."""
    rows = []
    for preset in ("base", "pro", "ultra"):
        config = make_config(preset)
        rows.append([
            preset.capitalize(),
            f"{config.issue_width}/{config.commit_width}",
            config.rob_size, config.iq_size,
            f"{config.lq_size}/{config.sq_size}",
            config.rf_size, config.fu_total,
        ])
    return format_table(
        ["Size", "IW/CW", "ROB", "IQ", "LQ/SQ", "RF", "FU"], rows,
        title="Table 1: Microarchitecture Configurations")
