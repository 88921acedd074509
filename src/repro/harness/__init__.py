"""Experiment harness: runners, per-figure experiments, reporting."""

from .cache import ResultCache, cache_key, config_fingerprint
from .characterize import (KernelProfile, characterize,
                           format_characterization)
from .circuit_link import measured_activities, table2_measured
from .diagnostics import (ReplayReport, build_crash_bundle,
                          config_from_fingerprint, default_crash_dir,
                          load_bundle, replay_bundle, write_bundle)
from .experiments import (ExperimentResult, FIG15_CONFIGS, fig14, fig15,
                          fig16, stall_breakdown, table1)
from .parallel import (Job, default_use_cache,
                       default_workers, estimate_cell_seconds, jobs_for,
                       run_suite, shutdown_pools)
from .plots import grouped_bars, hbar_chart, sparkline
from .report import format_speedup_matrix, format_table, percent
from .resilience import (CellFailure, CellStatus, SuiteInterrupted,
                         default_cell_timeout, default_chunk_size,
                         default_max_retries)
from .runner import (SuiteResult, geomean, geomean_speedup,
                     resolve_execution, run_config,
                     run_config_with_criticality, run_criticality_suite,
                     speedups)

__all__ = ["KernelProfile", "characterize", "format_characterization",
           "grouped_bars", "hbar_chart", "sparkline",
           "measured_activities", "table2_measured",
           "ExperimentResult", "FIG15_CONFIGS", "fig14", "fig15", "fig16",
           "stall_breakdown", "table1", "format_speedup_matrix",
           "format_table", "percent", "SuiteResult", "geomean",
           "geomean_speedup", "run_config", "run_config_with_criticality",
           "run_criticality_suite", "resolve_execution", "speedups",
           "ResultCache", "cache_key", "config_fingerprint",
           "Job", "default_use_cache", "default_workers",
           "estimate_cell_seconds", "jobs_for", "run_suite",
           "shutdown_pools",
           "CellFailure", "CellStatus", "SuiteInterrupted",
           "default_cell_timeout", "default_chunk_size",
           "default_max_retries",
           "ReplayReport", "build_crash_bundle", "config_from_fingerprint",
           "default_crash_dir", "load_bundle", "replay_bundle",
           "write_bundle"]
