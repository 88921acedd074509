"""Orinoco reproduction: ordered issue and unordered commit with
non-collapsible queues (Chen et al., ISCA 2023).

Public API tour:

* :mod:`repro.core` — the matrix schedulers (the paper's contribution):
  :class:`~repro.core.AgeMatrix` with the bit count encoding,
  :class:`~repro.core.MergedCommitMatrix` (age + SPEC vector),
  :class:`~repro.core.MemoryDisambiguationMatrix`,
  :class:`~repro.core.LockdownMatrix`, :class:`~repro.core.WakeupMatrix`.
  They are the hardware reference model and the ``REPRO_CHECK=1``
  shadow of the timing model, which schedules from equivalent keys.
* :mod:`repro.pipeline` — the cycle-level OoO core:
  :func:`~repro.pipeline.simulate`, :func:`~repro.pipeline.base_config`
  (plus ``pro``/``ultra`` presets from Table 1).
* :mod:`repro.workloads` — the SPEC-surrogate kernel suite.
* :mod:`repro.harness` — per-figure experiment drivers
  (:func:`~repro.harness.fig14`, ``fig15``, ``fig16``...).
* :mod:`repro.circuit` — the 8T SRAM PIM model
  (:func:`~repro.circuit.table2`, ``overhead_report``...).
"""

from . import (circuit, commit, core, criticality, frontend, harness, isa,
               lsq, memory, pipeline, queues, rename, scheduler, workloads)
from .pipeline import (CoreConfig, O3Core, SimStats, base_config,
                       make_config, pro_config, simulate, ultra_config)

__version__ = "1.0.0"

__all__ = ["circuit", "commit", "core", "criticality", "frontend",
           "harness", "isa", "lsq", "memory", "pipeline", "queues",
           "rename", "scheduler", "workloads", "CoreConfig", "O3Core",
           "SimStats", "base_config", "make_config", "pro_config",
           "simulate", "ultra_config", "__version__"]
