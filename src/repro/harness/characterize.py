"""Workload characterization: verify each kernel delivers its promised
behaviour class (DESIGN.md's substitution argument for SPEC CPU2017).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..isa import OpClass
from ..pipeline import make_config
from ..workloads import build_suite
from .report import format_table
from .runner import run_config


@dataclass
class KernelProfile:
    name: str
    instructions: int
    ipc: float
    l1_miss_rate: float
    llc_miss_rate: float
    branch_mpki: float
    load_fraction: float
    store_fraction: float
    fp_fraction: float
    rob_occupancy: float
    full_window_frac: float


def characterize(scale: float = 1.0,
                 names: Optional[List[str]] = None,
                 preset: str = "base",
                 workers: Optional[int] = None,
                 use_cache: Optional[bool] = None,
                 timeout: Optional[float] = None,
                 chunk: Optional[int] = None) -> List[KernelProfile]:
    """Run each kernel under the baseline core and profile it."""
    traces = build_suite(scale, names)
    config = make_config(preset)
    result = run_config("characterize", config, traces,
                        workers=workers, use_cache=use_cache,
                        timeout=timeout, chunk=chunk)
    profiles = []
    for name, trace in traces.items():
        mix = trace.class_mix()
        stats = result.stats.get(name)
        if stats is None:        # failed/timed-out cell: skip, don't die
            continue
        kilo = max(1, stats.committed) / 1000.0
        profiles.append(KernelProfile(
            name=name,
            instructions=len(trace),
            ipc=stats.ipc,
            l1_miss_rate=stats.memory["l1_miss_rate"],
            llc_miss_rate=stats.memory["llc_miss_rate"],
            branch_mpki=stats.branch_mispredicts / kilo,
            load_fraction=mix.get(OpClass.LOAD, 0.0),
            store_fraction=mix.get(OpClass.STORE, 0.0),
            fp_fraction=sum(mix.get(cls, 0.0) for cls in
                            (OpClass.FP_ADD, OpClass.FP_MUL,
                             OpClass.FP_DIV)),
            rob_occupancy=stats.occupancy("rob"),
            full_window_frac=stats.full_window_stall_cycles
            / max(1, stats.cycles)))
    return profiles


def format_characterization(profiles: Optional[List[KernelProfile]] = None,
                            **kwargs) -> str:
    profiles = profiles if profiles is not None else characterize(**kwargs)
    rows = [[p.name, p.instructions, f"{p.ipc:.2f}",
             f"{p.l1_miss_rate:.1%}", f"{p.llc_miss_rate:.1%}",
             f"{p.branch_mpki:.1f}", f"{p.load_fraction:.0%}",
             f"{p.fp_fraction:.0%}", f"{p.rob_occupancy:.0f}",
             f"{p.full_window_frac:.0%}"]
            for p in sorted(profiles, key=lambda p: p.name)]
    return format_table(
        ["kernel", "instrs", "IPC", "L1 miss", "LLC miss", "br MPKI",
         "loads", "FP", "ROB occ", "FW stall"], rows,
        title="Workload characterization (baseline core)")
