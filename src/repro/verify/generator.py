"""Seed-deterministic program generator for the verification campaign.

A :class:`VerifyProgram` is an abstract multi-threaded memory test: one
to three straight-line threads of loads, stores and fences over a small
shared address pool.  Every store carries a program-unique value and
every load targets a register nothing reads, so the complete observable
behaviour of a run is (per-load bound value, final memory image) — the
outcome form both the :mod:`~repro.verify.oracle` and the pipeline
witness composition produce.

The grammar is deliberately restricted so that a *healthy* pipeline can
never be flagged (the witness composition in
:mod:`~repro.verify.witness` is exact under these bounds):

* static addresses only — no load-derived addresses, no branches;
* at most one load per address per thread (coherence read-read corners
  on the same line need cache-state tracking the witness doesn't do);
* a thread never stores to an address it previously loaded (the
  committed-early-load-then-own-store corner likewise);
* store→load to the same address within a thread *is* allowed — the
  pipeline forwards it and the witness binds the forwarded value.

Load ``delay`` chains the load's address register on the *result of
the most recent prior load* of its thread (times zero, so the address
itself never changes) plus ``delay`` extra multiplies.  A dependent
load cannot even issue until its producer returns from memory, so the
chain staggers perform cycles by full miss latencies — the lever that
makes the pipeline genuinely reorder younger independent loads around
it (and, under Orinoco's unordered commit in TSO mode, take §3.3
lockdowns) instead of just proving in-order runs correct.  With no
prior load the chain degenerates to ``delay`` multiplies.  The oracle
deliberately ignores these dependencies (it stays *permissive*, which
can only suppress false positives, never create them).

The six classic two-thread litmus shapes (SB, MP, LB, S, R, 2+2W) plus
fenced SB/MP variants are enumerated first in every generated set; the
remainder is seeded-random.  Classic shape threads also register as
:class:`~repro.workloads.targets.WorkloadTarget`s (kind ``verify``,
excluded from default sweeps) so ``repro kernels`` lists them and
``repro run`` can simulate a single litmus thread directly.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..isa import Program, ProgramBuilder, Trace, trace_program
from ..workloads.targets import WorkloadTarget, has_target, register_target

__all__ = ["CLASSIC_SHAPES", "MemOp", "VerifyProgram", "VerifyThreadTarget",
           "build_thread", "classic_program", "generate_programs",
           "program_sha", "register_litmus_targets", "thread_trace"]

#: shared address pool base (8-byte aligned words)
ADDR_BASE = 0x100

#: hard grammar bounds (the oracle's state space stays tiny)
MAX_THREADS = 3
MAX_OPS_PER_THREAD = 8
MAX_TOTAL_OPS = 12               # per program, over all threads
MAX_ADDRS = 4
MAX_DELAY = 3


@dataclass(frozen=True)
class MemOp:
    """One abstract memory operation in a thread's program order."""

    kind: str                      # "load" | "store" | "fence"
    addr: Optional[int] = None     # word address (None for fences)
    value: Optional[int] = None    # store value (program-unique)
    delay: int = 0                 # load address dependency chain length

    def to_dict(self) -> dict:
        return {"kind": self.kind, "addr": self.addr,
                "value": self.value, "delay": self.delay}

    @staticmethod
    def from_dict(data: dict) -> "MemOp":
        return MemOp(data["kind"], data.get("addr"), data.get("value"),
                     data.get("delay", 0))


@dataclass(frozen=True)
class VerifyProgram:
    """A complete multi-threaded verification program."""

    name: str
    threads: Tuple[Tuple[MemOp, ...], ...]
    addrs: Tuple[int, ...]

    def loads(self) -> List[Tuple[int, int, MemOp]]:
        """Every load as ``(thread, op_index, op)`` in canonical order."""
        return [(t, i, op) for t, ops in enumerate(self.threads)
                for i, op in enumerate(ops) if op.kind == "load"]

    def stores(self) -> List[Tuple[int, int, MemOp]]:
        return [(t, i, op) for t, ops in enumerate(self.threads)
                for i, op in enumerate(ops) if op.kind == "store"]

    def mem_ops(self) -> int:
        return sum(1 for ops in self.threads for op in ops
                   if op.kind != "fence")

    def to_dict(self) -> dict:
        return {"name": self.name,
                "addrs": list(self.addrs),
                "threads": [[op.to_dict() for op in ops]
                            for ops in self.threads]}

    @staticmethod
    def from_dict(data: dict) -> "VerifyProgram":
        return VerifyProgram(
            name=data["name"],
            threads=tuple(tuple(MemOp.from_dict(op) for op in ops)
                          for ops in data["threads"]),
            addrs=tuple(data["addrs"]))


def program_sha(program: VerifyProgram) -> str:
    """Content hash of a program (checkpoint identity across runs)."""
    blob = json.dumps(program.to_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# -- the classic shapes ------------------------------------------------------

def _addr(index: int) -> int:
    return ADDR_BASE + 8 * index

_X, _Y = _addr(0), _addr(1)


def _prog(name: str, *threads: Sequence[MemOp]) -> VerifyProgram:
    addrs = tuple(sorted({op.addr for ops in threads for op in ops
                          if op.addr is not None}))
    return VerifyProgram(name, tuple(tuple(ops) for ops in threads), addrs)


def _ld(addr: int, delay: int = 0) -> MemOp:
    return MemOp("load", addr, delay=delay)


def _st(addr: int, value: int) -> MemOp:
    return MemOp("store", addr, value)


_FENCE = MemOp("fence")

#: the enumerated litmus shapes, in a fixed order.  ``delay`` on the
#: first load of each load pair pushes its perform past the younger
#: load's, so the interesting reorderings actually occur on hardware
#: that permits them.
CLASSIC_SHAPES: Dict[str, VerifyProgram] = {}


def _classic(program: VerifyProgram) -> VerifyProgram:
    CLASSIC_SHAPES[program.name] = program
    return program

# SB (store buffering): both loads may see 0 under TSO and RVWMO.
_classic(_prog("sb",
               [_st(_X, 1), _ld(_Y)],
               [_st(_Y, 2), _ld(_X)]))
# SB with full fences: the weak outcome is forbidden everywhere.
_classic(_prog("sb_fence",
               [_st(_X, 1), _FENCE, _ld(_Y)],
               [_st(_Y, 2), _FENCE, _ld(_X)]))
# MP (message passing): r(y)=2 ∧ r(x)=0 forbidden under TSO.
_classic(_prog("mp",
               [_st(_X, 1), _st(_Y, 2)],
               [_ld(_Y, delay=3), _ld(_X)]))
# MP with fences: forbidden under RVWMO as well.
_classic(_prog("mp_fence",
               [_st(_X, 1), _FENCE, _st(_Y, 2)],
               [_ld(_Y, delay=3), _FENCE, _ld(_X)]))
# LB (load buffering): r(x)=2 ∧ r(y)=1 forbidden under TSO.
_classic(_prog("lb",
               [_ld(_X, delay=2), _st(_Y, 1)],
               [_ld(_Y, delay=2), _st(_X, 2)]))
# S: r(y)=2 ∧ final x=1 forbidden under TSO.
_classic(_prog("s",
               [_st(_X, 1), _st(_Y, 2)],
               [_ld(_Y, delay=2), _st(_X, 3)]))
# R: r(x)=0 ∧ final y=2 allowed under TSO (store-buffer W→R reorder).
_classic(_prog("r",
               [_st(_X, 1), _st(_Y, 2)],
               [_st(_Y, 3), _ld(_X)]))
# 2+2W: final x=1 ∧ y=3 forbidden under TSO (W→W order).
_classic(_prog("2p2w",
               [_st(_X, 1), _st(_Y, 2)],
               [_st(_Y, 3), _st(_X, 4)]))
# MP with a helper load feeding the flag load's address chain: the
# data load (younger, independent) performs a full miss latency before
# the flag load, so unordered-commit policies retire it early and —
# under TSO — must take a §3.3 lockdown.  The campaign's directed
# lockdown coverage rides on this shape.
_Z = _addr(2)
_classic(_prog("mp_stress",
               [_st(_X, 1), _st(_Y, 2)],
               [_ld(_Z), _ld(_Y, delay=2), _ld(_X)]))


def classic_program(name: str) -> VerifyProgram:
    try:
        return CLASSIC_SHAPES[name]
    except KeyError as exc:
        raise ValueError(f"unknown litmus shape {name!r}; choose from "
                         f"{sorted(CLASSIC_SHAPES)}") from exc


# -- random generation -------------------------------------------------------

def _random_program(rng: random.Random, index: int) -> VerifyProgram:
    n_threads = rng.randint(1, MAX_THREADS)
    n_addrs = rng.randint(2, MAX_ADDRS)
    addrs = tuple(_addr(i) for i in range(n_addrs))
    value = 1
    threads: List[Tuple[MemOp, ...]] = []
    budget = MAX_TOTAL_OPS
    for t in range(n_threads):
        # keep the whole program inside the oracle's tractable range:
        # its state space (per-thread progress x memory image) grows
        # exponentially with per-thread op counts, even though its memo
        # keeps only distinct outcomes per state, so threads share a
        # total budget (leaving >= 2 ops for each thread still to come)
        cap = min(MAX_OPS_PER_THREAD, budget - 2 * (n_threads - 1 - t))
        n_ops = rng.randint(2, max(2, cap))
        budget -= n_ops
        ops: List[MemOp] = []
        loaded: set = set()      # addresses this thread already loaded
        fences = 0
        for _ in range(n_ops):
            choices = ["store"] * 3
            loadable = [a for a in addrs if a not in loaded]
            if loadable:
                choices += ["load"] * 3
            if ops and fences < 2 and ops[-1].kind != "fence":
                choices.append("fence")
            kind = rng.choice(choices)
            if kind == "load":
                addr = rng.choice(loadable)
                loaded.add(addr)
                ops.append(_ld(addr, delay=rng.randint(0, MAX_DELAY)))
            elif kind == "store":
                storable = [a for a in addrs if a not in loaded]
                if not storable:
                    continue
                ops.append(_st(rng.choice(storable), value))
                value += 1
            else:
                ops.append(_FENCE)
                fences += 1
        if not any(op.kind != "fence" for op in ops):
            ops.append(_st(addrs[0], value))
            value += 1
        threads.append(tuple(ops))
    return VerifyProgram(f"p{index:04d}", tuple(threads), addrs)


def generate_programs(seed: int, count: int) -> List[VerifyProgram]:
    """The campaign's program set: classics first, then seeded-random.

    Byte-deterministic in ``(seed, count)``: the same arguments always
    produce the same programs in the same order (asserted in tests —
    checkpoint files key on this).
    """
    programs = list(CLASSIC_SHAPES.values())[:count]
    rng = random.Random(seed)
    index = len(programs)
    while len(programs) < count:
        programs.append(_random_program(rng, index))
        index += 1
    return programs


# -- lowering to ISA programs ------------------------------------------------

#: register allocation for generated threads: x1 holds the zero base,
#: x5..x8 rotate as delayed address registers, x10.. are load
#: destinations (never read), x20.. rotate as store-value sources.
_BASE = "x1"


def build_thread(program: VerifyProgram,
                 thread: int) -> Tuple[Program, Dict[int, int]]:
    """Lower one thread to an ISA :class:`Program`.

    Returns ``(program, seq_map)`` where ``seq_map[op_index]`` is the
    dynamic-trace seq of that op's memory (or fence) instruction — the
    thread is straight-line, so trace seq == static instruction index.
    """
    ops = program.threads[thread]
    b = ProgramBuilder(f"verify:{program.name}.t{thread}")
    pc = 0

    def emit(fn, *args) -> None:
        nonlocal pc
        fn(*args)
        pc += 1

    emit(b.li, _BASE, 0)
    seq_map: Dict[int, int] = {}
    load_reg = 10
    prev_load: Optional[str] = None
    for i, op in enumerate(ops):
        if op.kind == "fence":
            seq_map[i] = pc
            emit(b.fence)
        elif op.kind == "load":
            base = _BASE
            if op.delay:
                base = f"x{5 + (i % 4)}"
                emit(b.li, base, 0)
                if prev_load is not None:
                    # 0 * <loaded value>: the address stays put, the
                    # dependency on the prior load's data is real
                    emit(b.mul, base, base, prev_load)
                for _ in range(op.delay):
                    emit(b.mul, base, base, base)
            seq_map[i] = pc
            emit(b.ld, f"x{load_reg}", base, op.addr)
            prev_load = f"x{load_reg}"
            load_reg += 1
        else:
            src = f"x{20 + (i % 8)}"
            emit(b.li, src, op.value)
            seq_map[i] = pc
            emit(b.sd, src, _BASE, op.addr)
    emit(b.halt)
    return b.build(), seq_map


def thread_trace(program: VerifyProgram, thread: int) -> Trace:
    isa_program, _ = build_thread(program, thread)
    return trace_program(isa_program)


# -- workload-target registration -------------------------------------------

class VerifyThreadTarget(WorkloadTarget):
    """One litmus-shape thread as a registered workload target."""

    kind = "verify"

    def __init__(self, program: VerifyProgram, thread: int):
        super().__init__(f"litmus.{program.name}.t{thread}")
        self.program = program
        self.thread = thread

    def build_trace(self, scale: float = 1.0) -> Trace:
        return thread_trace(self.program, self.thread)

    def fingerprint(self, scale: float = 1.0) -> Dict[str, object]:
        return {"kind": self.kind, "sha": program_sha(self.program),
                "thread": self.thread}

    def provenance(self) -> str:
        return (f"generated: litmus shape {self.program.name!r} "
                f"thread {self.thread}")

    def sweeps(self) -> bool:
        return False                 # litmus threads stay out of sweeps


def register_litmus_targets() -> None:
    """Register every classic shape thread (idempotent)."""
    for program in CLASSIC_SHAPES.values():
        for thread in range(len(program.threads)):
            target = VerifyThreadTarget(program, thread)
            if not has_target(target.name):
                register_target(target)


# self-register on import: whichever of repro.workloads / repro.verify
# loads first, the litmus targets end up in the registry exactly once
register_litmus_targets()
