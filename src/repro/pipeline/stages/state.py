"""Shared pipeline state: the in-flight map, queues, LSQ, schedule keys.

:class:`PipelineState` is the single structure every stage operates on.
It owns no stage logic — only the machine's architectural and
micro-architectural containers plus the helpers every stage needs
(completion scheduling, forward-progress stamping, SPEC tracking).

The three matrix schedulers answer their questions from state kept on
the in-flight ops, in the order the matrices would give:

* **IQ age** (age matrix, §3.1): :attr:`InflightOp.age_key`, i.e.
  ``(not critical, dispatch_stamp)`` packed into one int — critical
  entries first (Figure 3's encoding), each group in dispatch order.
* **Wakeup** (§3.4): each IQ-resident producer lists its positional
  dependents in :attr:`InflightOp.iq_dependents`; a dependent counts
  its not-yet-issued producers in :attr:`InflightOp.iq_pending`.
* **SPEC** (merged age/SPEC matrix, §3.2): the seqs of live
  speculative ops in :attr:`PipelineState.spec_live`, with a lazily
  pruned min-heap whose top is the *frontier*.  Correct-path ROB order
  is seq order, so an entry has no older speculative entry exactly
  when ``seq <= frontier``.

Under ``REPRO_CHECK=1`` the state also carries a
:class:`~repro.pipeline.stages.shadow.MatrixShadow` that mirrors every
event into the :mod:`repro.core` matrices and compares their answers
with these keys every cycle.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ...core import check
from ...frontend import FetchUnit, make_predictor
from ...isa import DynInstr, Trace
from ...lsq import LSQUnit
from ...memory import MemoryHierarchy, TLB
from ...queues import CircularQueue, RandomQueue
from ...rename import RenameUnit
from ...scheduler import make_select_policy
from ..config import CoreConfig
from ..events import EventBus
from ..resources import FUPool, FUType, fu_type_for, is_unpipelined
from ..stats import SimStats
from .shadow import MatrixShadow

#: added to a non-critical op's dispatch stamp in its age key, so every
#: critical op orders before every non-critical one (stamps stay far
#: below it)
NONCRITICAL = 1 << 48

_INF = float("inf")


class InflightOp:
    """Pipeline state of one in-flight dynamic instruction."""

    __slots__ = (
        "dyn", "mispredicted", "rename_rec", "rob_entry", "iq_entry",
        "fu", "latency", "unpipelined",
        "producers_remaining", "data_remaining", "dependents",
        "in_iq", "issued_at", "complete_at", "completed", "performed",
        "translated", "addr_resolved", "fault_pending", "mem_nonspec",
        "spec_resolved", "committed", "zombie", "resources_released",
        "prev_writer", "exec_token", "wrong_path", "dispatch_stamp",
        "age_key", "iq_pending", "iq_dependents",
        "dispatched_at", "completed_at", "committed_at")

    def __init__(self, dyn: DynInstr, mispredicted: bool):
        self.dyn = dyn
        self.mispredicted = mispredicted
        self.rename_rec = None
        self.rob_entry: Optional[int] = None
        self.iq_entry: Optional[int] = None
        self.fu = fu_type_for(dyn.op_class)
        #: FU latency under the dispatching core's config (stamped at
        #: dispatch; default for ops built outside a pipeline)
        self.latency = 1
        self.unpipelined = is_unpipelined(dyn.op_class)
        self.producers_remaining = 0
        self.data_remaining = 0           # stores: value operand
        self.dependents: List[Tuple["InflightOp", str]] = []
        self.in_iq = False
        self.issued_at: Optional[int] = None
        self.complete_at: Optional[int] = None
        self.completed = False
        self.performed = False            # loads: data obtained
        self.translated = False           # memory ops: address translated
        self.addr_resolved = False        # stores: address known to LSQ
        self.fault_pending = False
        self.mem_nonspec = False          # loads: disambiguated
        self.spec_resolved = False        # SPEC bit cleared in the ROB
        self.committed = False
        self.zombie = False
        self.resources_released = False
        self.prev_writer: Optional[Tuple[int, Optional[int]]] = None
        self.exec_token = 0               # invalidates stale completions
        self.wrong_path = False
        self.dispatch_stamp = 0           # true dispatch (age) order
        #: IQ age-matrix order: (not critical, dispatch_stamp) as an int
        self.age_key = 0
        #: not-yet-issued IQ producers (the wakeup-matrix row count)
        self.iq_pending = 0
        #: IQ-resident dependents waiting on this op's issue (its
        #: wakeup-matrix column)
        self.iq_dependents: List["InflightOp"] = []
        self.dispatched_at: Optional[int] = None
        self.completed_at: Optional[int] = None
        self.committed_at: Optional[int] = None

    @property
    def seq(self) -> int:
        return self.dyn.seq

    def __repr__(self) -> str:
        return (f"<Op #{self.seq} {self.dyn.opcode.mnemonic} "
                f"{'C' if self.completed else ''}"
                f"{'c' if self.committed else ''}>")


class PipelineState:
    """Everything the stages share, constructed from a trace + config."""

    def __init__(self, trace: Trace, config: CoreConfig,
                 bus: Optional[EventBus] = None):
        # deferred: repro.commit imports pipeline.events at module
        # level, so importing it here (not at state.py import time)
        # keeps the package import graph acyclic
        from ...commit import make_commit_policy
        self.trace = trace
        self.config = config
        self.bus = bus if bus is not None else EventBus()
        self.stats = SimStats(name=f"{trace.name}/{config.name}/"
                                   f"{config.scheduler}+{config.commit}")
        self.rng = random.Random(config.seed)

        self.predictor = make_predictor(config.predictor)
        self.fetch = FetchUnit(trace, self.predictor, config.fetch_width,
                               config.redirect_penalty,
                               model_wrong_path=config.model_wrong_path)
        self.rename = RenameUnit(config.rf_size, config.rename_scheme)
        self.commit_policy = make_commit_policy(config.commit)
        self.select_policy = make_select_policy(config.scheduler)

        # IQ: non-collapsible free list; age order and wakeup live on
        # the ops (age_key, iq_pending / iq_dependents)
        if config.iq_org == "circ":
            self.iq_queue = CircularQueue(config.iq_size)
        else:
            self.iq_queue = RandomQueue(config.iq_size)
        self.iq_ops: Dict[int, InflightOp] = {}

        # ROB: a non-collapsible (or, for in-order reclamation,
        # circular) entry pool; SPEC is the set of live speculative
        # seqs plus a lazily pruned min-heap over it
        if config.ooo_rob_release:
            self.rob_queue = RandomQueue(config.rob_size)
        else:
            self.rob_queue = CircularQueue(config.rob_size)
        self.spec_live: set = set()
        self.spec_heap: List[int] = []
        #: REPRO_CHECK mirror into the repro.core matrices (else None)
        self.shadow: Optional[MatrixShadow] = \
            MatrixShadow(config) if check.check_enabled() else None

        self.lsq = LSQUnit(config.lq_size, config.sq_size,
                           config.store_buffer_size, tso=config.tso,
                           ldt_size=config.ldt_size)
        self.hierarchy = MemoryHierarchy(config.memory)
        self.tlb = TLB()
        self.fupool = FUPool({
            FUType.ALU: config.fu_alu,
            FUType.MULDIV: config.fu_muldiv,
            FUType.FPU: config.fu_fpu,
            FUType.LOAD: config.fu_load,
            FUType.STORE: config.fu_store,
        })

        # program-order window of uncommitted ops (seq -> op)
        self.window: Dict[int, InflightOp] = {}
        # all live ops, including committed-but-incomplete zombies
        self.ops: Dict[int, InflightOp] = {}
        self.zombies: Dict[int, InflightOp] = {}
        self.pending_release: Dict[int, InflightOp] = {}
        # completed, uncommitted ops — the commit stage's working set
        self.commit_candidates: set = set()

        self.frontend_pipe: Deque[Tuple[int, object]] = deque()
        self.dispatch_buffer: Deque[object] = deque()
        # IQ entries whose operands are all available
        self.ready_set: set = set()
        self.completion_heap: List[Tuple[int, int, int]] = []
        self.mem_retry: List[InflightOp] = []
        # loads parked on a forwarding store whose data is not ready yet
        self.load_waiters: Dict[int, List[InflightOp]] = {}
        # loads parked until some older store resolves its address
        self.mem_wait: List[InflightOp] = []
        # simple memory dependence predictor: load PCs that violated
        # before stop speculating past unresolved stores (store sets)
        self.violated_load_pcs: set = set()
        # wrong-path instructions awaiting their synthetic operands
        self.wp_ready: List[Tuple[int, int]] = []

        self.last_writer: Dict[int, int] = {}
        self.active_fence: Optional[int] = None
        self.sb_busy_until = 0

        self.cycle = 0
        self.dispatch_counter = 0
        self.retired_total = 0
        self.skipped_faults = 0
        self.progress_cycle = 0
        # per-PC profile for the criticality tagger
        self.pc_l1_misses: Dict[int, int] = {}
        self.pc_mispredicts: Dict[int, int] = {}

    # -- helpers shared by every stage ---------------------------------

    def schedule_completion(self, op: InflightOp, when: int) -> None:
        op.exec_token += 1
        op.complete_at = when
        heapq.heappush(self.completion_heap, (when, op.seq, op.exec_token))

    def progress(self, cycle: int) -> None:
        """Stamp forward progress (resets the deadlock watchdog)."""
        self.progress_cycle = cycle

    def resolve_spec(self, op: InflightOp) -> None:
        """Clear the SPEC bit of a no-longer-speculative instruction."""
        if not op.spec_resolved:
            op.spec_resolved = True
            if not op.committed and op.rob_entry is not None:
                self.spec_live.discard(op.seq)
                if self.shadow is not None:
                    self.shadow.resolve(op.rob_entry)

    def spec_frontier(self) -> float:
        """Seq of the oldest live speculative op (``inf`` if none).

        A correct-path ROB entry is safe to commit — no older entry may
        still raise misspeculation or an exception — exactly when its
        seq is ``<= spec_frontier()``: the merged matrix's
        ``NOR(age_row & SPEC)``.  Heap entries whose seq left
        :attr:`spec_live` (resolved, retired, squashed) are pruned here.
        """
        heap = self.spec_heap
        live = self.spec_live
        while heap and heap[0] not in live:
            heapq.heappop(heap)
        return heap[0] if heap else _INF
