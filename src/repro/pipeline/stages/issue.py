"""Issue stage: arbitrate the ready set and hand winners to execute.

The configured :class:`~repro.scheduler.SelectPolicy` sees the ready
IQ entries, their age keys (the age matrix's order, criticality
encoding included), the per-FU-type availability and the issue width,
and grants up to IW instructions (the paper's Figure 13/14 policies).
The stock AGE policy is granted directly from the oldest ready key,
without building a select context.

Granted instructions leave the IQ.  Their wakeup broadcast walks each
issuer's ``iq_dependents`` (its wakeup-matrix column): every dependent
still in the IQ drops one ``iq_pending`` and switches to waiting on the
issuer's completion counter.  The hand-off is one-way — this stage
only *increments* completion counters; the writeback walk
(:meth:`WritebackStage.complete`) is the sole waker that decrements
them and re-checks readiness, so no dependent is ever woken twice.
"""

from __future__ import annotations

import heapq
from typing import List

from ...scheduler import AgeSelect, SelectContext
from ..events import EventType, IssueEvent, SelectEvent
from .execute import ExecuteStage
from .state import InflightOp, PipelineState

_ISSUE = EventType.ISSUE
_SELECT = EventType.SELECT


class IssueStage:
    """Select and issue from the IQ each cycle."""

    def __init__(self, state: PipelineState, execute: ExecuteStage):
        self.s = state
        self.execute = execute
        self._issued: List[InflightOp] = []
        # prebound context accessors (iq_ops is mutated in place, never
        # rebound, so closing over it once is safe)
        iq_ops = state.iq_ops
        self._fu_of = lambda entry: iq_ops[entry].fu
        self._key_of = lambda entry: iq_ops[entry].age_key
        self._age_of = lambda entry: iq_ops[entry].dispatch_stamp
        # the stock AGE policy is granted directly (_grant_age): same
        # grant list, grant order and rng use as AgeSelect.select,
        # without building a SelectContext
        self._age_direct = type(state.select_policy) is AgeSelect

    def drain_wp(self, cycle: int) -> None:
        """Move due wrong-path instructions into the ready set."""
        s = self.s
        while s.wp_ready and s.wp_ready[0][0] <= cycle:
            _, seq = heapq.heappop(s.wp_ready)
            op = s.ops.get(seq)
            if op is not None and op.in_iq:
                s.ready_set.add(op.iq_entry)

    def tick(self, cycle: int) -> None:
        s = self.s
        self.drain_wp(cycle)
        ready = s.ready_set
        if not ready:
            return
        width = s.config.issue_width
        if len(ready) > width:
            s.stats.ready_excess_cycles += 1
        s.stats.iq_select_ops += 1
        bus = s.bus
        if bus.live[_SELECT]:
            bus.publish(SelectEvent(cycle, len(ready), width))
        if self._age_direct:
            granted = self._grant_age(min(ready, key=self._key_of),
                                      s.fupool.availability_vector())
        else:
            granted = s.select_policy.select(SelectContext(
                entries=sorted(ready),
                fu_of=self._fu_of,
                key_of=self._key_of,
                age_of=self._age_of,
                fu_available=s.fupool.availability_vector(),
                width=width,
                rng=s.rng))
        self.issue_granted(granted, cycle)

    def _grant_age(self, oldest: int, avail) -> List[int]:
        """AGE grant from the oldest ready entry (smallest age key).

        Replicates ``AgeSelect.select`` + ``_fill_greedy`` exactly —
        grant order, FU feasibility, and rng entropy included.
        """
        s = self.s
        iq_ops = s.iq_ops
        ready = s.ready_set
        if len(ready) == 1:
            return [oldest] if avail[iq_ops[oldest].fu] > 0 else []
        granted: List[int] = []
        if avail[iq_ops[oldest].fu] > 0:
            granted.append(oldest)
            rest = [e for e in sorted(ready) if e != oldest]
        else:
            rest = sorted(ready)
        if len(rest) > 1:
            # a shuffle of < 2 elements consumes no rng entropy, so
            # skipping the call is bit-exact
            s.rng.shuffle(rest)
        avail = list(avail)
        if granted:
            avail[iq_ops[oldest].fu] -= 1
        width = s.config.issue_width
        for entry in rest:
            if len(granted) >= width:
                break
            fu = iq_ops[entry].fu
            if avail[fu] > 0:
                granted.append(entry)
                avail[fu] -= 1
        return granted

    def issue_granted(self, granted: List[int], cycle: int) -> None:
        """Common tail: acquire FUs, leave the IQ, begin execution."""
        s = self.s
        issued = self._issued
        issued.clear()
        fupool = s.fupool
        iq_ops = s.iq_ops
        for entry in granted:
            op = iq_ops[entry]
            if not fupool.acquire_fu(op.fu, op.latency, op.unpipelined):
                continue        # should not happen; be safe
            issued.append(op)
        if not issued:
            return
        self._leave_iq(issued)
        bus = s.bus
        live_issue = bus.live[_ISSUE]
        operands_read = s.rename.operands_read
        begin = self.execute.begin
        stats = s.stats
        for op in issued:
            if not op.wrong_path:
                operands_read(op.rename_rec)
            op.issued_at = cycle
            stats.issued += 1
            if live_issue:
                bus.publish(IssueEvent(cycle, op))
            begin(op, cycle)
        issued.clear()

    def _leave_iq(self, issued: List[InflightOp]) -> None:
        s = self.s
        iq_ops = s.iq_ops
        free = s.iq_queue.free
        discard = s.ready_set.discard
        shadow = s.shadow
        entries = [op.iq_entry for op in issued] if shadow else None
        for op in issued:
            # wakeup broadcast: dependents still in the IQ stop waiting
            # on the issue and wait on the value instead (the
            # completion counter models the latency-delayed broadcast)
            if op.iq_dependents:
                for dep in op.iq_dependents:
                    if dep.in_iq:
                        dep.iq_pending -= 1
                        dep.producers_remaining += 1
                        op.dependents.append((dep, "op"))
                op.iq_dependents.clear()
            entry = op.iq_entry
            free(entry)
            discard(entry)
            del iq_ops[entry]
            op.in_iq = False
            op.iq_entry = None
        if shadow is not None:
            shadow.issue(entries)
        s.stats.wakeup_ops += len(issued)
