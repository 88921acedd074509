"""REPRO_CHECK shadow: the matrix reference model run beside the keys.

The pipeline schedules from state kept on the in-flight ops (see
:mod:`repro.pipeline.stages.state`): the IQ age key, the per-producer
dependent lists with their ``iq_pending`` counts, and the SPEC
frontier.  Those answer exactly the questions the paper's matrices
answer.  With ``REPRO_CHECK=1`` the state carries a
:class:`MatrixShadow` that mirrors every dispatch group, issue,
squash, resolve and remove into the :mod:`repro.core` matrices (which
run their own incremental-cache cross-checks), and after every stepped
cycle :meth:`MatrixShadow.verify` asserts that

* the age matrix orders the ready set as the age keys do,
* the wakeup matrix's ready vector is ``iq_pending == 0`` over the IQ,
* the merged matrix's safe vector is ``seq <= frontier`` over the
  correct-path ROB entries,

raising :class:`~repro.core.check.CheckError` on the first mismatch.
Wrong-path entries are left out of the SPEC comparison: they never
commit, and their negative seqs do not follow ROB order.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ...core import AgeMatrix, MergedCommitMatrix, WakeupMatrix
from ...core.check import CheckError


class MatrixShadow:
    """The three scheduler matrices, driven by the pipeline's events."""

    def __init__(self, config):
        self.iq_age = AgeMatrix(config.iq_size)
        self.wakeup = WakeupMatrix(config.iq_size)
        self.merged = MergedCommitMatrix(config.rob_size)
        # this cycle's dispatch group, landed by flush_dispatch()
        self._rob: List[int] = []
        self._spec: List[bool] = []
        self._iq: List[int] = []
        self._crit: List[bool] = []
        self._prods: List[List[int]] = []

    # -- mirrored events -------------------------------------------------

    def dispatch(self, op, speculative: bool, critical: bool,
                 producer_entries) -> None:
        self._rob.append(op.rob_entry)
        self._spec.append(speculative)
        self._iq.append(op.iq_entry)
        self._crit.append(critical)
        self._prods.append(list(producer_entries))

    def flush_dispatch(self) -> None:
        """Land the cycle's dispatch group, oldest first."""
        if not self._iq:
            return
        self.merged.dispatch_group(self._rob, self._spec)
        self.iq_age.dispatch_group(self._iq, self._crit)
        self.wakeup.dispatch_group(self._iq, self._prods)
        for buf in (self._rob, self._spec, self._iq, self._crit,
                    self._prods):
            buf.clear()

    def issue(self, entries: List[int]) -> None:
        self.wakeup.issue(entries)
        self.iq_age.remove_group(entries)

    def squash_iq(self, entry: int) -> None:
        self.wakeup.squash([entry])
        self.iq_age.remove(entry)

    def resolve(self, rob_entry: int) -> None:
        self.merged.resolve(rob_entry)

    def remove(self, rob_entry: int) -> None:
        self.merged.remove(rob_entry)

    # -- the per-cycle comparison ------------------------------------------

    def verify(self, s) -> None:
        """Compare the matrices' answers with the keys (raises
        :class:`CheckError`)."""
        cycle = s.cycle
        iq_ops = s.iq_ops
        valid = np.flatnonzero(self.iq_age.valid).tolist()
        if valid != sorted(iq_ops):
            raise CheckError(
                f"cycle {cycle}: age-matrix valid entries {valid} != "
                f"IQ entries {sorted(iq_ops)}")
        rob_valid = np.flatnonzero(self.merged.valid).tolist()
        rob_live = sorted(op.rob_entry for op in s.window.values())
        if rob_valid != rob_live:
            raise CheckError(
                f"cycle {cycle}: merged-matrix valid entries {rob_valid} "
                f"!= ROB entries {rob_live}")
        ready = s.ready_set
        if ready:
            mask = np.zeros(self.iq_age.size, dtype=bool)
            mask[list(ready)] = True
            order = self.iq_age.age_order(mask)
            keyed = sorted(ready, key=lambda e: iq_ops[e].age_key)
            if order != keyed:
                raise CheckError(
                    f"cycle {cycle}: age-matrix order {order} != "
                    f"age-key order {keyed}")
        awake = self.wakeup.ready()
        for entry, op in iq_ops.items():
            if bool(awake[entry]) != (op.iq_pending == 0):
                raise CheckError(
                    f"cycle {cycle}: wakeup ready[{entry}]="
                    f"{bool(awake[entry])} but iq_pending="
                    f"{op.iq_pending} for {op!r}")
        frontier = s.spec_frontier()
        safe = self.merged.can_commit(
            np.ones(self.merged.size, dtype=bool))
        for op in s.window.values():
            if op.wrong_path:
                continue
            if bool(safe[op.rob_entry]) != (op.seq <= frontier):
                raise CheckError(
                    f"cycle {cycle}: merged safe[{op.rob_entry}]="
                    f"{bool(safe[op.rob_entry])} but seq {op.seq} vs "
                    f"SPEC frontier {frontier} for {op!r}")
