"""Orinoco's contribution: matrix schedulers over non-collapsible queues.

These classes are the hardware reference model of the paper's
schedulers — the bit matrices and their PIM primitives (§3, §4).  The
circuit model sizes them, and the tests check them against oracles.
The timing model does not step them on its hot path: it keeps the same
answers as keys on its in-flight ops (age keys, dependent lists, the
SPEC frontier; see :mod:`repro.pipeline.stages.state`).  Under
``REPRO_CHECK=1`` the pipeline mirrors every dispatch, issue, squash,
resolve and remove into an :class:`AgeMatrix`, a :class:`WakeupMatrix`
and a :class:`MergedCommitMatrix` and compares their answers with the
keys every cycle (:mod:`repro.pipeline.stages.shadow`).
"""

from .age_matrix import AgeMatrix
from .bitmatrix import BitMatrix
from .commit_matrix import CommitDependencyMatrix, MergedCommitMatrix
from .disambiguation import MemoryDisambiguationMatrix
from .lockdown import LockdownEntry, LockdownMatrix
from .wakeup_matrix import WakeupMatrix

__all__ = [
    "AgeMatrix", "BitMatrix", "CommitDependencyMatrix", "MergedCommitMatrix",
    "MemoryDisambiguationMatrix",
    "LockdownEntry", "LockdownMatrix", "WakeupMatrix",
]
