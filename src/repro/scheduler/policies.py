"""Issue selection policies (paper §2.1, §3.1, Figure 13, Figure 14).

All policies answer the same question each cycle: given the set of
ready IQ entries, the per-type functional unit availability and the
issue width IW, which instructions issue?

* ``RandomSelect`` — RAND: no age information at all.
* ``AgeSelect`` — AGE (state of the art): the single oldest ready
  instruction is prioritized through the age matrix; the remaining
  issue slots are filled without regard to age.
* ``MultSelect`` — MULT: one age matrix per instruction type; the
  single oldest ready instruction *of each type* is prioritized,
  the rest filled randomly.
* ``OrinocoSelect`` — the contribution: the bit count encoding grants
  up to IW oldest ready instructions, arbitrated per execution-unit
  type under the partial ordering of Figure 13.
* ``IdealSelect`` — an oracle that sorts by true age; provably
  equivalent to ``OrinocoSelect`` (property-tested), and the selection
  a collapsible SHIFT queue would make positionally.

CRI (criticality scheduling) is not a separate selector: criticality is
encoded at dispatch into the age order (critical instructions inserted
as "older"), after which ``OrinocoSelect`` or ``AgeSelect`` run
unchanged — exactly the paper's design.

The age matrix answers one question — which entries are older — and
its answer is a total order: dispatch order with critical entries
first.  The policies read that order as a sortable *age key* per entry
(``SelectContext.key_of``) and reproduce the matrix grants exactly:
bit-count ``select_oldest(request, k)`` is "the k smallest keys",
``select_single_oldest`` is "the smallest key", and grants come back
in IQ-entry order as the matrix's grant vector lists them.  The
:class:`~repro.core.AgeMatrix` stays the hardware reference model;
``tests/test_key_order.py`` checks every policy against it.
"""

from __future__ import annotations

import abc
import random
from typing import Callable, Dict, List, Optional, Sequence

from ..pipeline.resources import FUType


class SelectContext:
    """What a policy may look at when selecting.

    ``entries`` are the ready IQ entry indices, ascending.  ``fu_of``
    maps an entry to its FU type; ``key_of`` to its age key — smaller
    is older in the age matrix's order (criticality included);
    ``age_of`` to its true dispatch order (oracle — only IdealSelect
    uses it; defaults to ``key_of``).
    """

    def __init__(self, entries: Sequence[int], fu_of: Callable[[int], FUType],
                 key_of: Callable[[int], int], fu_available, width: int,
                 rng: random.Random,
                 age_of: Optional[Callable[[int], int]] = None):
        self.entries = list(entries)
        self.fu_of = fu_of
        self.key_of = key_of
        self.age_of = age_of if age_of is not None else key_of
        # flat per-type list indexed by FUType (what FUPool hands over);
        # a dict (convenient in tests) is normalised here once.  The
        # policies never mutate it — they copy before decrementing — so
        # hold the reference
        if isinstance(fu_available, dict):
            vec = [0] * len(FUType)
            for fu, count in fu_available.items():
                vec[fu] = count
            fu_available = vec
        self.fu_available = fu_available
        self.width = width
        self.rng = rng

    def oldest(self, entries: Sequence[int], k: int) -> List[int]:
        """The ``k`` oldest of ``entries`` (bit-count select), listed in
        IQ-entry order like the matrix's grant vector."""
        if len(entries) <= k:
            return sorted(entries)
        return sorted(sorted(entries, key=self.key_of)[:k])


class SelectPolicy(abc.ABC):
    """One issue-selection strategy."""

    name = "abstract"

    @abc.abstractmethod
    def select(self, ctx: SelectContext) -> List[int]:
        """Return the granted IQ entries (<= width, FU-feasible)."""

    def _fill_greedy(self, ctx: SelectContext, granted: List[int],
                     candidates: Sequence[int]) -> List[int]:
        """Grant candidates in the given order subject to constraints."""
        avail = list(ctx.fu_available)
        for entry in granted:
            avail[ctx.fu_of(entry)] -= 1
        for entry in candidates:
            if len(granted) >= ctx.width:
                break
            if entry in granted:
                continue
            fu = ctx.fu_of(entry)
            if avail[fu] > 0:
                granted.append(entry)
                avail[fu] -= 1
        return granted


class RandomSelect(SelectPolicy):
    """RAND: fill issue slots in arbitrary (shuffled) order."""

    name = "rand"

    def select(self, ctx: SelectContext) -> List[int]:
        candidates = list(ctx.entries)
        ctx.rng.shuffle(candidates)
        return self._fill_greedy(ctx, [], candidates)


class AgeSelect(SelectPolicy):
    """AGE: single oldest prioritized, remainder age-blind."""

    name = "age"

    def select(self, ctx: SelectContext) -> List[int]:
        granted: List[int] = []
        if ctx.entries:
            entry = min(ctx.entries, key=ctx.key_of)
            if ctx.fu_available[ctx.fu_of(entry)] > 0:
                granted.append(entry)
        rest = [e for e in ctx.entries if e not in granted]
        ctx.rng.shuffle(rest)
        return self._fill_greedy(ctx, granted, rest)


class MultSelect(SelectPolicy):
    """MULT: single oldest of each instruction type prioritized."""

    name = "mult"

    def select(self, ctx: SelectContext) -> List[int]:
        granted: List[int] = []
        avail = list(ctx.fu_available)
        by_type: Dict[FUType, List[int]] = {}
        for entry in ctx.entries:
            by_type.setdefault(ctx.fu_of(entry), []).append(entry)
        for fu, members in sorted(by_type.items(), key=lambda kv: kv[0].value):
            if avail[fu] <= 0 or len(granted) >= ctx.width:
                continue
            granted.append(min(members, key=ctx.key_of))
            avail[fu] -= 1
        rest = [e for e in ctx.entries if e not in granted]
        ctx.rng.shuffle(rest)
        return self._fill_greedy(ctx, granted, rest)


class OrinocoSelect(SelectPolicy):
    """Orinoco: up to IW oldest ready instructions via bit count encoding.

    Per-type arbitration under the partial ordering (Figure 13): each
    execution-unit type selects its oldest ready instructions up to its
    unit count; a final bit-count pass clips the union to the IW oldest
    overall.
    """

    name = "orinoco"

    def select(self, ctx: SelectContext) -> List[int]:
        union: List[int] = []
        by_type: Dict[FUType, List[int]] = {}
        for entry in ctx.entries:
            by_type.setdefault(ctx.fu_of(entry), []).append(entry)
        # types in order of first appearance among the (ascending)
        # entries; each contributes its cap oldest, in entry order
        for fu, members in by_type.items():
            cap = min(ctx.fu_available[fu], ctx.width)
            if cap <= 0:
                continue
            union.extend(ctx.oldest(members, cap))
        if len(union) <= ctx.width:
            return union
        return ctx.oldest(union, ctx.width)


class IdealSelect(SelectPolicy):
    """Oracle: grant strictly oldest-first (what SHIFT sees positionally)."""

    name = "ideal"

    def select(self, ctx: SelectContext) -> List[int]:
        ordered = sorted(ctx.entries, key=ctx.age_of)
        return self._fill_greedy(ctx, [], ordered)


_POLICIES = {
    "rand": RandomSelect,
    "age": AgeSelect,
    "mult": MultSelect,
    "orinoco": OrinocoSelect,
    "cri": OrinocoSelect,     # criticality is encoded at dispatch
    "ideal": IdealSelect,
    "shift": IdealSelect,     # a collapsible queue selects positionally
}


def make_select_policy(name: str) -> SelectPolicy:
    try:
        return _POLICIES[name.lower()]()
    except KeyError as exc:
        raise ValueError(f"unknown select policy {name!r}") from exc
