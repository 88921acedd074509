"""Branch target buffer: set-associative PC → target cache."""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional


class BranchTargetBuffer:
    """Set-associative BTB with LRU replacement.

    A set is created on its first insert; probing an untouched set
    allocates nothing.
    """

    def __init__(self, sets: int = 512, ways: int = 4):
        if sets & (sets - 1):
            raise ValueError("sets must be a power of two")
        self.sets = sets
        self.ways = ways
        self._table = [None] * sets
        self.hits = 0
        self.misses = 0

    def lookup(self, pc: int) -> Optional[int]:
        entry_set = self._table[pc & (self.sets - 1)]
        if entry_set is not None and pc in entry_set:
            entry_set.move_to_end(pc)
            self.hits += 1
            return entry_set[pc]
        self.misses += 1
        return None

    def insert(self, pc: int, target: int) -> None:
        index = pc & (self.sets - 1)
        entry_set = self._table[index]
        if entry_set is None:
            entry_set = self._table[index] = OrderedDict()
        elif pc in entry_set:
            entry_set.move_to_end(pc)
        elif len(entry_set) >= self.ways:
            entry_set.popitem(last=False)
        entry_set[pc] = target
