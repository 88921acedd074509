"""Set-associative cache with LRU replacement and write-back state."""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional, Tuple


class Cache:
    """One cache level.  Addresses are byte addresses; tags are line ids."""

    def __init__(self, name: str, size_bytes: int, ways: int,
                 hit_latency: int, line_size: int = 64):
        if size_bytes % (ways * line_size):
            raise ValueError(f"{name}: size not divisible by ways*line")
        self.name = name
        self.size_bytes = size_bytes
        self.ways = ways
        self.line_size = line_size
        self.hit_latency = hit_latency
        self.num_sets = size_bytes // (ways * line_size)
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"{name}: set count must be a power of two")
        # per-set OrderedDict: line_id -> dirty flag, LRU order; a set
        # is created on its first insert, so probes of an untouched set
        # (None) allocate nothing
        self._sets: List[Optional[OrderedDict]] = [None] * self.num_sets
        self.accesses = 0
        self.hits = 0
        self.misses = 0

    def line_id(self, addr: int) -> int:
        return addr // self.line_size

    def _set_for(self, line: int) -> Optional[OrderedDict]:
        return self._sets[line & (self.num_sets - 1)]

    def lookup(self, addr: int, is_write: bool = False) -> bool:
        """Probe; True on hit.  Updates LRU and dirty state."""
        line = self.line_id(addr)
        cache_set = self._set_for(line)
        self.accesses += 1
        if cache_set is not None and line in cache_set:
            cache_set.move_to_end(line)
            if is_write:
                cache_set[line] = True
            self.hits += 1
            return True
        self.misses += 1
        return False

    def contains(self, addr: int) -> bool:
        """Probe without statistics or LRU effects (snooping/tests)."""
        line = self.line_id(addr)
        cache_set = self._set_for(line)
        return cache_set is not None and line in cache_set

    def insert(self, addr: int, dirty: bool = False
               ) -> Optional[Tuple[int, bool]]:
        """Fill a line; returns (evicted line id, was dirty) if any."""
        line = self.line_id(addr)
        index = line & (self.num_sets - 1)
        cache_set = self._sets[index]
        if cache_set is None:
            cache_set = self._sets[index] = OrderedDict()
        victim = None
        if line in cache_set:
            cache_set.move_to_end(line)
            cache_set[line] = cache_set[line] or dirty
            return None
        if len(cache_set) >= self.ways:
            victim_line, victim_dirty = cache_set.popitem(last=False)
            victim = (victim_line, victim_dirty)
        cache_set[line] = dirty
        return victim

    def invalidate(self, addr: int) -> bool:
        line = self.line_id(addr)
        cache_set = self._set_for(line)
        if cache_set is not None and line in cache_set:
            del cache_set[line]
            return True
        return False

    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def __repr__(self) -> str:
        return (f"<Cache {self.name} {self.size_bytes // 1024}KB "
                f"{self.ways}-way miss_rate={self.miss_rate():.3f}>")
