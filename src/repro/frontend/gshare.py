"""Gshare: global history XORed into the PC index."""

from __future__ import annotations


class GsharePredictor:
    """Global-history predictor with a shared table of 2-bit counters
    (a flat ``list`` of ints, taken when >= 2)."""

    def __init__(self, entries: int = 4096, history_bits: int = 12):
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self.history_bits = history_bits
        self.history = 0
        self._mask = entries - 1
        self.table = [2] * entries           # weakly taken

    def predict(self, pc: int) -> bool:
        return self.table[(pc ^ self.history) & self._mask] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = (pc ^ self.history) & self._mask
        value = self.table[index]
        if taken:
            if value < 3:
                self.table[index] = value + 1
        elif value:
            self.table[index] = value - 1
        self.history = ((self.history << 1) | int(taken)) \
            & ((1 << self.history_bits) - 1)
