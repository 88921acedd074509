"""Bimodal branch predictor: a table of 2-bit saturating counters."""

from __future__ import annotations


class BimodalPredictor:
    """PC-indexed table of 2-bit counters.

    The table is a flat ``list`` of ints (0..3, taken when >= 2), so
    building one is a single ``[2] * entries`` allocation.
    """

    def __init__(self, entries: int = 4096):
        if entries & (entries - 1):
            raise ValueError("entries must be a power of two")
        self.entries = entries
        self._mask = entries - 1
        self.table = [2] * entries           # weakly taken

    def predict(self, pc: int) -> bool:
        return self.table[pc & self._mask] >= 2

    def update(self, pc: int, taken: bool) -> None:
        index = pc & self._mask
        value = self.table[index]
        if taken:
            if value < 3:
                self.table[index] = value + 1
        elif value:
            self.table[index] = value - 1
