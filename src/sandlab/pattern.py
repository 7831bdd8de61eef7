"""Finite d-dimensional matrices with 1-based indices.

Entries are stored flat in lexicographic order of the (1-based) index
vectors, so the last axis varies fastest.  For the 2-d patterns used by the
binary encoding, the last axis is the vertical one, read bottom-to-top.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Any


@dataclass(frozen=True)
class Pattern:
    dim: int
    order: tuple[int, ...]
    entries: tuple[Any, ...]

    def __post_init__(self):
        if len(self.order) != self.dim:
            raise ValueError("order/dim mismatch")
        n = 1
        for h in self.order:
            if h < 1:
                raise ValueError("order components must be >= 1")
            n *= h
        if len(self.entries) != n:
            raise ValueError(f"expected {n} entries, got {len(self.entries)}")

    def _flat(self, k: tuple[int, ...]) -> int:
        idx = 0
        for kj, hj in zip(k, self.order):
            if not 1 <= kj <= hj:
                raise IndexError(f"index {k} outside order {self.order}")
            idx = idx * hj + (kj - 1)
        return idx

    def get(self, k) -> Any:
        """Entry at 1-based index vector k (a plain int in dimension 1)."""
        if isinstance(k, int):
            k = (k,)
        if len(k) != self.dim:
            raise IndexError("index dimension mismatch")
        return self.entries[self._flat(tuple(k))]

    def crop(self, lo: tuple[int, ...], hi: tuple[int, ...]) -> "Pattern":
        """Sub-pattern over 1-based corners lo..hi (inclusive)."""
        order = tuple(b - a + 1 for a, b in zip(lo, hi))
        entries = tuple(
            self.get(tuple(a + off for a, off in zip(lo, k)))
            for k in product(*(range(h) for h in order))
        )
        return Pattern(self.dim, order, entries)
