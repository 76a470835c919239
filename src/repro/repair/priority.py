"""Lazy max-priority queue over digram weights.

RePair repeatedly asks for the currently most frequent digram while weights
change after every replacement.  A binary heap with *lazy invalidation*
gives O(log n) updates: every weight change pushes a fresh entry; stale
entries are discarded at pop time by checking them against the live weight
table.  (Larsson & Moffat's √n bucket queue achieves the same effect for
strings; a lazy heap is the idiomatic Python equivalent.)
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, List, Optional, Tuple

from repro.repair.digram import Digram

__all__ = ["DigramPriorityQueue"]


class DigramPriorityQueue:
    """Max-queue of digrams keyed by weight with deterministic tie-breaks."""

    def __init__(self) -> None:
        self._heap: List[Tuple[int, Tuple[str, int, str], Digram]] = []
        self._weights: Dict[Digram, int] = {}

    def update(self, digram: Digram, weight: int) -> None:
        """Record ``digram``'s current weight (0 removes it).

        Weights below 2 are recorded but not queued: no RePair consumer
        ever accepts a digram with fewer than two occurrences, and the
        long tail of singletons would otherwise dominate the heap.  A
        later update that lifts the weight to >= 2 queues it as usual.
        """
        if weight <= 0:
            self._weights.pop(digram, None)
            return
        self._weights[digram] = weight
        if weight > 1:
            heapq.heappush(self._heap, (-weight, digram.sort_key(), digram))

    def weight(self, digram: Digram) -> int:
        return self._weights.get(digram, 0)

    def pop_best(
        self,
        accept: Optional[Callable[[Digram, int], bool]] = None,
    ) -> Optional[Tuple[Digram, int]]:
        """Return the heaviest digram accepted by ``accept`` (or ``None``).

        Rejected digrams are *not* reinserted: RePair never replaces a
        digram it has rejected (its weight can only decrease by replacing
        overlapping digrams, which pushes fresh entries anyway).  Stale
        heap entries are discarded.
        """
        while self._heap:
            negated, _key, digram = heapq.heappop(self._heap)
            current = self._weights.get(digram)
            if current is None or current != -negated:
                continue  # stale entry
            if accept is not None and not accept(digram, current):
                continue
            del self._weights[digram]
            return digram, current
        return None

    def peek_best(
        self,
        accept: Optional[Callable[[Digram, int], bool]] = None,
    ) -> Optional[Tuple[Digram, int]]:
        """Like :meth:`pop_best`, but non-destructive.

        Live entries rejected by ``accept`` are reinserted (a later call
        with a different predicate may accept them), stale entries are
        discarded permanently, and the winner stays in the queue.  This is
        what makes the queue usable for one-shot tables whose callers vary
        the acceptance condition (e.g. ``kin``) between calls.
        """
        rejected: List[Tuple[int, Tuple[str, int, str], Digram]] = []
        found: Optional[Tuple[Digram, int]] = None
        while self._heap:
            entry = heapq.heappop(self._heap)
            negated, _key, digram = entry
            current = self._weights.get(digram)
            if current is None or current != -negated:
                continue  # stale entry
            if accept is not None and not accept(digram, current):
                rejected.append(entry)
                continue
            found = (digram, current)
            rejected.append(entry)  # keep the winner queued
            break
        for entry in rejected:
            heapq.heappush(self._heap, entry)
        return found

    def __len__(self) -> int:
        return len(self._weights)
