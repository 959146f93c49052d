"""Top-k tracking heap used by the "+ heap" baselines.

Count-Min and Count sketches estimate sizes but do not remember keys, so
the deployable versions (CM-Heap / C-Heap, §7.2) pair the counter arrays
with a small min-heap of the k largest flows seen so far.  The heap is
what the control plane reads out as the flow table.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple


class TopKHeap:
    """Min-heap of the *k* flows with the largest estimated sizes.

    ``offer(key, estimate)`` is called after every sketch update with the
    flow's fresh estimate; membership updates are O(log k).
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self._heap: List[Tuple[float, int]] = []
        self._sizes: Dict[int, float] = {}

    def __len__(self) -> int:
        return len(self._sizes)

    def __contains__(self, key: int) -> bool:
        return key in self._sizes

    def offer(self, key: int, estimate: float) -> None:
        """Track *key* at *estimate* if it belongs in the top k."""
        sizes = self._sizes
        if key in sizes:
            if estimate > sizes[key]:
                sizes[key] = estimate
            return
        if len(sizes) < self.k:
            sizes[key] = estimate
            heapq.heappush(self._heap, (estimate, key))
            return
        self._ensure_clean_min()
        min_est, min_key = self._heap[0]
        if estimate > min_est:
            heapq.heappop(self._heap)
            del sizes[min_key]
            sizes[key] = estimate
            heapq.heappush(self._heap, (estimate, key))

    def _ensure_clean_min(self) -> None:
        """Re-sync the heap top with updated estimates (lazy repair).

        Raised estimates leave stale entries anywhere in the heap, so
        the top is validated before every comparison; only stale
        entries that reach the top are ever repaired.
        """
        sizes = self._sizes
        heap = self._heap
        while heap:
            est, key = heap[0]
            current = sizes.get(key)
            if current is not None and current > est:
                heapq.heapreplace(heap, (current, key))
            elif current is None:
                heapq.heappop(heap)
            else:
                break

    def table(self) -> Dict[int, float]:
        """Snapshot ``{key: estimate}`` of the tracked flows."""
        return dict(self._sizes)

    def memory_bytes(self, key_bytes: int = 13, counter_bytes: int = 4) -> int:
        """Configured footprint: k entries of key + estimate."""
        return self.k * (key_bytes + counter_bytes)
