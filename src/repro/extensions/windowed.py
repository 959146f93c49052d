"""Measurement-window rotation around CocoSketch.

Deployments measure in fixed windows (the paper's CAIDA runs use 60 s
epochs): at each boundary the data-plane sketch is read out, cleared
and the control plane keeps the recovered flow tables.  This module
packages that lifecycle plus the cross-window queries the heavy-change
task needs.  The service daemon (:mod:`repro.service`) builds its
epoch rotation on the same pieces: :func:`split_budget` computes the
exact packet boundary at which an incoming columnar block must be cut,
and :class:`WindowedMeasurement` exercises the identical
mid-block/on-boundary/empty-window paths in-process.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.query import FlowTable
from repro.flowkeys.key import FullKeySpec, PartialKeySpec
from repro.sketches.base import Sketch


def split_budget(block_packets: int, remaining: int) -> Tuple[int, int]:
    """Split a block of ``block_packets`` against a window budget.

    Returns ``(take, rest)`` where ``take`` packets still fit in the
    current window (``take <= remaining``) and ``rest`` spill into the
    next one.  The rotation-boundary arithmetic every windowed consumer
    shares — a budget that lands mid-block takes a prefix, an
    exactly-on-boundary budget takes the whole block and rotates with
    nothing spilled, and a zero-packet block never forces a rotation.
    """
    if block_packets < 0:
        raise ValueError(f"block_packets must be >= 0, got {block_packets}")
    if remaining <= 0:
        raise ValueError(f"remaining budget must be > 0, got {remaining}")
    take = min(block_packets, remaining)
    return take, block_packets - take


class WindowedMeasurement:
    """Rotating-window measurement pipeline.

    Args:
        make_sketch: Factory building a fresh data-plane sketch per
            window (same configuration each time).
        spec: Full-key spec of the traffic.
        history: Number of past window tables to retain.
        interval: Optional packets-per-window budget.  When set, the
            feed paths rotate automatically at exact packet boundaries
            — a batch straddling the boundary is split, its prefix
            closing the old window and its suffix opening the next, so
            window contents are independent of how callers chunk their
            input.
    """

    def __init__(
        self,
        make_sketch: Callable[[], Sketch],
        spec: FullKeySpec,
        history: int = 2,
        interval: Optional[int] = None,
    ) -> None:
        if history < 1:
            raise ValueError(f"history must be >= 1, got {history}")
        if interval is not None and interval < 1:
            raise ValueError(f"interval must be >= 1, got {interval}")
        self._make_sketch = make_sketch
        self.spec = spec
        self.history = history
        self.interval = interval
        self._active: Sketch = make_sketch()
        self._packets_in_window = 0
        self.tables: List[FlowTable] = []

    @property
    def active_sketch(self) -> Sketch:
        """The sketch currently absorbing packets."""
        return self._active

    @property
    def packets_in_window(self) -> int:
        """Packets absorbed by the active (unclosed) window so far."""
        return self._packets_in_window

    @property
    def windows_closed(self) -> int:
        """Number of windows rotated out so far (bounded by history)."""
        return len(self.tables)

    def _remaining(self) -> int:
        if self.interval is None:
            raise ValueError("no interval configured for auto-rotation")
        return self.interval - self._packets_in_window

    def update(self, key: int, size: int = 1) -> None:
        """Feed one packet into the active window."""
        self._active.update(key, size)
        self._packets_in_window += 1
        if self.interval is not None and self._packets_in_window >= self.interval:
            self.rotate()

    def update_batch(
        self, keys, sizes: Optional[Sequence[int]] = None
    ) -> None:
        """Feed a batch; auto-rotates at exact boundaries when configured.

        ``keys``/``sizes`` accept whatever the active sketch's
        :meth:`~repro.sketches.base.Sketch.update_batch` accepts, except
        that auto-rotation splitting requires sliceable inputs (lists or
        numpy arrays, not one-shot iterators).
        """
        n = _batch_len(keys)
        if self.interval is None:
            self._active.update_batch(keys, sizes)
            self._packets_in_window += n
            return
        start = 0
        while start < n:
            take, _rest = split_budget(n - start, self._remaining())
            self._active.update_batch(
                _slice_keys(keys, start, start + take),
                None if sizes is None else sizes[start : start + take],
            )
            self._packets_in_window += take
            start += take
            if self._packets_in_window >= self.interval:
                self.rotate()

    def process_columns(self, hi, lo, sizes) -> None:
        """Feed one columnar block; splits it across window boundaries."""
        n = len(sizes)
        if self.interval is None:
            if n:
                self._active.process_columns(hi, lo, sizes)
            self._packets_in_window += n
            return
        start = 0
        while start < n:
            take, _rest = split_budget(n - start, self._remaining())
            end = start + take
            self._active.process_columns(
                hi[start:end], lo[start:end], sizes[start:end]
            )
            self._packets_in_window += take
            start = end
            if self._packets_in_window >= self.interval:
                self.rotate()

    def rotate(self) -> FlowTable:
        """Close the active window; return its recovered flow table."""
        table = FlowTable.from_sketch(self._active, self.spec)
        self.tables.append(table)
        if len(self.tables) > self.history:
            self.tables.pop(0)
        try:
            self._active.reset()
        except NotImplementedError:
            self._active = self._make_sketch()
        self._packets_in_window = 0
        return table

    def last_table(self) -> Optional[FlowTable]:
        """The most recently closed window's table, if any."""
        return self.tables[-1] if self.tables else None

    def changes(self, partial: PartialKeySpec) -> Dict[int, float]:
        """Signed per-flow size change between the last two windows."""
        if len(self.tables) < 2:
            raise ValueError("need at least two closed windows")
        prev = self.tables[-2].aggregate(partial).sizes
        last = self.tables[-1].aggregate(partial).sizes
        return {
            key: last.get(key, 0.0) - prev.get(key, 0.0)
            for key in set(prev) | set(last)
        }

    def heavy_changes(
        self, partial: PartialKeySpec, threshold: float
    ) -> Dict[int, float]:
        """Flows whose absolute change across windows >= threshold."""
        if threshold <= 0:
            raise ValueError(f"threshold must be positive, got {threshold}")
        return {
            key: delta
            for key, delta in self.changes(partial).items()
            if abs(delta) >= threshold
        }


def _batch_len(keys) -> int:
    """Packet count of an ``update_batch``-style keys argument."""
    if isinstance(keys, tuple) and len(keys) == 2:
        return len(keys[0])
    return len(keys)


def _slice_keys(keys, start: int, end: int):
    if isinstance(keys, tuple) and len(keys) == 2:
        return (keys[0][start:end], keys[1][start:end])
    return keys[start:end]
