"""Trace container with cached ground truth.

A :class:`Trace` is an ordered sequence of ``(key, size)`` records over a
fixed :class:`~repro.flowkeys.key.FullKeySpec`.  It exposes exactly what
the evaluation needs: iteration for sketch updates, exact per-flow totals
on the full key, and exact aggregation onto any partial key (the ground
truth every accuracy metric compares against).  The exact totals come in
two shapes: the :meth:`Trace.full_counts` / :meth:`Trace.ground_truth`
dicts, and :meth:`Trace.exact_table`, the same totals as a grouped
:class:`~repro.query.columns.ColumnTable` that the task scorers
aggregate like any sketch's table.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.flowkeys.columns import pack_key_columns, pack_key_words
from repro.flowkeys.key import FullKeySpec, PartialKeySpec

if TYPE_CHECKING:
    from repro.query.columns import ColumnTable


class Trace:
    """An ordered multiset of ``(key, size)`` records.

    Args:
        spec: The full-key spec all keys are packed under.
        keys: Packed full-key values, one per packet.
        sizes: Update weights; ``None`` means every packet has weight 1.
        name: Label used in reports.
    """

    def __init__(
        self,
        spec: FullKeySpec,
        keys: Sequence[int],
        sizes: Optional[Sequence[int]] = None,
        name: str = "trace",
    ) -> None:
        if sizes is not None and len(sizes) != len(keys):
            raise ValueError(
                f"keys ({len(keys)}) and sizes ({len(sizes)}) disagree"
            )
        self.spec = spec
        self.keys: List[int] = list(keys)
        self.sizes: Optional[List[int]] = list(sizes) if sizes is not None else None
        self.name = name
        self._full_counts: Optional[Dict[int, int]] = None
        self._columns: Optional[Tuple["np.ndarray", "np.ndarray", "np.ndarray"]] = None
        self._exact: Optional["ColumnTable"] = None

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[Tuple[int, int]]:
        """Yield ``(key, size)`` pairs in arrival order."""
        if self.sizes is None:
            for key in self.keys:
                yield key, 1
        else:
            yield from zip(self.keys, self.sizes)

    @property
    def total_size(self) -> int:
        """Sum of all update weights."""
        if self.sizes is None:
            return len(self.keys)
        return sum(self.sizes)

    def full_counts(self) -> Dict[int, int]:
        """Exact per-flow totals on the full key (cached)."""
        if self._full_counts is None:
            counts: Dict[int, int] = {}
            if self.sizes is None:
                for key in self.keys:
                    counts[key] = counts.get(key, 0) + 1
            else:
                for key, size in zip(self.keys, self.sizes):
                    counts[key] = counts.get(key, 0) + size
            self._full_counts = counts
        return self._full_counts

    def ground_truth(self, partial: PartialKeySpec) -> Dict[int, int]:
        """Exact per-flow totals aggregated onto *partial* (Definition 1)."""
        if partial.full != self.spec:
            raise ValueError(
                f"partial key {partial} is not over this trace's full key"
            )
        g = partial.mapper()
        out: Dict[int, int] = {}
        for key, size in self.full_counts().items():
            pkey = g(key)
            out[pkey] = out.get(pkey, 0) + size
        return out

    def exact_table(self) -> "ColumnTable":
        """Exact per-flow totals on the full key as a grouped column table.

        The columnar :meth:`full_counts` (cached the same way): keys are
        packed into word columns for any spec width, and the truth for a
        partial key is ``exact_table().aggregate(partial)`` — the same
        projection and group-by that answer a sketch's table.  Totals
        are float64, exact while a flow's total stays below 2**53.
        """
        if self._exact is None:
            # Imported here: the query package imports the engines,
            # which import this module.
            from repro.query.columns import ColumnTable

            words = pack_key_words(self.keys, self.spec.width)
            self._exact = ColumnTable(
                self.spec, words, self._weights()
            ).group()
        return self._exact

    def _weights(self) -> "np.ndarray":
        if self.sizes is None:
            return np.ones(len(self.keys), dtype=np.int64)
        return np.asarray(self.sizes, dtype=np.int64)

    def batches(
        self, batch_size: int
    ) -> Iterator[Tuple["np.ndarray", "np.ndarray", "np.ndarray"]]:
        """Yield columnar ``(keys_hi, keys_lo, sizes)`` chunks in order.

        Each chunk covers up to *batch_size* consecutive packets with
        keys split into uint64 (hi, lo) columns — the representation the
        vectorised execution engines consume directly
        (``sketch.update_batch((hi, lo), sizes)``).  Requires a key spec
        of at most 128 bits (everything built on the IPv4 5-tuple).
        """
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if self.spec.width > 128:
            raise ValueError(
                f"columnar batches support keys up to 128 bits, "
                f"spec {self.spec} is {self.spec.width}"
            )
        if self._columns is None:
            hi, lo = pack_key_columns(self.keys)
            # Cache: packing walks python ints; repeated consumers
            # (benchmark sweeps, multi-sketch runs) slice views instead.
            self._columns = (hi, lo, self._weights())
        hi, lo, sizes = self._columns
        for start in range(0, len(self.keys), batch_size):
            stop = start + batch_size
            yield hi[start:stop], lo[start:stop], sizes[start:stop]

    def distinct_flows(self) -> int:
        """Number of distinct full-key flows."""
        return len(self.full_counts())

    def slice(self, start: int, stop: int, name: Optional[str] = None) -> "Trace":
        """A sub-trace over packet positions ``[start, stop)``."""
        sizes = self.sizes[start:stop] if self.sizes is not None else None
        return Trace(
            self.spec,
            self.keys[start:stop],
            sizes,
            name or f"{self.name}[{start}:{stop}]",
        )

    def __repr__(self) -> str:
        return (
            f"Trace({self.name!r}, packets={len(self)}, "
            f"flows={self.distinct_flows()}, spec={self.spec})"
        )
