"""Columnar flow tables: sketch state as key/value numpy columns.

The answer-plane counterpart of the vectorised engines: a
:class:`ColumnTable` holds an estimated ``(key, size)`` table as a
``(W, n)`` uint64 key-word array plus a float64 value column, so the
paper's §4.3 control-plane operations — ``g(.)`` projection, GROUP BY
aggregation, thresholding, top-k — are array operations instead of
per-flow dict loops.

Construction is a one-time extraction: engine sketches export their
flat state arrays directly (:meth:`ColumnTable.from_sketch` calls
``sketch.export_columns()`` when available — no python-int round trip),
scalar sketches pack their ``flow_table()`` dict once.  Everything
downstream — :class:`~repro.query.planner.QueryPlanner`,
:class:`~repro.core.query.FlowTable`, the SQL front-end, the task
suite — shares the extracted columns.

Aggregation here is *exactly* the reference dict semantics
(:func:`repro.flowkeys.key.group_table`): sketch estimates are integer
or half-integer valued floats far below 2**52, so float64 summation is
exact in any order and the columnar tables equal the scalar ones value
for value (tests enforce this across engines).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.flowkeys.columns import (
    columns_to_words,
    group_words,
    pack_key_words,
    unpack_key_words,
    words_for_width,
)
from repro.flowkeys.key import FullKeySpec, PartialKeySpec
from repro.query.project import ProjectionPlan

_U64 = np.uint64


def _spec_words(spec) -> int:
    """Key-word count for a full or partial key spec (0-width -> 1)."""
    return words_for_width(max(1, spec.width))


class ColumnTable:
    """An estimated flow table as key-word columns and a value column.

    Attributes:
        spec: The key spec the rows are over (full or partial).
        words: ``(W, n)`` uint64 key words, word 0 least significant.
        values: ``(n,)`` float64 estimated sizes.
        grouped: True when keys are unique and ascending (the result of
            :meth:`group`); raw extractions may carry duplicates.
    """

    __slots__ = ("spec", "words", "values", "grouped")

    def __init__(
        self,
        spec,
        words: "np.ndarray",
        values: "np.ndarray",
        grouped: bool = False,
    ) -> None:
        words = np.asarray(words, dtype=_U64)
        if words.ndim != 2:
            raise ValueError(f"words must be (W, n), got shape {words.shape}")
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (words.shape[1],):
            raise ValueError(
                f"values ({values.shape}) disagree with keys "
                f"({words.shape[1]} rows)"
            )
        self.spec = spec
        self.words = words
        self.values = values
        self.grouped = grouped

    # -- construction ---------------------------------------------------

    @classmethod
    def empty(cls, spec) -> "ColumnTable":
        return cls(
            spec,
            np.empty((_spec_words(spec), 0), dtype=_U64),
            np.empty(0, dtype=np.float64),
            grouped=True,
        )

    @classmethod
    def from_dict(cls, sizes: Dict[int, float], spec) -> "ColumnTable":
        """Pack a ``{key: size}`` dict (the scalar extraction path)."""
        if not sizes:
            return cls.empty(spec)
        keys = list(sizes.keys())
        words = pack_key_words(keys, max(1, spec.width))
        values = np.fromiter(
            (sizes[k] for k in keys), dtype=np.float64, count=len(keys)
        )
        return cls(spec, words, values).group()

    @classmethod
    def from_key_columns(
        cls,
        hi: "np.ndarray",
        lo: "np.ndarray",
        values: "np.ndarray",
        spec,
    ) -> "ColumnTable":
        """Wrap engine-exported ``(hi, lo, values)`` columns (zero-copy)."""
        return cls(spec, columns_to_words(hi, lo, max(1, spec.width)), values)

    @classmethod
    def from_sketch(
        cls, sketch, spec: FullKeySpec, group: bool = True
    ) -> "ColumnTable":
        """Step 3 extraction: the sketch's recorded table as columns.

        Engine sketches export their flat state arrays directly via
        ``export_columns()``; anything else packs its ``flow_table()``
        dict once.  By default the result is grouped (unique keys) and
        equals the dict table exactly; ``group=False`` keeps an engine
        export's raw bucket rows (duplicates included), whose group-by
        is that same table.
        """
        export = getattr(sketch, "export_columns", None)
        if export is not None:
            exported = export()
            if exported is not None:
                hi, lo, values = exported
                table = cls.from_key_columns(hi, lo, values, spec)
                return table.group() if group else table
        return cls.from_dict(sketch.flow_table(), spec)

    # -- core relational operations ------------------------------------

    def group(self) -> "ColumnTable":
        """``SELECT key, SUM(value) GROUP BY key`` (sort + reduceat)."""
        if self.grouped:
            return self
        words, totals = group_words(self.words, self.values)
        return ColumnTable(self.spec, words, totals, grouped=True)

    def project(self, partial: PartialKeySpec) -> "ColumnTable":
        """Apply ``g(.)`` to every row (keys mapped, values untouched)."""
        if partial.full != self.spec:
            raise ValueError(
                f"partial key {partial} is not over this table's spec"
            )
        plan = ProjectionPlan.compile(partial)
        return ColumnTable(partial, plan.apply(self.words), self.values)

    def aggregate(self, partial: PartialKeySpec) -> "ColumnTable":
        """Step 4: project onto *partial* and aggregate (Definition 1)."""
        return self.project(partial).group()

    def select(self, mask: "np.ndarray") -> "ColumnTable":
        """Row subset under a boolean mask or an index array.

        A boolean mask keeps the rows in order, so a grouped table stays
        grouped; an index array may reorder them, so the result is not.
        A mask becomes row indices first: ``take`` along the key axis is
        several times faster than boolean indexing of the 2-d words.
        """
        mask = np.asarray(mask)
        keeps_order = mask.dtype == np.bool_
        rows = np.flatnonzero(mask) if keeps_order else mask
        return ColumnTable(
            self.spec,
            np.take(self.words, rows, axis=1),
            self.values[rows],
            self.grouped and keeps_order,
        )

    def concat(self, other: "ColumnTable") -> "ColumnTable":
        """Stack two tables over the same spec (rows may then repeat)."""
        if other.spec != self.spec:
            raise ValueError("cannot combine tables over different specs")
        return ColumnTable(
            self.spec,
            np.concatenate([self.words, other.words], axis=1),
            np.concatenate([self.values, other.values]),
        )

    @classmethod
    def concat_many(cls, tables: List["ColumnTable"], spec=None) -> "ColumnTable":
        """Stack any number of same-spec tables in one concatenation.

        The n-way form of :meth:`concat` — a single allocation however
        many shards contribute, which is what the slim read plane's
        per-shard combine wants on its hot path.  A one-table list is
        returned as-is; an empty list needs *spec* to produce the empty
        table.
        """
        if not tables:
            if spec is None:
                raise ValueError("concat_many needs tables or an explicit spec")
            return cls.empty(spec)
        first = tables[0]
        for other in tables[1:]:
            if other.spec != first.spec:
                raise ValueError("cannot combine tables over different specs")
        if len(tables) == 1:
            return first
        return cls(
            first.spec,
            np.concatenate([t.words for t in tables], axis=1),
            np.concatenate([t.values for t in tables]),
        )

    def scaled(self, factor: float) -> "ColumnTable":
        """Values multiplied by *factor* (e.g. -1 for change tables)."""
        return ColumnTable(
            self.spec, self.words, self.values * factor, self.grouped
        )

    # -- answers --------------------------------------------------------

    def __len__(self) -> int:
        return self.words.shape[1]

    @property
    def total(self) -> float:
        return float(self.values.sum())

    def keys_list(self) -> List[int]:
        """Row keys as python integers (row order)."""
        return unpack_key_words(self.words)

    def to_dict(self) -> Dict[int, float]:
        """Materialise the ``{key: float(size)}`` dict view."""
        return dict(zip(self.keys_list(), self.values.tolist()))

    def lookup(self, key: int) -> float:
        """Size of one key (0.0 when absent); binary search if grouped."""
        if len(self) == 0:
            return 0.0
        target = pack_key_words([key], max(1, self.spec.width))
        if self.grouped and self.words.shape[0] == 1:
            j = int(np.searchsorted(self.words[0], target[0, 0]))
            if j < len(self) and self.words[0, j] == target[0, 0]:
                return float(self.values[j])
            return 0.0
        hit = (self.words == target).all(axis=0)
        return float(self.values[hit].sum())

    def threshold(self, threshold: float) -> "ColumnTable":
        """Rows with value >= *threshold* (vectorised heavy hitters)."""
        return self.select(self.values >= threshold)

    def top_k(self, k: int) -> List[Tuple[int, float]]:
        """The *k* largest rows, descending by value."""
        if k <= 0:
            return []
        n = len(self)
        if k < n:
            part = np.argpartition(self.values, n - k)[n - k:]
        else:
            part = np.arange(n)
        order = part[np.argsort(self.values[part], kind="stable")][::-1]
        keys = unpack_key_words(self.words[:, order])
        return list(zip(keys, self.values[order].tolist()))

    def __repr__(self) -> str:
        return (
            f"ColumnTable(spec={self.spec}, rows={len(self)}, "
            f"grouped={self.grouped})"
        )
