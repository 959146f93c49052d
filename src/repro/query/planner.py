"""Query planner: one extraction, many memoized partial-key queries.

Partial-key workloads are many-query by nature — an HHH grid poses 33
(1-d) or 1089 (2-d) specs against one sketch, a subset-lattice scan
poses 2**fields, and the SQL front-end re-poses whatever the operator
types.  The planner amortises them:

* the sketch's state is extracted to a :class:`ColumnTable` **once**
  per query session (``export_columns`` on engine sketches, a single
  dict pack otherwise);
* each :class:`PartialKeySpec`'s projection + aggregation runs once and
  is memoized, so re-posing a spec (HHH levels shared between grids,
  repeated SQL) is a cache hit;
* every step is observable under the ``repro.obs.metrics/v1`` schema:
  ``query.extractions``, ``query.cache.hits`` / ``query.cache.misses``,
  ``query.groupby.rows`` / ``query.groupby.groups`` histograms, and
  ``query.extract`` / ``query.aggregate`` spans.

Memoization pays whenever a spec repeats or a dict view is consumed
more than once; for one-shot single-spec queries the planner is a thin
wrapper costing one dict lookup.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.flowkeys.key import FullKeySpec, PartialKeySpec
from repro.obs.registry import get_registry
from repro.query.columns import ColumnTable


class QueryPlanner:
    """Caching facade over one measurement's columnar state.

    Args:
        source: A :class:`~repro.sketches.base.Sketch` (extracted on
            first use) or a ready :class:`ColumnTable` over *spec*.
        spec: The full key the source records.
        group_base: With the default True the base is grouped up front
            (unique full keys).  False keeps it raw — a sketch's bucket
            rows as exported, a ColumnTable as given: the full-key
            group-by — the most expensive sort, since its multi-word
            keys are rank-folded before the one packed sort — is
            deferred until a query actually needs full-key rows
            (:meth:`grouped_base`), while partial-key aggregates
            project straight off the raw rows.  The slim read plane
            and the daemon's one-epoch planners pass False.  Answers
            are identical either way: float64 sums of sketch estimates
            are exact in any order, so grouping before or after
            projection commutes.
        version: Optional opaque provenance tag (the service stores its
            ``(epoch, packets)`` tuple here so answers can carry it).
    """

    def __init__(
        self,
        source,
        spec: FullKeySpec,
        group_base: bool = True,
        version=None,
    ) -> None:
        self.spec = spec
        self.version = version
        self._sketch = None
        self._frozen = False
        self._group_base = group_base
        self._group_lock = threading.Lock()
        self._base: Optional[ColumnTable] = None
        if isinstance(source, ColumnTable):
            self._base = source.group() if group_base else source
        else:
            self._sketch = source
        self._tables: Dict[PartialKeySpec, ColumnTable] = {}
        self._dicts: Dict[PartialKeySpec, Dict[int, float]] = {}
        self.hits = 0
        self.misses = 0

    def invalidate(self) -> None:
        """Drop all cached state (call after the sketch absorbs traffic)."""
        if self._sketch is not None:
            self._base = None
        self._tables.clear()
        self._dicts.clear()

    @property
    def base(self) -> ColumnTable:
        """The full-key table, extracted from the sketch exactly once
        (raw bucket rows when the planner was built with
        ``group_base=False``)."""
        if self._base is None:
            obs = get_registry()
            with obs.span("query.extract"):
                self._base = ColumnTable.from_sketch(
                    self._sketch, self.spec, group=self._group_base
                )
            obs.inc("query.extractions")
        return self._base

    def grouped_base(self) -> ColumnTable:
        """The base with unique full keys: a raw base is grouped once.

        The grouped table replaces the raw one as the base, so the
        sort runs at most once per planner (concurrent readers of a
        cached planner included) and memory holds one full-key table.
        Full-key rows, WHERE filters and COUNT(*) read this.
        """
        base = self.base
        if base.grouped:
            return base
        with self._group_lock:
            if not self._base.grouped:
                self._base = self._base.group()
            return self._base

    def freeze(self) -> "QueryPlanner":
        """Extract now, release the sketch, then memoize one key at a time.

        For planners a long-lived cache keeps: ad-hoc keys cannot grow
        one past its full-key table plus the last aggregate (and dict
        view) asked of it.  Extraction is the cost such a cache saves.
        """
        self.base
        self._sketch = None
        self._frozen = True
        return self

    def table(self, partial: PartialKeySpec) -> ColumnTable:
        """Aggregated columnar table for *partial* (memoized)."""
        cached = self._tables.get(partial)
        obs = get_registry()
        if cached is not None:
            self.hits += 1
            obs.inc("query.cache.hits")
            return cached
        self.misses += 1
        obs.inc("query.cache.misses")
        base = self.base
        with obs.span("query.aggregate"):
            if partial.is_full():
                # A raw (group_base=False) base pays its full-key
                # group-by here, once, and only if someone asks.
                table = self.grouped_base()
            else:
                table = base.aggregate(partial)
        if obs.enabled:
            obs.observe("query.groupby.rows", len(base))
            obs.observe("query.groupby.groups", len(table))
        if self._frozen:
            self._tables.clear()
        self._tables[partial] = table
        return table

    def sizes(self, partial: PartialKeySpec) -> Dict[int, float]:
        """Dict view of :meth:`table` (materialised once per spec)."""
        cached = self._dicts.get(partial)
        if cached is not None:
            return cached
        sizes = self.table(partial).to_dict()
        if self._frozen:
            self._dicts.clear()
        self._dicts[partial] = sizes
        return sizes

    def cache_info(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "cached_specs": len(self._tables),
        }

    def __repr__(self) -> str:
        return (
            f"QueryPlanner(spec={self.spec}, cached={len(self._tables)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
