"""Estimator adapters: one surface for every algorithm family.

An :class:`Estimator` consumes a trace once and then yields, for any of
the measured partial keys, an estimated ``{partial_value: size}`` table.
Three concrete shapes cover the evaluation:

* :class:`FullKeyEstimator` — CocoSketch / USS / full-key strawmen: one
  sketch on the full key, partial tables by control-plane aggregation
  (§4.3).
* :class:`PerKeyEstimator` — the single-key baselines: a
  :class:`~repro.sketches.multikey.MultiKeySketchBank` with one sketch
  per key.
* :class:`HierarchyEstimator` — R-HHH: per-level sketches with sampling
  rescale.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.flowkeys.key import FullKeySpec, PartialKeySpec
from repro.query.columns import ColumnTable
from repro.query.planner import QueryPlanner
from repro.sketches.base import Sketch
from repro.sketches.multikey import MultiKeySketchBank
from repro.sketches.rhhh import RandomizedHHH


class Estimator(abc.ABC):
    """Process a packet stream once, then answer per-partial-key tables."""

    name: str = "estimator"

    @abc.abstractmethod
    def process(self, packets: Iterable[Tuple[int, int]]) -> None:
        """Consume the trace."""

    @abc.abstractmethod
    def table(self, partial: PartialKeySpec) -> Dict[int, float]:
        """Estimated ``{partial_value: size}`` for one measured key."""

    def column_table(self, partial: PartialKeySpec) -> ColumnTable:
        """:meth:`table` as a column table (what the tasks score).

        The default packs the dict table; estimators that hold columns
        already (:class:`FullKeyEstimator`) answer without the dict.
        """
        return ColumnTable.from_dict(self.table(partial), partial)


class FullKeyEstimator(Estimator):
    """One full-key sketch; partial keys recovered by aggregation.

    Args:
        sketch: Any full-key :class:`Sketch`, from either execution
            engine (:mod:`repro.engine`).
        spec: The full key the sketch records.
        shards: When given, replace *sketch* with an equivalent
            :class:`~repro.engine.sharded.ShardedSketch` — *sketch*'s
            engine/geometry/seed are recovered and each of the N
            workers gets its own copy; ``shards=1`` replays the
            unsharded execution bit for bit.
        shard_strategy: ``"hash"`` (default, flow-pure) or
            ``"round-robin"`` trace partitioning.
        shard_processes: Pool policy forwarded to
            :class:`~repro.engine.sharded.ShardedSketch` (``True`` =
            one OS process per shard, ``False`` = in-process workers).
    """

    def __init__(
        self,
        sketch: Sketch,
        spec: FullKeySpec,
        shards: Optional[int] = None,
        shard_strategy: str = "hash",
        shard_processes=True,
    ) -> None:
        if shards is not None:
            from repro.engine.sharded import ShardedSketch, SketchSpec

            if isinstance(sketch, ShardedSketch):
                raise ValueError(
                    "pass either an already-sharded sketch or shards=N, "
                    "not both"
                )
            sketch = ShardedSketch(
                SketchSpec.from_sketch(sketch),
                shards,
                strategy=shard_strategy,
                processes=shard_processes,
            )
        self.sketch = sketch
        self.spec = spec
        self.name = sketch.name
        self._planner: Optional[QueryPlanner] = None

    def process(self, packets: Iterable[Tuple[int, int]]) -> None:
        self.sketch.process(packets)
        if self._planner is not None:
            self._planner.invalidate()

    @property
    def planner(self) -> QueryPlanner:
        """The query session: one extraction, memoized aggregations."""
        if self._planner is None:
            self._planner = QueryPlanner(self.sketch, self.spec)
        return self._planner

    def table(self, partial: PartialKeySpec) -> Dict[int, float]:
        return self.planner.sizes(partial)

    def column_table(self, partial: PartialKeySpec) -> ColumnTable:
        return self.planner.table(partial)


class PerKeyEstimator(Estimator):
    """One single-key sketch per partial key (the §2.3 strawman)."""

    def __init__(self, bank: MultiKeySketchBank) -> None:
        self.bank = bank
        self.name = bank.name

    @classmethod
    def build(
        cls,
        partial_keys: List[PartialKeySpec],
        factory: Callable[[int, int], Sketch],
        memory_bytes: int,
        seed: int = 0,
        name: str = "",
    ) -> "PerKeyEstimator":
        return cls(
            MultiKeySketchBank(partial_keys, factory, memory_bytes, seed, name)
        )

    def process(self, packets: Iterable[Tuple[int, int]]) -> None:
        self.bank.process(packets)

    def table(self, partial: PartialKeySpec) -> Dict[int, float]:
        return self.bank.table_for(partial)


class HierarchyEstimator(Estimator):
    """R-HHH adapter: per-level tables with the H-times rescale."""

    def __init__(self, rhhh: RandomizedHHH) -> None:
        self.rhhh = rhhh
        self.name = rhhh.name

    def process(self, packets: Iterable[Tuple[int, int]]) -> None:
        self.rhhh.process(packets)

    def table(self, partial: PartialKeySpec) -> Dict[int, float]:
        return self.rhhh.level_table(partial)
