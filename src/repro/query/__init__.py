"""Columnar query plane: vectorised partial-key answers (§4.3).

The update path (:mod:`repro.engine`) went columnar first; this package
is the read side of the same bargain.  Sketch state is extracted once
per query session into a :class:`~repro.query.columns.ColumnTable` —
``(key words, value)`` numpy columns — the paper's mapping ``g(.)``
becomes vectorised shift/mask projection
(:mod:`repro.query.project`), and aggregation / heavy hitters / top-k
become sort+reduceat group-bys.  A :class:`~repro.query.planner.QueryPlanner`
on top shares the extraction and memoizes per-spec projections, which is
what makes many-query workloads (HHH grids, subset-lattice scans, SQL)
scale with the vectorised ingest.

For write-heavy serving, :mod:`repro.query.slim` holds the service's
live read path: a :class:`~repro.query.slim.SlimReplica` kept fresh by
compact per-chunk deltas serves reads without pausing ingestion.
"""

from repro.query.columns import ColumnTable
from repro.query.planner import QueryPlanner
from repro.query.project import (
    ProjectionPlan,
    extract_bits,
    project_words,
)
from repro.query.slim import BucketDelta, SlimReplica, TableDelta

__all__ = [
    "BucketDelta",
    "ColumnTable",
    "QueryPlanner",
    "ProjectionPlan",
    "SlimReplica",
    "TableDelta",
    "extract_bits",
    "project_words",
]
