"""Heavy-change detection task (Figs 10, 13(b)).

A heavy change under a partial key is a flow whose size differs across
two adjacent measurement windows by at least a threshold fraction of
the windows' total traffic.  Each window gets a fresh estimator
instance (as the deployments would reset or rotate sketches); changes
are computed over the union of both windows' reported flows.
"""

from __future__ import annotations

from typing import Callable, Dict, List

import numpy as np

from repro.flowkeys.key import PartialKeySpec
from repro.metrics.accuracy import AccuracyReport, evaluate_heavy_hitters_columns
from repro.query.columns import ColumnTable
from repro.tasks.harness import Estimator
from repro.traffic.trace import Trace

#: Paper's heavy-change threshold fraction of total traffic.
DEFAULT_CHANGE_FRACTION = 1e-4


def _change_columns(
    table_a: ColumnTable, table_b: ColumnTable
) -> ColumnTable:
    """|size_a - size_b| per flow over the union of both tables.

    ``concat(a, -b)`` grouped sums to ``a - b`` per key (exact — the
    sizes are integer/half-integer floats), then the magnitudes.
    """
    diff = table_a.concat(table_b.scaled(-1.0)).group()
    return ColumnTable(
        diff.spec, diff.words, np.abs(diff.values), grouped=True
    )


def heavy_change_task(
    make_estimator: Callable[[], Estimator],
    window_a: Trace,
    window_b: Trace,
    partial_keys: List[PartialKeySpec],
    threshold_fraction: float = DEFAULT_CHANGE_FRACTION,
) -> Dict[str, AccuracyReport]:
    """Score heavy-change detection across two windows.

    Args:
        make_estimator: Builds a fresh estimator (same config) per
            window; called twice.
    """
    if not 0 < threshold_fraction < 1:
        raise ValueError("threshold_fraction must be in (0, 1)")
    est_a = make_estimator()
    est_a.process(iter(window_a))
    est_b = make_estimator()
    est_b.process(iter(window_b))
    threshold = threshold_fraction * (window_a.total_size + window_b.total_size) / 2
    truth_a = window_a.exact_table()
    truth_b = window_b.exact_table()
    # ARE is scored over the true heavy changes, on the change magnitude.
    return {
        partial.name: evaluate_heavy_hitters_columns(
            _change_columns(
                est_a.column_table(partial), est_b.column_table(partial)
            ),
            _change_columns(
                truth_a.aggregate(partial), truth_b.aggregate(partial)
            ),
            threshold,
        )
        for partial in partial_keys
    }
