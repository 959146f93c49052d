"""Heavy-hitter detection task (Figs 8, 9, 13(a), 16, 18).

A heavy hitter under a partial key is a partial-key flow whose total
size is at least a threshold fraction of the trace's total traffic
(§7.1 uses 1e-4).  The harness runs one estimator over the trace and
scores its table on every measured partial key against exact ground
truth.
"""

from __future__ import annotations

from typing import Dict, List

from repro.flowkeys.key import PartialKeySpec
from repro.metrics.accuracy import AccuracyReport, evaluate_heavy_hitters_columns
from repro.tasks.harness import Estimator
from repro.traffic.trace import Trace

#: Paper default: heavy hitter = flow >= 1e-4 of total traffic.
DEFAULT_THRESHOLD_FRACTION = 1e-4


def heavy_hitter_task(
    estimator: Estimator,
    trace: Trace,
    partial_keys: List[PartialKeySpec],
    threshold_fraction: float = DEFAULT_THRESHOLD_FRACTION,
    process: bool = True,
) -> Dict[str, AccuracyReport]:
    """Run heavy-hitter detection over *partial_keys*.

    Returns one :class:`AccuracyReport` per partial key, keyed by the
    partial key's name.  Set ``process=False`` if the estimator already
    consumed the trace.
    """
    if not partial_keys:
        raise ValueError("need at least one partial key")
    if not 0 < threshold_fraction < 1:
        raise ValueError("threshold_fraction must be in (0, 1)")
    if process:
        estimator.process(iter(trace))
    threshold = threshold_fraction * trace.total_size
    truth = trace.exact_table()
    return {
        partial.name: evaluate_heavy_hitters_columns(
            estimator.column_table(partial),
            truth.aggregate(partial),
            threshold,
        )
        for partial in partial_keys
    }


def average_report(reports: Dict[str, AccuracyReport]) -> AccuracyReport:
    """Mean RR/PR/ARE across partial keys (how the paper plots points)."""
    return AccuracyReport.mean(reports.values())
