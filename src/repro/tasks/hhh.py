"""Hierarchical heavy hitters task (Figs 11, 12).

The paper's HHH evaluation treats the hierarchy (all SrcIP bit prefixes
for 1-d; the SrcIP x DstIP prefix grid for 2-d) as a large set of
partial keys and scores heavy-hitter detection on every level jointly:
a "flow" in the truth/report sets is a (level, prefix value) pair, so
recall/precision aggregate across the whole hierarchy (micro-average).

The classical *discounted* HHH definition (subtracting descendant HHH
counts, Zhang et al. IMC'04) is provided as an optional post-filter via
``discounted=True`` for the 1-d case, as an extension beyond the
paper's comparison.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from repro.flowkeys.key import PartialKeySpec
from repro.metrics.accuracy import (
    AccuracyReport,
    f1_score,
    heavy_hitter_stats_columns,
    precision_rate,
    recall_rate,
)
from repro.tasks.harness import Estimator
from repro.traffic.trace import Trace

#: HHH threshold fraction used in the HHH figures.
DEFAULT_HHH_FRACTION = 1e-3

LevelFlow = Tuple[int, int]  # (level index, prefix value)


def hhh_task(
    estimator: Estimator,
    trace: Trace,
    hierarchy: List[PartialKeySpec],
    threshold_fraction: float = DEFAULT_HHH_FRACTION,
    process: bool = True,
) -> AccuracyReport:
    """Joint HHH score across *hierarchy* (micro-averaged sets).

    ARE is averaged over the true HHHs of every level.
    """
    if not hierarchy:
        raise ValueError("hierarchy must be non-empty")
    if not 0 < threshold_fraction < 1:
        raise ValueError("threshold_fraction must be in (0, 1)")
    if process:
        estimator.process(iter(trace))
    threshold = threshold_fraction * trace.total_size

    # Levels are disjoint under the (level, value) flow labelling, so
    # the micro-averaged set metrics reduce to per-level counts.
    truth = trace.exact_table()
    totals = [0, 0, 0, 0.0]  # reported, correct, hits, ARE sum
    for partial in hierarchy:
        stats = heavy_hitter_stats_columns(
            estimator.column_table(partial), truth.aggregate(partial), threshold
        )
        totals = [t + s for t, s in zip(totals, stats)]
    return AccuracyReport.from_counts(*totals)


def discounted_hhh(
    tables: Dict[int, Dict[int, float]],
    hierarchy: List[PartialKeySpec],
    threshold: float,
) -> Set[LevelFlow]:
    """Classical discounted HHH over per-level tables (extension).

    *tables* maps level index -> {prefix value: size}; *hierarchy* must
    be ordered most-specific first (as
    :func:`repro.flowkeys.key.prefix_hierarchy` returns).  A prefix is
    an HHH iff its size minus the sizes already attributed to its HHH
    descendants still clears the threshold.
    """
    hhh: Set[LevelFlow] = set()
    attributed: Dict[int, float] = {}  # child HHH value -> size, prior level
    for level, partial in enumerate(hierarchy):
        table = tables.get(level, {})
        next_attributed: Dict[int, float] = {}
        if level == 0:
            for value, size in table.items():
                if size >= threshold:
                    hhh.add((level, value))
                    next_attributed[value] = size
        else:
            # Map prior-level (more specific) prefixes up one level.
            prev_bits = hierarchy[level - 1].width
            cur_bits = partial.width
            shift = prev_bits - cur_bits
            rolled: Dict[int, float] = {}
            for child_value, size in attributed.items():
                parent = child_value >> shift
                rolled[parent] = rolled.get(parent, 0.0) + size
            for value, size in table.items():
                residual = size - rolled.get(value, 0.0)
                carried = rolled.get(value, 0.0)
                if residual >= threshold:
                    hhh.add((level, value))
                    next_attributed[value] = size
                elif carried:
                    next_attributed[value] = carried
        attributed = next_attributed
    return hhh


def f1_of_sets(reported: Set, correct: Set) -> float:
    """Convenience F1 between two HHH sets."""
    return f1_score(recall_rate(reported, correct), precision_rate(reported, correct))
