"""Accuracy metrics: RR, PR, F1, ARE (§7.1 definitions).

* Recall Rate — correctly reported flows / correct flows.
* Precision Rate — correctly reported flows / reported flows.
* F1 — harmonic mean of RR and PR.
* ARE — mean of ``|f_hat - f| / f`` over the query set Ψ; following the
  paper's heavy-hitter evaluations, Ψ is the set of *true* heavy
  hitters, and a missed flow contributes its full relative error
  (estimate 0 -> error 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, AbstractSet, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.flowkeys.columns import unique_words
from repro.flowkeys.key import FullKeySpec

if TYPE_CHECKING:
    from repro.query.columns import ColumnTable


def recall_rate(reported: AbstractSet[int], truth: AbstractSet[int]) -> float:
    """|reported ∩ truth| / |truth| (1.0 for an empty truth set)."""
    if not truth:
        return 1.0
    return len(reported & truth) / len(truth)


def precision_rate(reported: AbstractSet[int], truth: AbstractSet[int]) -> float:
    """|reported ∩ truth| / |reported| (1.0 for an empty report)."""
    if not reported:
        return 1.0
    return len(reported & truth) / len(reported)


def f1_score(recall: float, precision: float) -> float:
    """Harmonic mean of recall and precision."""
    if recall + precision == 0:
        return 0.0
    return 2 * recall * precision / (recall + precision)


def average_relative_error(
    estimates: Dict[int, float],
    truth: Dict[int, int],
    query_set: Optional[Iterable[int]] = None,
) -> float:
    """Mean |f_hat(e) - f(e)| / f(e) over the query set.

    *query_set* defaults to every flow in *truth*.  Flows missing from
    *estimates* count with estimate 0.
    """
    keys = list(query_set) if query_set is not None else list(truth)
    if not keys:
        return 0.0
    total = 0.0
    for key in keys:
        true_size = truth.get(key, 0)
        if true_size <= 0:
            raise ValueError(f"query flow {key} has no ground truth size")
        total += abs(estimates.get(key, 0.0) - true_size) / true_size
    return total / len(keys)


@dataclass(frozen=True)
class AccuracyReport:
    """RR/PR/F1/ARE for one (task, partial key) cell."""

    recall: float
    precision: float
    are: float

    @property
    def f1(self) -> float:
        return f1_score(self.recall, self.precision)

    @classmethod
    def from_counts(
        cls, n_reported: int, n_correct: int, n_hits: int, are_sum: float
    ) -> "AccuracyReport":
        """The report from set sizes and the ARE sum over correct flows."""
        return cls(
            recall=n_hits / n_correct if n_correct else 1.0,
            precision=n_hits / n_reported if n_reported else 1.0,
            are=are_sum / n_correct if n_correct else 0.0,
        )

    @staticmethod
    def mean(reports: "Iterable[AccuracyReport]") -> "AccuracyReport":
        """Arithmetic mean across partial keys (the paper reports
        averages over the measured keys)."""
        items = list(reports)
        if not items:
            raise ValueError("mean of no reports")
        n = len(items)
        return AccuracyReport(
            recall=sum(r.recall for r in items) / n,
            precision=sum(r.precision for r in items) / n,
            are=sum(r.are for r in items) / n,
        )


def _as_partial(spec):
    """A table's key as a partial key (a full-key table's is the identity)."""
    return spec.identity_partial() if isinstance(spec, FullKeySpec) else spec


def heavy_hitter_stats_columns(
    estimates: "ColumnTable",
    truth: "ColumnTable",
    threshold: float,
) -> Tuple[int, int, int, float]:
    """Vectorised HH set statistics over two column tables.

    Args:
        estimates: Estimated table over one key (any word count;
            grouped here if it is not already).
        truth: Exact table over the same key spec (e.g.
            ``trace.exact_table().aggregate(partial)``); another spec,
            even one of the same word count, raises ``ValueError``.
        threshold: Absolute heavy-hitter threshold.

    Returns ``(n_reported, n_correct, n_hits, are_sum)`` — the raw
    counts the set metrics are built from, so multi-level tasks (HHH)
    can micro-average across levels.  Semantics match the dict-based
    :func:`evaluate_heavy_hitters` exactly: reported = estimated >=
    threshold, correct = truly >= threshold, ARE summed over the true
    heavy hitters with missing estimates counted as 0.
    """
    if _as_partial(estimates.spec) != _as_partial(truth.spec):
        raise ValueError(
            f"estimates over {estimates.spec} cannot be scored against "
            f"truth over {truth.spec}"
        )
    estimates = estimates.group()
    correct = truth.group().threshold(threshold)
    reported = estimates.values >= threshold
    # One id space over the estimated keys and the true heavy hitters.
    n_est = len(estimates)
    _, ids = unique_words(
        np.concatenate([estimates.words, correct.words], axis=1)
    )
    est_ids, correct_ids = ids[:n_est], ids[n_est:]
    est_at = np.zeros(len(ids), dtype=np.float64)
    est_at[est_ids] = estimates.values
    is_reported = np.zeros(len(ids), dtype=bool)
    is_reported[est_ids[reported]] = True
    n_hits = int(is_reported[correct_ids].sum())
    errors = np.abs(est_at[correct_ids] - correct.values) / correct.values
    are_sum = float(errors.sum())
    return int(reported.sum()), len(correct), n_hits, are_sum


def evaluate_heavy_hitters_columns(
    estimates: "ColumnTable",
    truth: "ColumnTable",
    threshold: float,
) -> AccuracyReport:
    """Columnar :func:`evaluate_heavy_hitters` (same report, no dicts)."""
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    return AccuracyReport.from_counts(
        *heavy_hitter_stats_columns(estimates, truth, threshold)
    )


def evaluate_heavy_hitters(
    estimates: Dict[int, float],
    truth: Dict[int, int],
    threshold: float,
) -> AccuracyReport:
    """Score an estimated table against exact counts at a HH threshold.

    Reported flows are those *estimated* >= threshold; correct flows are
    those *truly* >= threshold; ARE is computed over the true heavy
    hitters (the paper's query set).
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    reported = {k for k, v in estimates.items() if v >= threshold}
    correct = {k for k, v in truth.items() if v >= threshold}
    return AccuracyReport(
        recall=recall_rate(reported, correct),
        precision=precision_rate(reported, correct),
        are=average_relative_error(estimates, truth, correct),
    )
