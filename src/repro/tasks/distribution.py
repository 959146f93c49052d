"""Distribution-level statistics: entropy and flow-size distribution.

§2.1 lists entropy estimation and flow size distribution among the
classic sketch applications.  CocoSketch's recorded flow table supports
both directly — on the full key *or any partial key*, which single-key
entropy sketches cannot do:

* :func:`empirical_entropy` — exact Shannon entropy of a counts table.
* :func:`entropy_from_table` — entropy from an estimated flow table,
  with a correction for unrecorded (tail) traffic: the residual weight
  ``N - table total`` is spread over ``residual_flows`` phantom flows.
* :func:`flow_size_histogram` / :func:`wmrd` — flow-size-distribution
  recovery and the standard Weighted Mean Relative Difference metric.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple


def empirical_entropy(counts: Dict[int, float]) -> float:
    """Shannon entropy (bits) of the flow-size distribution."""
    total = sum(counts.values())
    if total <= 0:
        return 0.0
    entropy = 0.0
    for size in counts.values():
        if size > 0:
            p = size / total
            entropy -= p * math.log2(p)
    return entropy


def entropy_from_table(
    table: Dict[int, float],
    true_total: float,
    residual_flows: int = 0,
) -> float:
    """Entropy estimate from a sketch's (possibly partial) flow table.

    Args:
        table: Estimated ``{key: size}`` (e.g. CocoSketch flow table,
            possibly aggregated onto a partial key).
        true_total: Total traffic in the window (known exactly from a
            packet counter in any deployment).
        residual_flows: How many unrecorded flows to attribute the
            residual ``true_total - sum(table)`` to; 0 ignores the
            residual (a lower bound on tail entropy contribution).
    """
    if true_total <= 0:
        raise ValueError(f"true_total must be positive, got {true_total}")
    entropy = 0.0
    recorded = 0.0
    for size in table.values():
        if size > 0:
            p = min(1.0, size / true_total)
            entropy -= p * math.log2(p)
            recorded += size
    residual = max(0.0, true_total - recorded)
    if residual_flows > 0 and residual > 0:
        p = residual / true_total / residual_flows
        if p > 0:
            entropy -= residual_flows * p * math.log2(p)
    return entropy


def flow_size_histogram(
    counts: Dict[int, float], log_scale: bool = True
) -> Dict[int, int]:
    """Flow-size distribution: bucket -> number of flows.

    With ``log_scale`` buckets are powers of two (bucket i holds flows
    of size in [2^i, 2^(i+1))); otherwise exact sizes.
    """
    histogram: Dict[int, int] = {}
    for size in counts.values():
        if size < 1:
            continue
        bucket = int(size).bit_length() - 1 if log_scale else int(size)
        histogram[bucket] = histogram.get(bucket, 0) + 1
    return histogram


def wmrd(
    estimated: Dict[int, int], truth: Dict[int, int]
) -> float:
    """Weighted Mean Relative Difference between two histograms.

    The standard FSD error metric (Kumar et al., SIGMETRICS'04):
    ``sum|n_i - n_hat_i| / sum((n_i + n_hat_i) / 2)``; 0 = identical.
    """
    num = 0.0
    den = 0.0
    for bucket in set(estimated) | set(truth):
        n_true = truth.get(bucket, 0)
        n_est = estimated.get(bucket, 0)
        num += abs(n_true - n_est)
        den += (n_true + n_est) / 2.0
    return num / den if den else 0.0


def top_k_share(counts: Dict[int, float], k: int) -> float:
    """Fraction of traffic carried by the k largest flows."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    total = sum(counts.values())
    if total <= 0:
        return 0.0
    largest: List[float] = sorted(counts.values(), reverse=True)[:k]
    return sum(largest) / total


def entropy_report(
    table: Dict[int, float],
    truth: Dict[int, int],
) -> Tuple[float, float, float]:
    """(estimated, true, relative error) entropy triple for one key."""
    true_entropy = empirical_entropy({k: float(v) for k, v in truth.items()})
    total = sum(truth.values())
    residual = max(0, len(truth) - len(table))
    estimated = entropy_from_table(table, total, residual_flows=residual)
    error = (
        abs(estimated - true_entropy) / true_entropy if true_entropy else 0.0
    )
    return estimated, true_entropy, error
