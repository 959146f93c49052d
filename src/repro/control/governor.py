"""Elastic geometry governor: the control loop over the obs registry.

CocoSketch's error at a fixed memory budget is governed by bucket
pressure: a sketch whose buckets are nearly all occupied is evicting
constantly (high variance per Theorem 1's replacement churn), while a
mostly-empty sketch wastes memory that could shrink away or serve
another tenant.  Geometry changes only at an epoch boundary, and every
closed epoch is an unbiased estimate table of its own traffic whatever
its width, so ranges across a resize simply add (Lemma 3) — geometry
can be a runtime control variable rather than a deploy-time constant.

:class:`ResourceGovernor` closes that loop.  At every epoch boundary
the daemon hands it a :class:`Signals` sample (current width and
occupancy) and it returns a :class:`Decision`: grow or shrink the
per-shard bucket count within a hard memory budget, or hold steady.
``decide`` is a pure function of the signals — same signals, same
decision — so a governed daemon's epoch sequence stays a pure function
of the packet sequence (the resize-at-rotation invariant in
docs/governance.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.engine.base import buckets_for_memory
from repro.sketches.base import DEFAULT_KEY_BYTES

#: Floor on the bucket count — shrinks stop here.
MIN_L = 64

#: Width multiplier on grow (clamped to the budget's ``max_l``).
GROW_FACTOR = 2.0

#: Width multiplier on shrink (clamped to :data:`MIN_L`; the shrink is
#: vetoed unless it projects below ``grow_occupancy`` — no flapping).
SHRINK_FACTOR = 0.5


@dataclass(frozen=True)
class GovernorConfig:
    """The caller-set values of the elastic-geometry control loop.

    Args:
        memory_bytes: Hard per-shard budget; the governor never grows
            ``l`` past what this buys (``buckets_for_memory``).
        grow_occupancy: Grow when occupancy reaches this fraction.
        shrink_occupancy: Shrink when occupancy falls to this fraction.
    """

    memory_bytes: int
    grow_occupancy: float = 0.70
    shrink_occupancy: float = 0.25

    def __post_init__(self) -> None:
        if self.memory_bytes < 1:
            raise ValueError(
                f"memory_bytes must be >= 1, got {self.memory_bytes}"
            )
        if not 0.0 < self.shrink_occupancy < self.grow_occupancy <= 1.0:
            raise ValueError(
                "need 0 < shrink_occupancy < grow_occupancy <= 1, got "
                f"{self.shrink_occupancy} / {self.grow_occupancy}"
            )


@dataclass(frozen=True)
class Signals:
    """One epoch-boundary sample of the observability the loop closes on.

    Args:
        l: The closed epoch's per-shard bucket count.
        occupancy: Fraction of buckets holding a key in the closed
            epoch's merged state.
    """

    l: int
    occupancy: float


@dataclass(frozen=True)
class Decision:
    """What the governor wants done before the next epoch opens."""

    new_l: Optional[int] = None
    reason: str = "steady"

    @property
    def resized(self) -> bool:
        return self.new_l is not None


class ResourceGovernor:
    """Deterministic occupancy-driven geometry controller.

    Args:
        config: The control-loop thresholds and budget.
        d: Array count of the governed sketches (fixed — only ``l``
            is elastic; resizing ``d`` would change the estimator).
        key_bytes: Per-bucket key width, for the budget arithmetic.
    """

    def __init__(
        self,
        config: GovernorConfig,
        d: int = 2,
        key_bytes: int = DEFAULT_KEY_BYTES,
    ) -> None:
        self.config = config
        self.d = d
        self.key_bytes = key_bytes
        self.max_l = buckets_for_memory(config.memory_bytes, d, key_bytes)
        if MIN_L > self.max_l:
            raise ValueError(
                f"MIN_L {MIN_L} exceeds the budget's max_l "
                f"{self.max_l} ({config.memory_bytes}B at d={d})"
            )

    def decide(self, signals: Signals) -> Decision:
        """Map one epoch's signals to a geometry decision (pure)."""
        cfg = self.config
        l, occupancy = signals.l, signals.occupancy
        if occupancy >= cfg.grow_occupancy and l < self.max_l:
            new_l = min(self.max_l, int(l * GROW_FACTOR))
            if new_l > l:
                return Decision(
                    new_l,
                    f"occupancy {occupancy:.2f} >= "
                    f"{cfg.grow_occupancy:.2f}: grow",
                )
        elif occupancy <= cfg.shrink_occupancy and l > MIN_L:
            candidate = max(MIN_L, int(l * SHRINK_FACTOR))
            # Veto shrinks that would immediately re-trigger a grow:
            # keys re-hash into candidate buckets, so projected
            # occupancy is (occupancy * l) / candidate at worst.
            projected = occupancy * l / candidate
            if candidate < l and projected < cfg.grow_occupancy:
                return Decision(
                    candidate,
                    f"occupancy {occupancy:.2f} <= "
                    f"{cfg.shrink_occupancy:.2f}: shrink",
                )
        return Decision()
