"""Multi-tenant resource governance: namespaced sketches, one budget.

A measurement box is rarely measuring for one consumer.  The tenant
plane splits traffic across named tenants — each packet routed by a
salted hash of its full key, so a flow belongs wholly to one tenant —
and gives every tenant its own isolated measurement daemon (own
sketches, own epochs, own query plane).  Isolation is structural: a
noisy tenant can saturate only its own buckets, never a neighbour's
(the noisy-tenant test in ``tests/test_control.py`` gates this).

Memory is governed jointly.  All tenant sketches live under one byte
budget, divided by *subpopulation weight* in the spirit of Cohen &
Kaplan's weighted sampling: each tenant's share of the budget is a
guaranteed reserve plus the remainder split proportionally to its
observed weight (packets + bytes, exponentially decayed so the split
tracks the recent traffic mix)::

    allocation_i = reserve + (1 - n * reserve) * weight_i / sum(weight)

with ``reserve = RESERVE_SHARE / n``: every tenant keeps at least half
its fair share no matter how loud the neighbours get.

Rebalancing is staged, never immediate: at every *parent* rotation the
manager recomputes allocations, stages ``set_geometry`` on tenants
whose target drifted past the hysteresis band, and rotates the tenant
daemons — so tenant epochs stay aligned with the parent's and resizes
only ever land on rotation boundaries (the same invariant the
single-tenant governor keeps, see docs/governance.md).
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.engine.base import buckets_for_memory
from repro.engine.sharded import _split_by_assignment
from repro.hashing.family import fold_columns, mix64, mix64_array
from repro.obs.registry import MetricsRegistry
from repro.sketches.base import COUNTER_BYTES

_TENANT_SALT = 0x7E4A47

#: Exponential decay applied to each tenant's weight at every parent
#: rotation — the allocation tracks a sliding window of roughly the
#: last couple of epochs rather than all-time totals.
WEIGHT_DECAY = 0.5

#: Smallest bucket count any tenant is ever squeezed to.
MIN_TENANT_L = 16

#: Fraction of its fair share ``1 / n`` each tenant is guaranteed.
RESERVE_SHARE = 0.5

#: Allocation-change ratio below which a rebalance is not worth a
#: resize (keeps geometry stable under small traffic wobbles).
REBALANCE_HYSTERESIS = 1.2


def tenant_assignments(
    hi: "np.ndarray",
    lo: "np.ndarray",
    tenants: int,
    seed: int = 0,
) -> "np.ndarray":
    """Per-packet tenant index via a salted full-key hash (flow-pure).

    Independent of both the sketch hash family and the shard
    partitioner (different salts), so tenancy does not correlate with
    bucket placement or shard placement.
    """
    if tenants < 1:
        raise ValueError(f"tenants must be >= 1, got {tenants}")
    salt = np.uint64(mix64(seed ^ _TENANT_SALT))
    hashed = mix64_array(fold_columns(hi, lo) ^ salt)
    return (hashed % np.uint64(tenants)).astype(np.int64)


class TenantManager:
    """Named per-tenant daemons under one jointly-governed byte budget.

    Args:
        names: Tenant names (unique, non-empty); routing order follows
            this sequence.
        config: The parent's ``ServiceConfig`` — tenant daemons inherit
            its key spec, engine/variant/seed and chunking, but always
            run single-shard, inline, rotation-by-parent, with the
            control fields cleared (no nested governance).
        memory_bytes: The joint budget across all tenant sketches.
    """

    def __init__(
        self,
        names: Sequence[str],
        config,
        memory_bytes: int,
    ) -> None:
        names = list(names)
        if not names:
            raise ValueError("need at least one tenant name")
        if len(set(names)) != len(names):
            raise ValueError(f"tenant names must be unique, got {names}")
        if any(not n for n in names):
            raise ValueError("tenant names must be non-empty")
        n = len(names)
        spec = config.spec
        if memory_bytes < n * MIN_TENANT_L * spec.d * (
            spec.key_bytes + COUNTER_BYTES
        ):
            raise ValueError(
                f"tenant budget {memory_bytes}B too small for {n} "
                f"tenants at d={spec.d}"
            )
        self.names: Tuple[str, ...] = tuple(names)
        self.memory_bytes = memory_bytes
        self.reserve = RESERVE_SHARE / n
        self.seed = spec.seed
        self.registry = MetricsRegistry()
        self._lock = threading.Lock()
        self._weights: List[float] = [0.0] * n
        self._epoch_weights: List[float] = [0.0] * n
        self._packets: List[int] = [0] * n

        from repro.service.daemon import MeasurementDaemon

        equal_l = self._l_for_fraction(spec, 1.0 / n)
        self._daemons = []
        for i, name in enumerate(self.names):
            sub = dataclasses.replace(
                config,
                spec=dataclasses.replace(
                    spec,
                    l=equal_l,
                    seed=mix64(spec.seed + (i + 1) * 0x9E3779B97F4A7C15),
                ),
                shards=1,
                epoch_packets=None,
                epoch_seconds=None,
                governor=None,
                tenants=None,
            )
            self._daemons.append(MeasurementDaemon(sub))
        self._publish_locked()

    def _l_for_fraction(self, spec, fraction: float) -> int:
        budget = int(self.memory_bytes * fraction)
        try:
            l = buckets_for_memory(budget, spec.d, spec.key_bytes)
        except ValueError:
            l = MIN_TENANT_L
        return max(MIN_TENANT_L, l)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown tenant {name!r}") from None

    def daemon(self, name: str):
        """The named tenant's measurement daemon (KeyError if unknown)."""
        return self._daemons[self.index(name)]

    def route(self, hi, lo, sizes) -> None:
        """Split one columnar block across tenants and ingest each part.

        Called with the parent's ingest lock held; tenant daemons take
        their own locks underneath (parent -> tenant, never reversed).
        """
        n = len(self.names)
        assign = tenant_assignments(hi, lo, n, self.seed)
        parts = _split_by_assignment(hi, lo, sizes, assign, n)
        with self._lock:
            for i, (thi, tlo, tsz) in enumerate(parts):
                if not len(tsz):
                    continue
                weight = len(tsz) + float(np.sum(tsz))
                self._epoch_weights[i] += weight
                self._packets[i] += len(tsz)
        for i, (thi, tlo, tsz) in enumerate(parts):
            if len(tsz):
                self._daemons[i].ingest(thi, tlo, tsz)

    def _shares_locked(self) -> List[float]:
        n = len(self.names)
        total = sum(self._weights)
        out = []
        for w in self._weights:
            share = (w / total) if total > 0 else 1.0 / n
            out.append(self.reserve + (1.0 - n * self.reserve) * share)
        return out

    def on_parent_rotate(self) -> int:
        """Rebalance allocations and rotate every tenant epoch.

        Returns the number of tenants whose geometry was restaged this
        round.  Runs under the parent's ingest lock, so the decayed
        weights, the staged geometries and the tenant rotations land
        atomically with the parent's own rotation.
        """
        with self._lock:
            for i, ew in enumerate(self._epoch_weights):
                self._weights[i] = WEIGHT_DECAY * self._weights[i] + ew
                self._epoch_weights[i] = 0.0
            fractions = self._shares_locked()
        resized = 0
        for i, sub in enumerate(self._daemons):
            target = self._l_for_fraction(sub.config.spec, fractions[i])
            current = sub.spec.l
            ratio = target / current if current else float("inf")
            if ratio >= REBALANCE_HYSTERESIS or ratio <= 1.0 / REBALANCE_HYSTERESIS:
                sub.set_geometry(target)
                resized += 1
            sub.rotate()
        with self._lock:
            self._publish_locked()
        if resized:
            self.registry.inc("control.tenant.rebalances", resized)
        return resized

    def _publish_locked(self) -> None:
        reg = self.registry
        fractions = self._shares_locked()
        for i, name in enumerate(self.names):
            sub = self._daemons[i]
            prefix = f"control.tenant.{name}."
            reg.set_gauge(prefix + "packets", float(self._packets[i]))
            reg.set_gauge(prefix + "weight", self._weights[i])
            reg.set_gauge(prefix + "share", fractions[i])
            reg.set_gauge(prefix + "l", float(sub.spec.l))
            reg.set_gauge(
                prefix + "memory_bytes",
                float(
                    sub.spec.d
                    * sub.spec.l
                    * (sub.spec.key_bytes + COUNTER_BYTES)
                ),
            )

    def metrics_snapshot(self) -> Dict:
        with self._lock:
            self._publish_locked()
            return self.registry.snapshot()

    def status(self) -> List[Dict]:
        """JSON-ready per-tenant rows (folded into the parent status)."""
        with self._lock:
            fractions = self._shares_locked()
            return [
                {
                    "tenant": name,
                    "packets": self._packets[i],
                    "weight": self._weights[i],
                    "share": fractions[i],
                    "l": self._daemons[i].spec.l,
                }
                for i, name in enumerate(self.names)
            ]

    def close(self) -> None:
        for sub in self._daemons:
            sub.close()
