"""Packet-level network-wide measurement simulation.

Flows (with packed 5-tuple keys) are assigned to host pairs, packets
are routed across the topology, and every switch runs a CocoSketch.
Who updates on a packet is the *observation policy*:

* ``EVERY_HOP`` — every on-path switch counts the packet.  Summing
  then over-counts multi-hop flows (each packet counted path-length
  times); kept as the cautionary baseline.
* ``INGRESS`` — only the first switch on the path counts.  Every
  packet counted exactly once; heavy ingress switches carry the load.
* ``FLOW_OWNERSHIP`` — a hash of the flow key picks one on-path switch
  as the flow's owner (the standard network-wide dedup, cf. cSamp):
  exactly-once counting with the load spread across the path.

Under an exactly-once policy the switches see disjoint sub-streams, so
their per-flow estimates add (Lemma 3): the collector sums the
per-switch tables (:func:`repro.engine.sharded.sum_rows`) into one
network-wide :class:`~repro.core.query.FlowTable`.
"""

from __future__ import annotations

import enum
from typing import Dict, Iterable, List, Tuple

from repro.core.cocosketch import BasicCocoSketch
from repro.core.query import FlowTable
from repro.engine.sharded import sum_rows
from repro.flowkeys.key import FIVE_TUPLE, FullKeySpec
from repro.hashing.family import mix64
from repro.network.topology import Topology


class ObservationPolicy(enum.Enum):
    """Which on-path switch(es) count a packet."""

    EVERY_HOP = "every-hop"
    INGRESS = "ingress"
    FLOW_OWNERSHIP = "flow-ownership"


class NetworkMeasurement:
    """Per-switch CocoSketches over a topology plus a summing collector.

    Args:
        topology: The switch/host graph.
        memory_bytes: Per-switch sketch budget.
        policy: Observation policy (default FLOW_OWNERSHIP).
        d: CocoSketch arrays; all switches share one hash family/seed.
    """

    def __init__(
        self,
        topology: Topology,
        memory_bytes: int = 128 * 1024,
        policy: ObservationPolicy = ObservationPolicy.FLOW_OWNERSHIP,
        d: int = 2,
        seed: int = 0,
        spec: FullKeySpec = FIVE_TUPLE,
    ) -> None:
        self.topology = topology
        self.policy = policy
        self.spec = spec
        self.seed = seed
        self.sketches: Dict[str, BasicCocoSketch] = {
            name: BasicCocoSketch.from_memory(memory_bytes, d=d, seed=seed)
            for name in topology.switches
        }
        if not self.sketches:
            raise ValueError("topology has no switches")
        self.packets_seen = 0
        self.observations = 0

    def _owner(self, key: int, path: List[str]) -> str:
        """Deterministic on-path owner via flow-key hashing."""
        index = mix64(key ^ (key >> 64) ^ self.seed) % len(path)
        return path[index]

    def observe(self, key: int, size: int, path: List[str]) -> None:
        """Route one packet along *path* under the observation policy."""
        if not path:
            raise ValueError("empty switch path")
        self.packets_seen += 1
        if self.policy is ObservationPolicy.EVERY_HOP:
            for switch in path:
                self.sketches[switch].update(key, size)
                self.observations += 1
        elif self.policy is ObservationPolicy.INGRESS:
            self.sketches[path[0]].update(key, size)
            self.observations += 1
        else:
            self.sketches[self._owner(key, path)].update(key, size)
            self.observations += 1

    def inject(
        self,
        packets: Iterable[Tuple[int, int]],
        endpoints: Dict[int, Tuple[str, str]],
    ) -> None:
        """Inject a packet stream with per-flow host endpoints.

        *endpoints* maps flow key -> (src host, dst host); unknown
        flows raise so misconfigured experiments fail loudly.
        """
        route = self.topology.route
        for key, size in packets:
            src, dst = endpoints[key]
            self.observe(key, size, route(src, dst))

    def collect(self) -> FlowTable:
        """Sum the per-switch tables into one network-wide table."""
        return FlowTable.from_columns(sum_rows(self.sketches.values(), self.spec))

    def per_switch_load(self) -> Dict[str, float]:
        """Total weight absorbed by each switch (load-balance view)."""
        return {
            name: float(sum(sum(row) for row in sketch._vals))
            for name, sketch in self.sketches.items()
        }


def assign_endpoints(
    flow_keys: Iterable[int], topology: Topology, seed: int = 0
) -> Dict[int, Tuple[str, str]]:
    """Deterministically pin each flow to a (src, dst) host pair."""
    hosts = topology.hosts
    if len(hosts) < 2:
        raise ValueError("need at least two hosts")
    endpoints: Dict[int, Tuple[str, str]] = {}
    for key in flow_keys:
        folded = mix64(key ^ (key >> 64) ^ seed)
        src = hosts[folded % len(hosts)]
        dst = hosts[(folded // len(hosts)) % (len(hosts) - 1)]
        if hosts.index(src) <= hosts.index(dst):
            dst = hosts[(hosts.index(dst) + 1) % len(hosts)]
        if src == dst:
            dst = hosts[(hosts.index(src) + 1) % len(hosts)]
        endpoints[key] = (src, dst)
    return endpoints
