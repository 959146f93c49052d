"""Tests for the network-wide measurement subsystem."""

import pytest

from repro.flowkeys.key import FIVE_TUPLE
from repro.network.simulation import (
    NetworkMeasurement,
    ObservationPolicy,
    assign_endpoints,
)
from repro.network.topology import Topology, leaf_spine, linear, star
from repro.traffic.synthetic import zipf_trace


class TestTopology:
    def test_star_shape(self):
        topo = star(3)
        assert topo.switches == ["s0"]
        assert len(topo.hosts) == 3

    def test_linear_routing_traverses_chain(self):
        topo = linear(3, hosts_per_switch=1)
        path = topo.route("h0_0", "h2_0")
        assert path == ["s0", "s1", "s2"]

    def test_same_switch_route_single_hop(self):
        topo = linear(2, hosts_per_switch=2)
        assert topo.route("h0_0", "h0_1") == ["s0"]

    def test_leaf_spine_routes_via_one_spine(self):
        topo = leaf_spine(2, 4, 1)
        path = topo.route("h0_0", "h3_0")
        assert len(path) == 3
        assert path[0] == "leaf0"
        assert path[2] == "leaf3"
        assert path[1].startswith("spine")

    def test_validation(self):
        topo = Topology()
        topo.add_switch("s0")
        with pytest.raises(ValueError):
            topo.add_switch("s0")
        with pytest.raises(ValueError):
            topo.add_host("h", "ghost")
        topo.add_host("h0", "s0")
        with pytest.raises(ValueError):
            topo.add_link("h0", "s0")
        with pytest.raises(ValueError):
            star(0)
        with pytest.raises(ValueError):
            linear(0)
        with pytest.raises(ValueError):
            leaf_spine(0)

    def test_route_requires_hosts(self):
        topo = star(2)
        with pytest.raises(ValueError):
            topo.route("s0", "h0")


class TestEndpoints:
    def test_deterministic_and_distinct(self):
        topo = leaf_spine(2, 4, 2)
        keys = list(range(100))
        a = assign_endpoints(keys, topo, seed=1)
        b = assign_endpoints(keys, topo, seed=1)
        assert a == b
        assert all(src != dst for src, dst in a.values())

    def test_needs_two_hosts(self):
        with pytest.raises(ValueError):
            assign_endpoints([1], star(1))


class TestObservationPolicies:
    def _run(self, policy, trace, topo):
        endpoints = assign_endpoints(trace.full_counts(), topo, seed=2)
        net = NetworkMeasurement(
            topo, memory_bytes=96 * 1024, policy=policy, seed=3
        )
        net.inject(iter(trace), endpoints)
        return net

    @pytest.fixture(scope="class")
    def trace(self):
        return zipf_trace(20_000, 2_500, alpha=1.1, seed=30)

    @pytest.fixture(scope="class")
    def topo(self):
        return leaf_spine(2, 4, 2)

    def test_ingress_counts_each_packet_once(self, trace, topo):
        net = self._run(ObservationPolicy.INGRESS, trace, topo)
        assert net.observations == len(trace)
        assert sum(net.per_switch_load().values()) == trace.total_size

    def test_ownership_counts_each_packet_once(self, trace, topo):
        net = self._run(ObservationPolicy.FLOW_OWNERSHIP, trace, topo)
        assert net.observations == len(trace)
        assert sum(net.per_switch_load().values()) == trace.total_size

    def test_every_hop_overcounts(self, trace, topo):
        net = self._run(ObservationPolicy.EVERY_HOP, trace, topo)
        assert net.observations > len(trace)
        assert sum(net.per_switch_load().values()) > trace.total_size

    def test_ownership_uses_core_switches_ingress_does_not(self, trace, topo):
        ingress = self._run(ObservationPolicy.INGRESS, trace, topo)
        owned = self._run(ObservationPolicy.FLOW_OWNERSHIP, trace, topo)
        spine_load_ingress = sum(
            load
            for name, load in ingress.per_switch_load().items()
            if name.startswith("spine")
        )
        spine_load_owned = sum(
            load
            for name, load in owned.per_switch_load().items()
            if name.startswith("spine")
        )
        # Ingress counting pins all state to the edge; ownership also
        # recruits the spines' sketch memory.
        assert spine_load_ingress == 0
        assert spine_load_owned > 0

    def test_collector_accuracy_exactly_once(self, trace, topo):
        net = self._run(ObservationPolicy.FLOW_OWNERSHIP, trace, topo)
        table = net.collect()
        assert table.total == pytest.approx(trace.total_size)
        truth = trace.full_counts()
        top = sorted(truth.items(), key=lambda kv: -kv[1])[:10]
        for key, size in top:
            assert table.query(key) == pytest.approx(size, rel=0.2)

    def test_collector_is_sum_of_switch_tables(self, trace, topo):
        net = self._run(ObservationPolicy.FLOW_OWNERSHIP, trace, topo)
        summed = {}
        for sketch in net.sketches.values():
            for key, size in sketch.flow_table().items():
                summed[key] = summed.get(key, 0.0) + size
        assert net.collect().sizes == summed
        assert sum(summed.values()) == trace.total_size

    def test_collector_partial_key_query(self, trace, topo):
        net = self._run(ObservationPolicy.FLOW_OWNERSHIP, trace, topo)
        table = net.collect()
        src = FIVE_TUPLE.partial("SrcIP")
        truth = trace.ground_truth(src)
        top_val, top_size = max(truth.items(), key=lambda kv: kv[1])
        assert table.aggregate(src).query(top_val) == pytest.approx(
            top_size, rel=0.2
        )

    def test_empty_path_rejected(self, topo):
        net = NetworkMeasurement(topo, memory_bytes=32 * 1024)
        with pytest.raises(ValueError):
            net.observe(1, 1, [])

    def test_topology_without_switches_rejected(self):
        with pytest.raises(ValueError):
            NetworkMeasurement(Topology(), memory_bytes=32 * 1024)
