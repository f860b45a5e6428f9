"""Unit tests for device configurations and whole-network views."""

import pytest

from repro.config import (
    BgpNeighborConfig,
    ConfigError,
    DeviceConfig,
    Network,
    Prefix,
    RouteMap,
    RouteMapClause,
    StaticRouteConfig,
    CommunityList,
)
from repro.topology import Graph


def simple_device(name="r1") -> DeviceConfig:
    device = DeviceConfig(name=name)
    device.route_maps["SETPREF"] = RouteMap(
        name="SETPREF",
        clauses=(
            RouteMapClause(
                sequence=10,
                action="permit",
                match_community_lists=("tags",),
                set_local_pref=250,
                set_communities=("65001:99",),
            ),
        ),
    )
    device.community_lists["tags"] = CommunityList(name="tags", communities=("65001:1",))
    device.bgp_neighbors["r2"] = BgpNeighborConfig(peer="r2", import_policy="SETPREF")
    device.originated_prefixes.append(Prefix.parse("10.0.1.0/24"))
    return device


class TestDeviceConfig:
    def test_asn_defaults_to_name(self):
        assert DeviceConfig(name="r7").asn == "r7"

    def test_validate_detects_missing_references(self):
        device = DeviceConfig(name="r1")
        device.bgp_neighbors["r2"] = BgpNeighborConfig(peer="r2", import_policy="MISSING")
        problems = device.validate()
        assert any("MISSING" in problem for problem in problems)
        with pytest.raises(ConfigError):
            device.assert_valid()

    def test_validate_detects_missing_community_list(self):
        device = simple_device()
        del device.community_lists["tags"]
        assert device.validate()

    def test_valid_device_has_no_problems(self):
        assert simple_device().validate() == []

    def test_originates(self):
        device = simple_device()
        assert device.originates(Prefix.parse("10.0.1.0/24"))
        assert device.originates(Prefix.parse("10.0.1.128/25"))
        assert not device.originates(Prefix.parse("10.0.2.0/24"))

    def test_local_pref_values_include_default(self):
        assert simple_device().local_pref_values() == frozenset({100, 250})

    def test_community_views(self):
        device = simple_device()
        assert device.matched_communities() == frozenset({"65001:1"})
        assert device.set_communities() == frozenset({"65001:99"})

    def test_static_route_longest_match(self):
        device = DeviceConfig(name="r1")
        device.static_routes.append(
            StaticRouteConfig(prefix=Prefix.parse("10.0.0.0/8"), next_hop="a")
        )
        device.static_routes.append(
            StaticRouteConfig(prefix=Prefix.parse("10.0.1.0/24"), next_hop="b")
        )
        chosen = device.static_route_for(Prefix.parse("10.0.1.0/24"))
        assert chosen is not None and chosen.next_hop == "b"
        assert device.static_route_for(Prefix.parse("172.16.0.0/16")) is None

    def test_config_line_count_positive(self):
        assert simple_device().config_line_count() > 5


class TestNetwork:
    def build(self) -> Network:
        graph = Graph()
        graph.add_undirected_edge("r1", "r2")
        devices = {"r1": simple_device("r1"), "r2": DeviceConfig(name="r2")}
        devices["r2"].originated_prefixes.append(Prefix.parse("10.0.2.0/24"))
        return Network(graph=graph, devices=devices, name="test")

    def test_missing_devices_get_empty_configs(self):
        graph = Graph()
        graph.add_undirected_edge("a", "b")
        network = Network(graph=graph)
        assert set(network.devices) == {"a", "b"}

    def test_validate_detects_non_adjacent_neighbor(self):
        network = self.build()
        network.devices["r1"].bgp_neighbors["r9"] = BgpNeighborConfig(peer="r9")
        assert any("not adjacent" in problem for problem in network.validate())

    def test_valid_network(self):
        network = self.build()
        network.assert_valid()

    def test_unused_communities(self):
        network = self.build()
        assert network.unused_communities() == frozenset({"65001:99"})

    def test_originators_of(self):
        network = self.build()
        assert network.originators_of(Prefix.parse("10.0.1.0/24")) == {"r1"}
        assert network.originators_of(Prefix.parse("10.0.2.0/24")) == {"r2"}

    def test_equivalence_classes_cover_origins(self):
        network = self.build()
        classes = dict(network.destination_equivalence_classes())
        assert classes[Prefix.parse("10.0.1.0/24")] == {"r1"}
        assert classes[Prefix.parse("10.0.2.0/24")] == {"r2"}

    def test_stats_keys(self):
        stats = self.build().stats()
        assert stats["nodes"] == 2
        assert stats["edges"] == 1
        assert stats["equivalence_classes"] == 2
        assert stats["config_lines"] > 0
