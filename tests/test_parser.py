"""Unit tests for the network description text format."""

import pytest

from repro.config import ParseError, Prefix, format_network, parse_network

EXAMPLE = """
# Figure 5's tag-and-prefer network, written in the text format.
device a
  network 10.0.0.0/24
  bgp-neighbor b1 export TAG
  route-map TAG 10 permit
    set community 65001:1

device b1
  bgp-neighbor a import IMPORT
  bgp-neighbor b2 import IMPORT
  route-map IMPORT 10 permit

device b2
  bgp-neighbor b1 import PREFER
  bgp-neighbor d import PREFER
  community-list tagged 65001:1
  route-map PREFER 10 permit
    match community tagged
    set local-preference 200
  route-map PREFER 20 permit

device d
  asn 65099
  network 10.9.0.0/16
  static-route 10.8.0.0/16 next-hop b2
  ospf-link b2 cost 5 area 1
  bgp-neighbor b2 import IMPORT export IMPORT
  route-map IMPORT 10 permit
  prefix-list OWN permit 10.9.0.0/16 le 24
  acl BLOCK deny 10.7.0.0/16 default permit
  interface-acl b2 BLOCK

link a b1
link b1 b2
link b2 d
"""


def test_parse_devices_and_links():
    network = parse_network(EXAMPLE)
    assert set(network.devices) == {"a", "b1", "b2", "d"}
    assert network.graph.has_edge("a", "b1") and network.graph.has_edge("b1", "a")
    assert network.graph.num_undirected_edges() == 3


def test_parse_bgp_and_route_maps():
    network = parse_network(EXAMPLE)
    b2 = network.devices["b2"]
    assert b2.bgp_neighbors["b1"].import_policy == "PREFER"
    prefer = b2.route_maps["PREFER"]
    assert len(prefer.clauses) == 2
    assert prefer.clauses[0].set_local_pref == 200
    assert prefer.clauses[0].match_community_lists == ("tagged",)
    assert b2.community_lists["tagged"].communities == ("65001:1",)


def test_parse_statics_ospf_prefix_lists_acls():
    network = parse_network(EXAMPLE)
    d = network.devices["d"]
    assert d.asn == "65099"
    assert d.originated_prefixes == [Prefix.parse("10.9.0.0/16")]
    assert d.static_routes[0].next_hop == "b2"
    assert d.ospf_links["b2"].cost == 5 and d.ospf_links["b2"].area == 1
    own = d.prefix_lists["OWN"]
    assert own.entries[0].le == 24
    assert not d.acls["BLOCK"].permits(Prefix.parse("10.7.1.0/24"))
    assert d.acls["BLOCK"].permits(Prefix.parse("10.9.1.0/24"))
    assert d.interface_acls["b2"] == "BLOCK"


def test_parsed_network_is_valid():
    network = parse_network(EXAMPLE)
    assert network.validate() == []


def test_comments_and_blank_lines_ignored():
    network = parse_network("# nothing\n\ndevice a\n  network 10.0.0.0/24\n")
    assert set(network.devices) == {"a"}


def test_unknown_keyword_raises_with_line_number():
    with pytest.raises(ParseError) as excinfo:
        parse_network("device a\n  frobnicate 1\n")
    assert "line 2" in str(excinfo.value)


def test_statement_outside_device_block_raises():
    with pytest.raises(ParseError):
        parse_network("network 10.0.0.0/24\n")


def test_match_outside_route_map_raises():
    with pytest.raises(ParseError):
        parse_network("device a\n  match community x\n")


def test_bad_link_raises():
    with pytest.raises(ParseError):
        parse_network("link a\n")


def test_format_roundtrip_preserves_semantics():
    network = parse_network(EXAMPLE)
    text = format_network(network)
    reparsed = parse_network(text)
    assert set(reparsed.devices) == set(network.devices)
    assert reparsed.graph.num_undirected_edges() == network.graph.num_undirected_edges()
    b2 = reparsed.devices["b2"]
    assert b2.route_maps["PREFER"].clauses[0].set_local_pref == 200
    d = reparsed.devices["d"]
    assert d.static_routes[0].prefix == Prefix.parse("10.8.0.0/16")
    assert d.interface_acls["b2"] == "BLOCK"
    for name, device in network.devices.items():
        again = reparsed.devices[name]
        assert again.matched_communities() == device.matched_communities()
        assert again.set_communities() == device.set_communities()


#: Every device exports through a ``ge``-only filter: 10/8 at /24 or longer.
GE_ONLY = """
device a
  network 10.1.0.0/24
  bgp-neighbor b export OUT
  bgp-neighbor c export OUT
  prefix-list SITE permit 10.0.0.0/8 ge 24
  route-map OUT 10 permit
    match prefix-list SITE

device b
  network 10.2.0.128/25
  bgp-neighbor a export OUT
  bgp-neighbor d export OUT
  prefix-list SITE permit 10.0.0.0/8 ge 24
  route-map OUT 10 permit
    match prefix-list SITE

device c
  bgp-neighbor a export OUT
  bgp-neighbor d export OUT
  prefix-list SITE permit 10.0.0.0/8 ge 24
  route-map OUT 10 permit
    match prefix-list SITE

device d
  network 172.16.0.0/24
  bgp-neighbor b export OUT
  bgp-neighbor c export OUT
  prefix-list SITE permit 10.0.0.0/8 ge 24
  route-map OUT 10 permit
    match prefix-list SITE

link a b
link a c
link b d
link c d
"""


def test_ge_only_prefix_list_roundtrip():
    reparsed = parse_network(format_network(parse_network(GE_ONLY)))
    (entry,) = reparsed.devices["a"].prefix_lists["SITE"].entries
    assert (entry.ge, entry.le) == (24, None)
    assert "prefix-list SITE permit 10.0.0.0/8 ge 24\n" in format_network(reparsed)


def test_ge_only_export_filter_is_cp_equivalent():
    from repro.abstraction import Bonsai
    from repro.abstraction.equivalence import build_abstract_srp, check_cp_equivalence
    from repro.srp import solve

    bonsai = Bonsai(parse_network(GE_ONLY))
    routed = {}
    for ec in bonsai.equivalence_classes():
        result = bonsai.compress(ec, build_network=False)
        report = check_cp_equivalence(
            result.concrete_srp,
            result.abstraction,
            abstract_srp=build_abstract_srp(result.concrete_srp, result.abstraction),
        )
        assert report.cp_equivalent, report.violations
        labeling = solve(result.concrete_srp).labeling
        routed[str(ec.prefix)] = {node for node, label in labeling.items() if label is not None}
    # ge 24 reaches up to /32: the /25 crosses every filter, 172.16/24 none.
    assert routed["10.2.0.128/25"] == {"a", "b", "c", "d"}
    assert routed["10.1.0.0/24"] == {"a", "b", "c", "d"}
    assert routed["172.16.0.0/24"] == {"d"}
