"""Shared fixtures: the paper's running examples and small workloads."""

from __future__ import annotations

import collections
import contextlib
import os

import pytest

from repro.config.prefix import Prefix
from repro.netgen import (
    DATACENTER_SMALL_SCALE,
    WAN_SMALL_SCALE,
    datacenter_network,
    fattree_network,
    full_mesh_network,
    ring_network,
    wan_network,
)
from repro.obs import metrics
from repro.routing import SetLocalPref, build_bgp_srp, build_rip_srp
from repro.topology import Graph


@pytest.fixture
def figure1_graph() -> Graph:
    """The RIP network of Figure 1: a - b1 - d and a - b2 - d."""
    g = Graph()
    g.add_undirected_edge("a", "b1")
    g.add_undirected_edge("a", "b2")
    g.add_undirected_edge("b1", "d")
    g.add_undirected_edge("b2", "d")
    return g


@pytest.fixture
def figure1_srp(figure1_graph):
    return build_rip_srp(figure1_graph, "d")


@pytest.fixture
def figure2_graph() -> Graph:
    """The BGP gadget of Figure 2(a): a above b1,b2,b3 above d (6 edges)."""
    g = Graph()
    for b in ("b1", "b2", "b3"):
        g.add_undirected_edge("a", b)
        g.add_undirected_edge(b, "d")
    return g


@pytest.fixture
def figure2_srp(figure2_graph):
    """The gadget's SRP: the b routers prefer routes learned from a."""
    imports = {(b, "a"): SetLocalPref(200) for b in ("b1", "b2", "b3")}
    return build_bgp_srp(figure2_graph, "d", import_policies=imports)


@pytest.fixture
def small_fattree():
    return fattree_network(4)


@pytest.fixture
def small_fattree_prefer_bottom():
    return fattree_network(4, policy="prefer_bottom")


@pytest.fixture
def small_ring():
    return ring_network(8)


@pytest.fixture
def small_mesh():
    return full_mesh_network(6)


@pytest.fixture
def small_datacenter():
    return datacenter_network(DATACENTER_SMALL_SCALE)


@pytest.fixture
def small_wan():
    return wan_network(WAN_SMALL_SCALE)


@pytest.fixture
def some_prefix() -> Prefix:
    return Prefix.parse("10.0.1.0/24")


#: A small network with a deliberately broken ACL: s2 drops traffic for
#: 10.0.1.0/24 towards t1, so that destination has a reachable black hole
#: (and a multipath inconsistency) that must survive compression.
BROKEN_ACL_NETWORK = """
device t1
  network 10.0.1.0/24
  bgp-neighbor s1 export OUT
  bgp-neighbor s2 export OUT
  route-map OUT 10 permit

device t2
  network 10.0.2.0/24
  bgp-neighbor s1 export OUT
  bgp-neighbor s2 export OUT
  route-map OUT 10 permit

device s1
  bgp-neighbor t1 import IN
  bgp-neighbor t2 import IN
  bgp-neighbor x import IN
  route-map IN 10 permit

device s2
  bgp-neighbor t1 import IN
  bgp-neighbor t2 import IN
  bgp-neighbor x import IN
  route-map IN 10 permit
  acl OOPS deny 10.0.1.0/24 default permit
  interface-acl t1 OOPS

device x
  bgp-neighbor s1 import IN export OUT
  bgp-neighbor s2 import IN export OUT
  route-map IN 10 permit
  route-map OUT 10 permit

link t1 s1
link t1 s2
link t2 s1
link t2 s2
link x s1
link x s2
"""


@pytest.fixture
def broken_acl_network():
    from repro.config import parse_network

    return parse_network(BROKEN_ACL_NETWORK)


@pytest.fixture
def always_fork(monkeypatch):
    """The ``"auto"`` executor on a box with four CPUs and a free pool: it
    forks after its second class whatever the classes cost."""
    import os

    from repro.pipeline import core

    monkeypatch.setattr(core, "POOL_START_SECONDS", 0.0)
    monkeypatch.setattr(core, "POOL_UNIT_SECONDS", 0.0)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)


@contextlib.contextmanager
def _counter_delta(*prefixes):
    before = metrics.snapshot_counters()
    counts = collections.Counter()
    yield counts
    counts.update({
        name: value for name, value in metrics.counters_delta(before).items()
        if name.startswith(prefixes) and not name.endswith(("_seconds", "_ms"))
    })


@pytest.fixture
def counter_delta():
    """``with counter_delta("srp.") as counts: ...``: what the block adds
    to the registry counters named under the given prefixes (timings left
    out), a ``collections.Counter`` filled in as the block exits -- 0 for
    a counter the block never bumped.  Pool workers' counts merge into
    the registry, so it counts the same under every executor."""
    return _counter_delta


# ----------------------------------------------------------------------
# Misbehaving per-class tasks, addressed as "conftest:<name>" (forked
# pool workers resolve them from the inherited module)
# ----------------------------------------------------------------------
#: The test process itself: the tasks below misbehave fatally only in a
#: pool worker.
_TEST_PID = os.getpid()


def raising_class_task(bonsai, equivalence_class, options):
    """Return the class prefix, or raise ``ValueError`` on the prefixes
    listed in ``options["fail"]`` (on every class when it is absent)."""
    prefix = str(equivalence_class.prefix)
    if prefix in options.get("fail", (prefix,)):
        raise ValueError(f"synthetic failure on {prefix}")
    return prefix


def dying_class_task(bonsai, equivalence_class, options):
    """Kill the pool worker running it outright (``os._exit(3)``: no
    exception, no result); inline it raises rather than end the tests."""
    if os.getpid() != _TEST_PID:
        os._exit(3)
    raise RuntimeError("dying_class_task ran outside a pool worker")
