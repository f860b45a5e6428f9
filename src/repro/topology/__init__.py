"""Network topology substrate: directed graphs and topology builders."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".graph": ("Edge", "Graph", "GraphError", "Node"),
    ".builders": ("fattree_topology", "full_mesh_topology", "ring_topology"),
})
