"""Failure-scenario analysis: k-failure sweeps over compressed networks.

The fourth pillar of the system next to compression, verification and the
hot-path engine: model link/node failures as first-class scenarios,
re-solve the failed control plane *incrementally* from the failure-free
baseline, and check -- per scenario -- whether Bonsai's abstraction is
still sound once the topology loses edges (the paper's stated
limitation).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".incremental": ("IncrementalSolve", "incremental_resolve", "tainted_nodes"),
    ".scenario": (
        "FailureScenario", "ScenarioError", "canonical_link", "enumerate_link_failures",
        "link_scenario", "node_scenario", "points_of_interest", "sample_link_failures",
        "scenarios_for", "undirected_links",
    ),
    ".soundness": ("abstract_scenario_for", "check_scenario_soundness"),
    ".sweep": (
        "ClassFailureRecord", "FailureReport", "FailureSweep", "ScenarioOutcome",
        "failure_class_task", "sweep_network",
    ),
})
