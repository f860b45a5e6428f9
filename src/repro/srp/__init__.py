"""The Stable Routing Problem: instances, solutions and solvers (§3)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".instance": ("SRP", "SRPError"),
    ".solution": ("Labeling", "Solution"),
    ".solver": (
        "ConvergenceError", "enumerate_solutions", "has_stable_solution", "solve",
        "solve_with_activation_order",
    ),
    ".wellformed": ("WellFormednessReport", "assert_well_formed", "check_well_formed"),
})
