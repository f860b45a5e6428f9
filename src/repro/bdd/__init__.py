"""Binary decision diagrams: the canonical policy representation substrate."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".manager": ("FALSE", "TRUE", "BddError", "BddManager"),
    ".policy": ("PolicyBddEncoder", "UNCHANGED"),
})
