"""Binary decision diagrams: the canonical policy representation substrate."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".arrays": ("ArrayBddManager",),
    ".backend": (
        "BACKEND_ENV_VAR", "DEFAULT_BACKEND", "available_backends", "make_manager",
        "register_backend", "resolve_backend",
    ),
    ".manager": ("FALSE", "TRUE", "BddError", "BddManager"),
    ".bitvector": ("BitVector",),
    ".policy": ("PolicyBddEncoder", "UNCHANGED"),
})
