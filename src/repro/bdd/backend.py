"""BDD backend registry and selection seam.

Two interchangeable implementations of the manager surface exist:

* ``"dict"`` -- :class:`repro.bdd.manager.BddManager`, hash-consed
  dict-of-tuples node store.  Retained as the correctness oracle, the
  same pattern as ``solve_sweep`` / ``find_abstraction_partition_reference``.
* ``"array"`` -- :class:`repro.bdd.arrays.ArrayBddManager`, flat
  preallocated int arrays with open-addressing unique/ite tables and
  complement edges; the fast backend.

Call sites construct managers through :func:`make_manager` so the
backend can be switched without code changes: pass ``backend=`` or set
the ``REPRO_BDD_BACKEND`` environment variable (read at construction
time, so tests can monkeypatch it).  Node *ids* are backend-specific --
only within-manager equality and the semantic operations (evaluate,
sat_count, support, restrict, quantification) are portable across
backends.
"""

from __future__ import annotations

import os
from typing import Callable, Dict, Optional

from repro.bdd.manager import BddError, BddManager

#: Environment variable naming the default backend for ``make_manager``.
BACKEND_ENV_VAR = "REPRO_BDD_BACKEND"

#: Backend used when neither ``backend=`` nor the environment selects one.
DEFAULT_BACKEND = "dict"

_REGISTRY: Dict[str, Callable[..., object]] = {}


def register_backend(name: str, factory: Callable[..., object]) -> None:
    """Register ``factory`` (a BddManager-compatible constructor) under
    ``name``.  Re-registering a name replaces the previous factory."""
    _REGISTRY[name] = factory


def available_backends() -> list:
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def resolve_backend(backend: Optional[str] = None) -> str:
    """The backend name an explicit argument / the environment selects.

    Resolution order: explicit ``backend`` argument, then the
    ``REPRO_BDD_BACKEND`` environment variable, then
    :data:`DEFAULT_BACKEND`.  Unknown names raise :class:`BddError`.
    """
    name = backend or os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    if name not in _REGISTRY:
        raise BddError(
            f"unknown BDD backend {name!r} (available: {', '.join(available_backends())})"
        )
    return name


def make_manager(
    num_vars: int = 0,
    cache_limit: Optional[int] = None,
    backend: Optional[str] = None,
):
    """Construct a BDD manager from the selected backend.

    The returned object exposes the full ``BddManager`` surface
    (``add_var``/``var``/``nvar``/``ite``/``apply_*``/``conjoin``/
    ``disjoin``/``restrict``/``exists``/``forall``/``support``/
    ``evaluate``/``sat_count``/``satisfying_assignments``/``size``/
    ``to_expression``); which concrete class backs it is reported by its
    ``backend_name`` attribute.
    """
    factory = _REGISTRY[resolve_backend(backend)]
    return factory(num_vars=num_vars, cache_limit=cache_limit)


def _array_manager(**kwargs):
    # Imported when selected: the default backend never pays for the module.
    from repro.bdd.arrays import ArrayBddManager

    return ArrayBddManager(**kwargs)


register_backend(BddManager.backend_name, BddManager)
register_backend("array", _array_manager)
