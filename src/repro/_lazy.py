"""Package ``__init__``s that import a submodule when one of its names is used.

``import repro`` used to pull in every pillar (compression, verification,
sweeps, store, service) before a single line of the caller's work ran.
Each package now declares *where* its public names live and
:func:`lazy_exports` turns that table into the module-level
``__getattr__`` / ``__dir__`` of PEP 562: the first ``repro.Bonsai`` (or
``from repro import Bonsai``) imports ``repro.abstraction.bonsai`` and
nothing else, and the value is cached on the package so later lookups
are plain attribute reads.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``.

    ``exports`` maps a module (absolute, or ``".sub"`` relative to
    ``package``) to the public names it supplies, in ``__all__`` order;
    ``"PUBLIC=ATTR"`` exports the module's ``ATTR`` under another name.
    """
    where: Dict[str, Tuple[str, str]] = {}
    for module, names in exports.items():
        if module.startswith("."):
            module = package + module
        for name in names:
            public, _, attr = name.partition("=")
            where[public] = (module, attr or public)

    def __getattr__(name: str) -> object:
        try:
            module, attr = where[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(importlib.import_module(module), attr)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__, list(where)
