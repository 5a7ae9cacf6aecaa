"""Package exports that load on first use (PEP 562).

``import repro`` executes the paper's Alg. 1–2 on a dense tensor — what
``repro.sthosvd`` runs — and nothing else; an ``__init__`` holds names,
not imports, and every package still exports every name it always did,
through one table::

    __getattr__, __dir__ = lazy_exports(__name__, {
        ".launcher": ("run_spmd", "SpmdResult"),
        ".": ("flops",),
    })

``pkg.run_spmd``, ``from pkg import run_spmd``, ``from pkg import *``
and ``dir(pkg)`` import ``pkg.launcher`` when they first need it and
find the very object an eager ``from .launcher import run_spmd`` bound;
``"."`` lists the submodules that are exports themselves (``from .
import flops``).
"""

from __future__ import annotations

import sys
from types import ModuleType

__all__ = ["lazy_exports"]


def lazy_exports(package: str, submodules: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__)`` for ``package``'s ``__init__``.

    ``submodules`` maps a module, relative to ``package``, to the names
    the package exports from it; ``"."`` to the submodules it exports.
    """
    home = {name: sub for sub, names in submodules.items() for name in names}
    module = sys.modules[package]

    def __getattr__(name: str):
        if name not in home:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        # __import__, not importlib.import_module: `python -X importtime`
        # times the former only, and should list what a first use loads.
        sub = home[name]
        if sub == ".":
            value = __import__(f"{package}.{name}", fromlist=(name,))
        else:
            value = getattr(__import__(package + sub, fromlist=(name,)), name)
        setattr(module, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(module), *home})

    # An export named like its own submodule (core.sthosvd, tensor.ttm):
    # the import system binds a submodule onto its package once it has
    # run, whoever imported it; the export replaces it there, as the
    # eager ``from .sthosvd import sthosvd`` did.
    shadowed = {name for name, sub in home.items() if sub == f".{name}"}
    if shadowed:
        class ExportsOverSubmodules(ModuleType):
            def __setattr__(self, name, value):
                if name in shadowed and isinstance(value, ModuleType):
                    value = getattr(value, name)
                super().__setattr__(name, value)

        module.__class__ = ExportsOverSubmodules
    return __getattr__, __dir__
