"""Lazy package exports (PEP 562).

A package ``__init__`` that re-exports names from its submodules would
import every submodule on ``import repro``, whether the caller needs it
or not; a ``map`` launch would compile the index builders, the read
simulator and the mismatch search only to map reads.  With
:func:`lazy_exports` the package resolves each name on first access
instead, then caches it as a module attribute.
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_exports(package: str, modules: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__, __all__)`` for ``package``'s lazy exports.

    ``modules`` maps each submodule, relative to ``package`` (``".flat"``),
    to the public names it defines, listed like a ``from .flat import``
    line; ``"alias=name"`` exports ``name`` under a second name.
    ``__all__`` is the sorted public names.

    A name that is also its submodule's name (``suffix_array`` from
    ``.suffix_array``) is bound now.  Importing a submodule sets the
    package attribute of that name to the module, and PEP 562's
    ``__getattr__`` only runs when the attribute is missing, so a lazy
    binding would hand out the module once anything imported it.
    """
    exports: dict[str, tuple[str, str]] = {}
    for module, names in modules.items():
        for entry in names:
            public, _, attr = entry.partition("=")
            exports[public] = (module, attr or public)

    def __getattr__(name: str):
        try:
            module, attr = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(module, package), attr)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    for name, (module, _) in exports.items():
        if module.rpartition(".")[2] == name:
            __getattr__(name)
    return __getattr__, __dir__, sorted(exports)
