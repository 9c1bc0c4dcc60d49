"""Lazy package exports (PEP 562) for the ``repro`` package ``__init__`` files.

A package lists each public name under the submodule that defines it, and
:func:`lazy_exports` gives it the module-level ``__getattr__`` and
``__dir__`` that import that submodule on the name's first use.  A process
then pays only for the subpackages it touches: ``import repro`` and
``python -m repro --help`` load no numpy or scipy.  This module imports
nothing from ``repro``.
"""

from __future__ import annotations

import sys
from importlib import import_module

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__)`` for ``package``.

    ``exports`` maps a submodule name, relative to ``package``, to the
    public names it defines.  A name is looked up in its submodule on first
    use and then stored on the package, so later uses are plain attribute
    reads.  Any other public name that is a submodule of the package
    (``repro.storage``, ``repro.obs.tracer``) is imported and returned, as
    an ``__init__`` that imported it eagerly would have bound it.
    """
    owners = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        module = owners.get(name)
        if module is not None:
            value = getattr(import_module(f"{package}.{module}"), name)
            setattr(sys.modules[package], name, value)
            return value
        if not name.startswith("_"):
            try:
                return import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(owners))

    return __getattr__, __dir__
