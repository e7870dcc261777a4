"""Lazy package exports (PEP 562).

Every package ``__init__`` in :mod:`repro` re-exports the public names
of its submodules, but importing them all up front makes a one-shot
``repro query`` compile the frontend and the analyzer it never runs.
:func:`lazy_exports` gives a package a module ``__getattr__`` that
imports a name's submodule on first access instead, so
``from repro.analysis import Analyzer`` loads ``repro.analysis.engine``
and nothing else.
"""

from __future__ import annotations

import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a relative submodule name (``".engine"``) to the
    public names it defines.  A resolved name is cached in the package
    namespace, so ``__getattr__`` runs once per name.  A submodule can
    still be reached as an attribute (``repro.analysis.engine`` after a
    bare ``import repro``), as when every submodule was loaded eagerly.
    """
    origin = {
        name: package + module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str):
        module = origin.get(name)
        if module is not None:
            value = getattr(_import(module), name)
            setattr(sys.modules[package], name, value)
            return value
        submodule = f"{package}.{name}"
        if not name.startswith("_"):
            try:
                return _import(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return list(origin), __getattr__, __dir__


def _import(module: str):
    """Import ``module`` through the ``import`` statement's machinery,
    which ``python -X importtime`` reports on (``importlib.import_module``
    is not reported)."""
    __import__(module)
    return sys.modules[module]
