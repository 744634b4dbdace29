"""Lazy package exports: a package imports a submodule when one of its
names is first used, not when the package is imported (PEP 562).

A package ``__init__`` keeps its ``__all__`` and replaces its re-export
import lines with one table, from each defining submodule to the names
it exports::

    __getattr__, __dir__ = lazy_exports(__name__, {
        "store": ("TraceStore", "write_store"),
    })

``import repro.trace`` then loads only the package, and ``from
repro.trace import TraceStore`` loads ``repro.trace.store`` and what
that module imports.  So each entry point pays for the modules its
command runs, not for the whole library.
"""

from __future__ import annotations

import sys
from types import ModuleType


class _Package(ModuleType):
    """A package whose public names win over same-named submodules.

    Once ``pkg.name`` is imported, the import system sets the package
    attribute ``name`` to that submodule, and a module ``__getattr__``
    is never consulted for ``name`` again.  ``repro.trace`` exports the
    function ``postprocess`` from its submodule ``postprocess``, so that
    binding is dropped for any name in ``__all__``: the attribute is the
    export in every import order.
    """

    def __setattr__(self, name: str, value) -> None:
        if (
            isinstance(value, ModuleType)
            and value.__name__ == f"{self.__name__}.{name}"
            and name in vars(self).get("__all__", ())
        ):
            return
        super().__setattr__(name, value)


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """The module ``__getattr__`` and ``__dir__`` of ``package``, which
    also becomes a :class:`_Package`.

    ``table`` maps each submodule, relative to ``package``, to the names
    it exports.  A name is imported on its first lookup and then kept on
    the package, so later lookups are plain attribute reads.
    """
    module = sys.modules[package]
    module.__class__ = _Package
    where = {
        name: f"{package}.{sub}" for sub, names in table.items() for name in names
    }

    def __getattr__(name: str):
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # __import__, not importlib.import_module: only the former goes
        # through the timed import path that `python -X importtime` lists
        __import__(where[name])
        value = getattr(sys.modules[where[name]], name)
        setattr(module, name, value)
        return value

    def __dir__() -> list[str]:
        return sorted({*vars(module), *where})

    return __getattr__, __dir__
