"""Lazy package exports and the lazy experiment registry.

A package states what it exports once, as a literal table from each
module (written as in ``from <module> import ...``, relative to the
package) to the names it exports::

    __getattr__, __dir__, __all__ = exports(__name__, {
        ".market": ("Market", "MarketRound"),
    })

``import tussle.econ`` then loads nothing but this module; the first
read of ``tussle.econ.Market`` (or ``from tussle.econ import Market``)
imports ``tussle.econ.market`` and returns its ``Market``.  Nothing is
cached on the package: every lookup is forwarded to the defining
module, so the one binding there is the only one to patch.

:class:`Registry` does the same for ``ALL_EXPERIMENTS``: a read-only
mapping over a literal table from key to ``"module:function"`` that
imports a module on lookup, while ``in``, ``len`` and iteration import
nothing.

This module imports nothing from ``tussle``; ``tussle.lint`` reads
both tables statically (:func:`tussle.lint.context.lazy_entries`).
"""

from __future__ import annotations

import importlib
import os
import sys
from collections.abc import Mapping
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["Registry", "exports"]


class Registry(Mapping):
    """Read-only mapping from key to the function a ``"module:function"``
    table entry names, importing the module on the first lookup."""

    def __init__(self, package: str, table: Dict[str, str]):
        self._package = package
        self._table = dict(table)

    def targets(self) -> Dict[str, Tuple[str, str]]:
        """Key to ``(module, function)`` of every entry, importing nothing."""
        targets = {}
        for key, target in self._table.items():
            module, _, function = target.partition(":")
            targets[key] = (module, function)
        return targets

    def __getitem__(self, key: str) -> Callable:
        module, _, function = self._table[key].partition(":")
        return getattr(importlib.import_module(module, self._package), function)

    def __contains__(self, key: object) -> bool:
        return key in self._table

    def __iter__(self) -> Iterator[str]:
        return iter(self._table)

    def __len__(self) -> int:
        return len(self._table)


def _submodules(package: str) -> set:
    """Names of the modules and subpackages beside ``package``'s ``__init__``."""
    names = set()
    for directory in sys.modules[package].__path__:
        for entry in os.listdir(directory):
            stem, dot, suffix = entry.partition(".")
            if (dot and suffix == "py") or (
                    not dot and os.path.isfile(
                        os.path.join(directory, entry, "__init__.py"))):
                names.add(stem)
    return names


def exports(package: str, table: Dict[str, Sequence[str]],
            registry: Optional[Registry] = None,
            ) -> Tuple[Callable[[str], object], Callable[[], List[str]],
                       List[str]]:
    """``__getattr__``, ``__dir__`` and ``__all__`` for ``package``.

    ``table`` maps each module to the names it exports; a ``registry``
    exports its functions too.  Raises ``ImportError`` when a name is
    exported twice or equals a submodule of the package: importing that
    submodule would rebind the package attribute to the module.
    """
    where: Dict[str, str] = {}
    sources: List[Tuple[str, str]] = [
        (module, name) for module, names in table.items() for name in names]
    if registry is not None:
        sources += list(registry.targets().values())
    for module, name in sources:
        if name in where:
            raise ImportError(f"{package} exports {name!r} twice")
        where[name] = module
    shadowed = sorted(set(where) & _submodules(package))
    if shadowed:
        raise ImportError(
            f"{package} exports {', '.join(shadowed)}, which its own "
            "submodules shadow once imported; import them from the "
            "submodule instead")

    def __getattr__(name: str) -> object:
        try:
            module = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        return getattr(importlib.import_module(module, package), name)

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__, list(where)
