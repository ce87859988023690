"""Locating, importing and resetting the ranklef package under test.

The benchmark drives ranklef only through its public module attributes.  It
imports the package from the ``src`` directory next to this benchmark, never
from an installed copy, so that a checkout measures its own source.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time
from collections import Counter
from pathlib import Path
from types import ModuleType

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "ranklef"
MODULES = ("rootsys", "chars", "epstein", "lefschetz", "sl2", "cli")


class ProgramMissing(RuntimeError):
    """The checkout holds no importable ranklef source tree."""


class Program:
    """The six ranklef modules of one import, plus the caches they hold."""

    def __init__(self, modules: dict[str, ModuleType]):
        self.modules = modules
        self.rootsys = modules["rootsys"]
        self.chars = modules["chars"]
        self.epstein = modules["epstein"]
        self.lefschetz = modules["lefschetz"]
        self.sl2 = modules["sl2"]
        self.cli = modules["cli"]
        self.caches = Caches()


def _package_modules() -> list[tuple[str, ModuleType]]:
    return sorted(
        (name, mod)
        for name, mod in sys.modules.items()
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    )


def import_program() -> Program:
    """Import ranklef afresh from ``src``: every earlier import is dropped first,
    so the import cost and empty caches of a new process are reproduced."""
    init = SRC / PACKAGE / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"no ranklef source tree at {init.parent}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name, _ in _package_modules():
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"ranklef imported from {pkg.__file__}, not from {init}")
    return Program({name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES})


def time_fresh_import() -> float:
    """Seconds one fresh import of ranklef takes.  The modules imported before
    are put back afterwards, so a Program built from them keeps working."""
    saved = dict(_package_modules())
    t0 = time.perf_counter()
    import_program()
    dt = time.perf_counter() - t0
    for name, _ in _package_modules():
        del sys.modules[name]
    sys.modules.update(saved)
    gc.collect()  # the discarded modules are cyclic garbage; collect it outside timed work
    return dt


def _cache_owner(value):
    """The cache object behind ``value``, or None when it holds no functools cache.

    A traced wrapper re-exports its target's ``cache_info``; the bound
    method's ``__self__`` identifies the one underlying cache either way.
    """
    info = getattr(value, "cache_info", None)
    if not callable(info) or not callable(getattr(value, "cache_clear", None)):
        return None
    return getattr(info, "__self__", value)


class Caches:
    """Every functools cache reachable from a ranklef module or class.

    Caches are found by scanning module members (and the members of classes
    that ranklef defines) for ``cache_clear``, not by name, so a cache that a
    refactor adds or renames is still cleared and counted.  Hit and miss
    counts survive clearing: they are added up before each clear.
    """

    def __init__(self):
        found: dict[int, tuple[str, object]] = {}
        for _, mod in _package_modules():
            members = list(vars(mod).values())
            for value in list(members):
                if isinstance(value, type) and value.__module__.startswith(PACKAGE):
                    members.extend(getattr(v, "__func__", v) for v in vars(value).values())
            for value in members:
                owner = _cache_owner(value)
                if owner is not None and id(owner) not in found:
                    name = f"{owner.__module__}.{owner.__qualname__}"
                    found[id(owner)] = (name, owner)
        self.owners = dict(sorted(found.values()))
        self._cleared = {name: Counter() for name in self.owners}

    def currsize(self) -> int:
        return sum(owner.cache_info().currsize for owner in self.owners.values())

    def clear(self) -> None:
        for name, owner in self.owners.items():
            info = owner.cache_info()
            self._cleared[name].update(hits=info.hits, misses=info.misses)
            owner.cache_clear()

    def totals(self, name: str) -> Counter:
        """Cumulative hits and misses of the cache whose name ends with ``name``."""
        out = Counter()
        for full, owner in self.owners.items():
            if full.endswith("." + name):
                info = owner.cache_info()
                out.update(self._cleared[full])
                out.update(hits=info.hits, misses=info.misses)
        return out
