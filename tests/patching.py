"""Patch one attribute of an ``mbrwa`` module on empty caches, for tests that
check how a changed statement reaches what is derived from it."""

import contextlib
import importlib
import pkgutil

import mbrwa

# every lru_cache in mbrwa, found at import, before any patch hides one
CACHES = {
    fn
    for info in pkgutil.iter_modules(mbrwa.__path__)
    for fn in vars(importlib.import_module(f"mbrwa.{info.name}")).values()
    if hasattr(fn, "cache_clear")
}


def clear_caches():
    for fn in CACHES:
        fn.cache_clear()


@contextlib.contextmanager
def patched(module, attr, value):
    """``module.attr`` set to ``value``, with every cache in ``CACHES``
    cleared on entry and again on exit, so nothing derived before or during
    the patch outlives it."""
    original = getattr(module, attr)
    clear_caches()
    setattr(module, attr, value)
    try:
        yield
    finally:
        setattr(module, attr, original)
        clear_caches()
