"""Lazy imports by ``importlib.util.LazyLoader`` (Scientific Python SPEC 1).
``LazyLoader`` is not thread-safe before Python 3.13; charentropy is
single-threaded."""

import importlib.util
import sys


def lazy_import(name: str):
    """The module ``name`` if imported, else one that loads on first use."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
