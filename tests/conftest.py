import importlib
import os
import pkgutil
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture(autouse=True)
def cold_memos():
    """Empty every memo of the package before each test, so that a test
    which counts searches or patches a cap sees the search run.  The memos
    are found by scanning the modules for ``cache_clear``."""
    import coreduce

    for info in pkgutil.iter_modules(coreduce.__path__, "coreduce."):
        for obj in vars(importlib.import_module(info.name)).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


@pytest.fixture
def weight_builds(monkeypatch):
    """The dominant diagrams whose Weyl orbits are expanded while the test
    runs, one entry per expansion: ``repthy.expand_orbits``, the one place
    orbits are expanded, is counted under every name a package module binds
    it to.  A module's weight multiset costs one expansion of
    ``ModuleSpec.diagram``, its toral slice one of ``slices.slice_diagram``."""
    import coreduce
    from coreduce import repthy

    built = []
    expand = repthy.expand_orbits

    def counted(g, diagram):
        built.append(dict(diagram))
        return expand(g, diagram)

    for info in pkgutil.iter_modules(coreduce.__path__, "coreduce."):
        module = importlib.import_module(info.name)
        if getattr(module, "expand_orbits", None) is expand:
            monkeypatch.setattr(module, "expand_orbits", counted)
    return built
