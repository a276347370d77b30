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
    """The highest weights whose full weight diagrams are built while the
    test runs, one entry per build; a module's weight multiset costs one
    build per summand."""
    from coreduce import repthy

    built = []
    diagram = repthy.weight_diagram

    def counted(g, hw):
        built.append(hw)
        return diagram(g, hw)

    monkeypatch.setattr(repthy, "weight_diagram", counted)
    return built
