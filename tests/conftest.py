import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


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
