"""Fixtures shared by the test modules."""

import pytest

from weylkit import linalg


@pytest.fixture
def eliminations(monkeypatch):
    """Counts the runs of the one elimination loop."""
    runs = []
    inner = linalg._eliminate

    def counting(rows, ncols):
        runs.append((len(rows), ncols))
        return inner(rows, ncols)

    monkeypatch.setattr(linalg, "_eliminate", counting)
    return runs
