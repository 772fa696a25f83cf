"""Fixtures shared by the test modules."""

import pytest

from weylkit import linalg, pbw


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


@pytest.fixture
def rewrite_steps(monkeypatch):
    """Records each word the default strategy rewrites: one leftmost-redex search per word."""
    words = []
    inner = pbw._leftmost_redex

    def counting(ranks):
        words.append(ranks)
        return inner(ranks)

    monkeypatch.setattr(pbw, "_leftmost_redex", counting)
    return words
