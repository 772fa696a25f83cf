"""Fixtures and oracle helpers shared by the test modules."""

import pytest

from weylkit import linalg, pbw


def solve(matrix, rhs):
    """The unique X with ``matrix`` X = ``rhs``, one column per right-hand side.

    An oracle over ``linalg._eliminate``, run once on the augmented system:
    ``matrix`` is square and ``rhs`` has as many rows; raises ValueError
    when the matrix is singular.
    """
    m = len(matrix)
    if any(len(row) != m for row in matrix) or len(rhs) != m:
        raise ValueError("matrix is not square or rhs has the wrong number of rows")
    reduced, pivots, _ = linalg._eliminate([list(row) + list(b) for row, b in zip(matrix, rhs)], m)
    if len(pivots) != m:
        raise ValueError("singular matrix")
    return [row[m:] for row in reduced]


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
    """Records each word the PBW rewriting loop pops: one redex listing per word."""
    words = []
    inner = pbw._redexes

    def counting(ranks):
        words.append(ranks)
        return inner(ranks)

    monkeypatch.setattr(pbw, "_redexes", counting)
    return words
