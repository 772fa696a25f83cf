"""Small exact linear algebra kit over the rationals.

Everything here is served by one Gauss-Jordan elimination loop on lists of
:class:`fractions.Fraction`, ``_eliminate``: ``rref``, ``rank`` and
``nullspace`` read its reduced rows, and ``det`` reads the signed product
of its pivots.  Matrices are lists of rows; rows are lists.
Sizes stay desk-scale (a few hundred columns at most), so no attempt is
made at fraction-free pivoting or sparsity beyond skipping zero entries.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _eliminate(rows: Matrix, ncols: int) -> tuple[Matrix, list[int], Fraction]:
    """Reduce the first ``ncols`` columns: (nonzero rows, pivot columns, P).

    P is the product of the pivots as found, negated once per row swap:
    the determinant when the input is square and of full rank.
    """
    work = [list(r) for r in rows]
    pivots: list[int] = []
    product = _ONE
    r = 0
    for c in range(ncols):
        if r == len(work):
            break
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            product = -product
        p = work[r][c]
        product *= p
        inv = _ONE / p
        work[r] = [v * inv for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                row_r = work[r]
                work[i] = [a - f * b for a, b in zip(work[i], row_r)]
        pivots.append(c)
        r += 1
    return work[:r], pivots, product


def rref(rows: Matrix, ncols: int | None = None) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns)."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return _eliminate(rows, ncols)[:2]


def rank(rows: Matrix) -> int:
    return len(rref(rows)[0])


def nullspace(rows: Matrix, ncols: int) -> Matrix:
    """Basis of the right kernel {v : M v = 0}, one vector per free column.

    An empty system has the identity basis.
    """
    reduced, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis: Matrix = []
    for fc in free_cols:
        v = [_ZERO] * ncols
        v[fc] = _ONE
        for prow, pc in zip(reduced, pivots):
            v[pc] = -prow[fc]
        basis.append(v)
    return basis


def det(matrix: Matrix) -> Fraction:
    """Determinant: the signed product of the elimination pivots."""
    m = len(matrix)
    _, pivots, product = _eliminate(matrix, m)
    return product if len(pivots) == m else _ZERO


def span_equal(rows_a: Matrix, rows_b: Matrix) -> bool:
    """Do two row lists span the same subspace?  Exact, by mutual rank checks."""
    ra = rank(rows_a)
    rb = rank(rows_b)
    if ra != rb:
        return False
    return rank(rows_a + rows_b) == ra
