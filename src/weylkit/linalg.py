"""Small exact linear algebra kit over the rationals.

Everything here is plain Gaussian elimination on lists of
:class:`fractions.Fraction`.  Matrices are lists of rows; rows are lists.
Sizes stay desk-scale (a few hundred columns at most), so no attempt is
made at fraction-free pivoting or sparsity beyond skipping zero entries.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rref(rows: Matrix, ncols: int | None = None) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns)."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    work = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = _ONE / work[r][c]
        work[r] = [v * inv for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                row_r = work[r]
                work[i] = [a - f * b for a, b in zip(work[i], row_r)]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def rank(rows: Matrix) -> int:
    return len(rref(rows)[0])


def nullspace(rows: Matrix, ncols: int) -> Matrix:
    """Basis of the right kernel {v : M v = 0}, one vector per free column."""
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


def solve(matrix: Matrix, rhs: list[Fraction]) -> list[Fraction]:
    """Unique solution of a square system; raises ValueError when singular."""
    m = len(matrix)
    if any(len(row) != m for row in matrix):
        raise ValueError("matrix is not square")
    aug = [list(row) + [rhs[i]] for i, row in enumerate(matrix)]
    reduced, pivots = rref(aug, m)
    if len(pivots) != m:
        raise ValueError("singular matrix")
    return [reduced[i][m] for i in range(m)]


def det(matrix: Matrix) -> Fraction:
    """Determinant by elimination without normalization."""
    m = len(matrix)
    work = [list(r) for r in matrix]
    sign = 1
    result = _ONE
    for c in range(m):
        pivot_row = None
        for i in range(c, m):
            if work[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return _ZERO
        if pivot_row != c:
            work[c], work[pivot_row] = work[pivot_row], work[c]
            sign = -sign
        p = work[c][c]
        result *= p
        for i in range(c + 1, m):
            if work[i][c] != 0:
                f = work[i][c] / p
                work[i] = [a - f * b for a, b in zip(work[i], work[c])]
    return result * sign


def span_equal(rows_a: Matrix, rows_b: Matrix) -> bool:
    """Do two row lists span the same subspace?  Exact, by mutual rank checks."""
    ra = rank(rows_a)
    rb = rank(rows_b)
    if ra != rb:
        return False
    return rank(rows_a + rows_b) == ra
