"""Small exact linear algebra kit over the rationals.

Everything here is served by one fraction-free Gauss-Jordan elimination
loop, ``_eliminate``, on Python ints: each input row is first scaled by the
lcm of its denominators, and a row combined with a pivot row is divided by
the gcd of its entries, so no step needs a Fraction.  ``rank`` and
``span_equal`` count its pivots, ``rref`` and ``nullspace`` divide each
reduced row by its pivot, and ``det`` reads the product of the pivots,
corrected by the row scalings.  Those quotients follow the coefficient rule
(``generators.quotient``): a Fraction only where the pivot does not divide
the entry.  Matrices are lists of rows; rows are lists of ints and
Fractions.
"""

from __future__ import annotations

from math import gcd, lcm

from .generators import Rational, quotient

Matrix = list[list[Rational]]


def _eliminate(rows: Matrix, ncols: int) -> tuple[list[list[int]], list[int], Rational]:
    """Reduce the first ``ncols`` columns: (pivot rows, pivot columns, D).

    Row r of the result is an integer multiple of row r of the
    reduced row echelon form; its entry in column ``pivots[r]`` is the
    multiplier.  D is the determinant of the first ``ncols`` columns when
    the rows make them square, and 0 when they do not or are singular.
    """
    work: list[list[int]] = []
    # det(work) = det(rows) * scale_num / scale_den, as the loop scales rows
    scale_num = scale_den = 1
    for row in rows:
        if not all(type(v) is int for v in row):
            den = lcm(*(v.denominator for v in row))
            row = [v.numerator * (den // v.denominator) for v in row]
            scale_num *= den
        work.append(list(row))
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == len(work):
            break
        pivot_row = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            scale_num = -scale_num
        row_r = work[r]
        p = row_r[c]
        for i, row_i in enumerate(work):
            f = row_i[c]
            if i == r or not f:
                continue
            # row_i <- a * row_i - b * row_r with a = |p| / g > 0, clearing column c
            g = gcd(p, f) if p > 0 else -gcd(p, f)
            a, b = p // g, f // g
            if a == 1:
                row_i = [u - b * v for u, v in zip(row_i, row_r)]
            else:
                row_i = [a * u - b * v for u, v in zip(row_i, row_r)]
                scale_num *= a
            content = gcd(*row_i)
            if content > 1:
                row_i = [u // content for u in row_i]
                scale_den *= content
            work[i] = row_i
        pivots.append(c)
        r += 1
    det = 0
    if len(pivots) == len(work) == ncols:
        det = scale_den
        for row, c in zip(work, pivots):
            det *= row[c]
        det = quotient(det, scale_num)
    return work[:r], pivots, det


def rref(rows: Matrix, ncols: int | None = None) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form.  Returns (nonzero rows, pivot columns)."""
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    reduced, pivots, _ = _eliminate(rows, ncols)
    normalized = [row if row[c] == 1 else [quotient(v, row[c]) for v in row] for row, c in zip(reduced, pivots)]
    return normalized, pivots


def rank(rows: Matrix) -> int:
    return len(_eliminate(rows, len(rows[0]) if rows else 0)[1])


def nullspace(rows: Matrix, ncols: int) -> Matrix:
    """Basis of the right kernel {v : M v = 0}, one vector per free column.

    An empty system has the identity basis.
    """
    reduced, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis: Matrix = []
    for fc in free_cols:
        v = [0] * ncols
        v[fc] = 1
        for prow, pc in zip(reduced, pivots):
            v[pc] = -prow[fc]
        basis.append(v)
    return basis


def det(matrix: Matrix) -> Rational:
    """Determinant: the product of the elimination pivots, corrected by the row scalings."""
    return _eliminate(matrix, len(matrix))[2]


def span_equal(rows_a: Matrix, rows_b: Matrix) -> bool:
    """Do two row lists span the same subspace?  Exact, by mutual rank checks."""
    ra = rank(rows_a)
    rb = rank(rows_b)
    if ra != rb:
        return False
    return rank(rows_a + rows_b) == ra
