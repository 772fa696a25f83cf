"""Fixtures and oracle helpers shared by the test modules."""

import itertools
import sys
from fractions import Fraction
from math import comb, factorial

import pytest

from weylkit import AlgebraKind, SizeMismatch, linalg, pbw, shriek
from weylkit.pbw import PBWMonomial


def gauss_jordan(rows, ncols):
    """Fraction Gauss-Jordan on the first ``ncols`` columns: (nonzero rows, pivot columns, P).

    The oracle for ``linalg``'s integer elimination: every entry becomes a
    Fraction, each pivot row is divided by its pivot and the pivot column
    cleared from every other row.  P is the product of the pivots as found,
    negated once per row swap: the determinant when the input is square and
    of full rank.
    """
    work = [[Fraction(v) for v in r] for r in rows]
    pivots = []
    product = Fraction(1)
    r = 0
    for c in range(ncols):
        if r == len(work):
            break
        pivot_row = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            work[r], work[pivot_row] = work[pivot_row], work[r]
            product = -product
        p = work[r][c]
        product *= p
        work[r] = [v / p for v in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
    return work[:r], pivots, product


def oracle_nullspace(rows, ncols):
    """The right kernel basis read off ``gauss_jordan``, one vector per free column."""
    reduced, pivots, _ = gauss_jordan(rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for prow, pc in zip(reduced, pivots):
            v[pc] = -prow[fc]
        basis.append(v)
    return basis


def oracle_det(matrix):
    """The determinant read off ``gauss_jordan``."""
    m = len(matrix)
    _, pivots, product = gauss_jordan(matrix, m)
    return product if len(pivots) == m else Fraction(0)


def solve(matrix, rhs):
    """The unique X with ``matrix`` X = ``rhs``, one column per right-hand side.

    An oracle over ``linalg.rref``, run once on the augmented system:
    ``matrix`` is square and ``rhs`` has as many rows; raises ValueError
    when the matrix is singular.
    """
    m = len(matrix)
    if any(len(row) != m for row in matrix) or len(rhs) != m:
        raise ValueError("matrix is not square or rhs has the wrong number of rows")
    reduced, pivots = linalg.rref([list(row) + list(b) for row, b in zip(matrix, rhs)])
    if pivots[:m] != list(range(m)):  # only a nonsingular matrix has a pivot in each of its m columns
        raise ValueError("singular matrix")
    return [row[m:] for row in reduced]


def oracle_bilinear(a, b, basis_product):
    """``a * b`` by the per-pair loop: each term pair multiplies the stored coefficients.

    The oracle for ``SparseElement._bilinear``, which clears denominators
    first: the two give equal maps, in one key order, with equal
    coefficient types.
    """
    out = {}
    for u, cu in a.coeffs.items():
        for v, cv in b.coeffs.items():
            c = cu * cv
            for w, k in basis_product(u, v, a.kind, a.n):
                out[w] = out.get(w, 0) + c * k
    return a._like(out)


def oracle_apply_automorphism(m, e):
    """sigma(e) element by element: per word, one ``multiply`` per letter, then ``scaled`` and ``+``.

    The oracle for ``shriek.apply_automorphism``, which folds coefficient
    maps instead: it looks each image up by the letter's name and reads an
    image of the other kind in e's kind.
    """
    if m.n != e.n:
        raise SizeMismatch(f"map is for n={m.n}, element has n={e.n}")
    out = shriek.ShriekElement(e.n, {}, e.kind)
    for w, c in e.coeffs.items():
        img = shriek.ShriekElement.one(e.n, e.kind)
        for r in w.ranks(e.n):
            factor = m.images[str(shriek.rank_generator(r, e.n))]
            if factor.kind is not e.kind:
                factor = shriek.ShriekElement(factor.n, factor.coeffs, e.kind)
            img = shriek.multiply(img, factor)
        out = out + img.scaled(c)
    return out


def oracle_mul_monomials(m1, m2, kind, n):
    """The terms of m1*m2 with an explicit exchange vector per term: the oracle for ``pbw._packed_term_pairs``."""
    q1 = m1.dexps
    p2 = m2.xexps
    cross = [] if kind is AlgebraKind.C else [i for i in range(n) if q1[i] and p2[i]]
    base_z = m1.zexp + m2.zexp
    for ks in itertools.product(*(range(min(q1[i], p2[i]), -1, -1) for i in cross)):
        coeff = 1
        kvec = [0] * n
        for i, k in zip(cross, ks):
            coeff *= comb(q1[i], k) * comb(p2[i], k) * factorial(k)
            kvec[i] = k
        yield PBWMonomial(
            base_z + (2 * sum(ks) if kind is AlgebraKind.B else 0),
            tuple(m1.xexps[i] + p2[i] - kvec[i] for i in range(n)),
            tuple(q1[i] - kvec[i] + m2.dexps[i] for i in range(n)),
        ), coeff


@pytest.fixture
def digit_limit():
    """Sets the interpreter's int-to-str digit limit, ``digit_limit(k)``, and restores it after the test."""
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


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


@pytest.fixture
def fraction_constructions(monkeypatch):
    """Records every Fraction built, through the constructor or, where arithmetic skips it, the fast path."""
    built = []
    inner = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return inner(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    coprime = Fraction.__dict__.get("_from_coprime_ints")  # Python 3.12+ builds arithmetic results here
    if coprime is not None:
        inner_coprime = coprime.__func__
        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(
            lambda cls, numerator, denominator: built.append((numerator, denominator))
            or inner_coprime(cls, numerator, denominator)))
    return built
