"""The exact elimination kit, against sympy and the Fraction oracle, and how often each caller eliminates."""

import random
from fractions import Fraction

import pytest
import sympy

from weylkit import AlgebraKind, dual_presentation, gram_matrix, nakayama, orthogonal_complement, relations_of, run_suite
from weylkit import linalg
from weylkit.quadratic import relation_rows

from conftest import gauss_jordan, oracle_det, oracle_nullspace, solve


def _random_matrix(rng, nrows, ncols):
    # mostly zeros and small values, so that many draws are singular and
    # many need a row swap to find a pivot
    values = [0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)]
    return [[Fraction(rng.choice(values)) for _ in range(ncols)] for _ in range(nrows)]


def _sym(rows, ncols):
    return sympy.Matrix(len(rows), ncols, [sympy.Rational(v) for row in rows for v in row])


def _random_cases():
    rng = random.Random(20)
    cases = [
        [[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]],  # needs a swap, det -1
        [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]],  # singular
        [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(3)]],  # singular, zero column
    ]
    for _ in range(150):
        cases.append(_random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6)))
    return cases


def test_linalg_matches_sympy_on_random_matrices():
    rng = random.Random(7)
    for rows in _random_cases():
        ncols = len(rows[0])
        sm = _sym(rows, ncols)
        want_rref, want_pivots = sm.rref()
        reduced, pivots = linalg.rref(rows)
        assert pivots == list(want_pivots)
        assert _sym(reduced, ncols) == want_rref[: len(pivots), :]
        assert linalg.rank(rows) == sm.rank()
        kernel = linalg.nullspace(rows, ncols)
        assert [_sym([v], ncols).T for v in kernel] == sm.nullspace()
        if len(rows) != ncols:
            continue
        assert sympy.Rational(linalg.det(rows)) == sm.det()
        rhs = _random_matrix(rng, ncols, rng.randint(1, 3))
        if sm.det() == 0:
            with pytest.raises(ValueError):
                solve(rows, rhs)
        else:
            x = solve(rows, rhs)
            assert _sym(x, len(rhs[0])) == sm.inv() * _sym(rhs, len(rhs[0]))


def _oracle_cases():
    """Seeded integer and rational matrices, with zero rows, rank defects and singular squares,
    then the B and C relation grids for n <= 4 and every Gram matrix for n <= 3."""
    rng = random.Random(21)
    ints = [0, 0, 0, 1, -1, 2, -3, 6, 10**20]
    rationals = ints + [Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3), Fraction(-7, 10**12)]
    cases = [([], 0), ([], 3), ([[0, 0, 0]], 3), ([[0], [0]], 1), ([[Fraction(4, 2), -6]], 2)]
    for k in range(240):
        values = ints if k % 2 else rationals
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 7)
        if k % 3 == 0:
            ncols = nrows  # square, often singular
        rows = [[rng.choice(values) for _ in range(ncols)] for _ in range(nrows)]
        if k % 4 == 0 and nrows > 1:  # a rank defect: one row a combination of two others
            a, b = rng.choice(values), rng.choice(values)
            rows[-1] = [a * u + b * v for u, v in zip(rows[0], rows[rng.randrange(nrows - 1)])]
        if k % 5 == 0:
            rows.insert(rng.randrange(nrows + 1), [0] * ncols)
            rows.pop()
        cases.append((rows, ncols))
    for n in range(1, 5):
        g = 2 * n + 1
        for kind in (AlgebraKind.B, AlgebraKind.C):
            cases.append((relation_rows(relations_of(kind, n).relations, g), g * g))
            cases.append((relation_rows(dual_presentation(kind, n).relations, g), g * g))
    for n in range(1, 4):
        for j in range(2 * n + 2):
            gram = gram_matrix(n, j)
            cases.append((gram, len(gram)))
    return cases


def _follows_the_coefficient_rule(v):
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


def _oracle_span_equal(rows_a, rows_b, ncols):
    ra, rb, both = (len(gauss_jordan(rows, ncols)[1]) for rows in (rows_a, rows_b, rows_a + rows_b))
    return ra == rb == both


def test_linalg_agrees_with_the_fraction_gauss_jordan():
    rng = random.Random(22)
    outcomes = set()
    for rows, ncols in _oracle_cases():
        want_rows, want_pivots, _ = gauss_jordan(rows, ncols)
        reduced, pivots = linalg.rref(rows, ncols)
        assert (reduced, pivots) == (want_rows, want_pivots)
        kernel = linalg.nullspace(rows, ncols)
        assert kernel == oracle_nullspace(rows, ncols)
        assert all(_follows_the_coefficient_rule(v) for vec in reduced + kernel for v in vec)
        assert linalg.rank(rows) == len(want_pivots)
        if len(rows) == ncols:
            d = linalg.det(rows)
            assert d == oracle_det(rows) and _follows_the_coefficient_rule(d)
        # the same span, a smaller one, and a seeded mix of the rows with new ones
        mixed = reduced[: rng.randint(0, len(reduced))] + [
            [rng.choice([0, 1, -1, 2]) for _ in range(ncols)] for _ in range(rng.randint(0, 2))
        ]
        for other in ([[2 * v for v in row] for row in reduced], reduced[1:], mixed):
            same = linalg.span_equal(rows, other)
            assert same == _oracle_span_equal(rows, other, ncols)
            outcomes.add(same)
    assert outcomes == {True, False}


def test_nullspace_of_an_empty_system_is_the_identity():
    assert linalg.nullspace([], 3) == [
        [Fraction(int(i == j)) for j in range(3)] for i in range(3)
    ]


def test_det_of_the_empty_matrix_is_one():
    assert linalg.det([]) == 1


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: linalg.det([[1, 2]]), ValueError),  # returned 1
        (lambda: linalg.span_equal([[1, 2]], [[1, 2, 3]]), ValueError),  # returned True
        (lambda: linalg.nullspace([[1, 2, 3]], 2), ValueError),  # returned [[-2, 1]]
        (lambda: linalg.rref([[1, 2], [3, 4, 5]]), ValueError),  # returned ([[1, 0], [0, 1]], [0, 1])
        (lambda: linalg.rank([[0.5, 1]]), TypeError),  # raised AttributeError
    ],
    ids=["det-not-square", "span-equal-widths", "nullspace-wide-row", "rref-ragged", "rank-float"],
)
def test_a_matrix_it_cannot_reduce_is_refused(call, error):
    with pytest.raises(error):
        call()


def test_block_kernels_sorted_by_last_entry_are_the_whole_kernel():
    # what lets a system split into independent blocks (by Z^n weight, say) be solved
    # block by block: each nullspace vector of a block-diagonal system lies in one
    # block and ends at its free column, so the block kernels, sorted by last entry,
    # are the whole kernel in its order
    rng = random.Random(11)
    for _ in range(300):
        ncols = rng.randint(1, 8)
        block_of = [rng.randrange(3) for _ in range(ncols)]
        blocks = [[j for j in range(ncols) if block_of[j] == b] for b in range(3)]
        merged, rows = [], []
        for cols in filter(None, blocks):
            block_rows = _random_matrix(rng, rng.randint(0, 4), len(cols))
            for row in block_rows:
                full = [Fraction(0)] * ncols
                for j, v in zip(cols, row):
                    full[j] = v
                rows.append(full)
            for vec in linalg.nullspace(block_rows, len(cols)):
                full = [Fraction(0)] * ncols
                for j, v in zip(cols, vec):
                    full[j] = v
                merged.append(full)
        rng.shuffle(rows)
        merged.sort(key=lambda vec: max(j for j, v in enumerate(vec) if v))
        assert merged == linalg.nullspace(rows, ncols)


def test_each_system_is_eliminated_once(eliminations):
    B = AlgebraKind.B
    orthogonal_complement(relations_of(B, 2))
    assert len(eliminations) == 1  # the rank comes from the nullspace
    eliminations.clear()
    dual_presentation(B, 2)
    assert len(eliminations) == 2  # rank of the primal and of the dual relations
    eliminations.clear()
    nakayama(2)
    assert eliminations == []  # read off the complement pairing: nothing to eliminate
    run_suite("dual-orthogonality", 3)
    # per n: the complement, the B and C duals, and the involution's complement and three span ranks
    assert len(eliminations) == 27
