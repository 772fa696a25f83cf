"""The exact elimination kit, against sympy, and how often each caller eliminates."""

import random
from fractions import Fraction

import pytest
import sympy

from weylkit import AlgebraKind, dual_presentation, nakayama, orthogonal_complement, relations_of
from weylkit import linalg

from conftest import solve


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


def test_nullspace_of_an_empty_system_is_the_identity():
    assert linalg.nullspace([], 3) == [
        [Fraction(int(i == j)) for j in range(3)] for i in range(3)
    ]


def test_det_of_the_empty_matrix_is_one():
    assert linalg.det([]) == 1


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
