"""Integral work builds no Fraction: a work pin that needs no timing.

Every structure constant of B, B! and their relation grids is an integer,
so the products, Gram matrices and ranks below run on Python ints alone.
A change that brings Fraction back into one of these loops fails here.
"""

from fractions import Fraction

import pytest

from weylkit import AlgebraKind, evaluate, linalg, relations_of, shriek
from weylkit.quadratic import relation_rows

B, SHRIEK = AlgebraKind.B, AlgebraKind.B_SHRIEK


def test_the_counter_sees_constructor_and_arithmetic(fraction_constructions):
    Fraction(1, 2) + Fraction(1, 3)
    assert len(fraction_constructions) >= 3


# integer-coefficient operands of B! at n = 3, built before any counting starts
_U = evaluate("x1 + 2*d2 - 3*z*x3 + d1*x2 - 5*x1*d3*z", 3, SHRIEK)
_V = evaluate("z + 4*x2*d3 - d1 + 7*x3*d1*d2", 3, SHRIEK)

_WORK = {
    "evaluate-power": lambda: evaluate("(x1+d1+z)^8", 1, B),
    "shriek-multiply": lambda: shriek.multiply(_U, _V),
    "gram-matrix": lambda: shriek.gram_matrix(3, 3),
    "relation-rank": lambda: linalg.rank(relation_rows(relations_of(B, 4).relations, 9)),
}


@pytest.mark.parametrize("name", list(_WORK))
def test_integral_work_builds_no_fraction(name, fraction_constructions):
    assert _WORK[name]()
    assert fraction_constructions == []
