"""Integral work builds no Fraction: a work pin that needs no timing.

Every structure constant of B, B! and their relation grids is an integer,
so the products, Gram matrices and ranks below run on Python ints alone.
Rational factors are multiplied on cleared denominators, so their
term-pair loop runs on ints too; the per-pair Fraction loop stays here as
its oracle.  A change that brings Fraction back into one of these loops
fails here.
"""

import random
from fractions import Fraction

import pytest
from conftest import oracle_bilinear, oracle_mul_monomials

from weylkit import (
    AlgebraElement,
    AlgebraKind,
    PBWMonomial,
    ShriekElement,
    evaluate,
    linalg,
    pbw,
    relations_of,
    shriek,
)
from weylkit.quadratic import relation_rows

A, B, C = AlgebraKind.A, AlgebraKind.B, AlgebraKind.C
SHRIEK, C_SHRIEK = AlgebraKind.B_SHRIEK, AlgebraKind.C_SHRIEK


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


# -- the cleared-denominator product against the per-pair Fraction loop ----------


def _random_factor(rng, kind, n):
    """0 to 4 terms, a coefficient's denominator drawn from 1, 2, 3 and 6."""
    if kind.is_shriek:
        keys = rng.sample(shriek.shriek_basis(n), rng.choice((0, 1, 1, 2, 3, 4)))
    else:
        keys = {
            PBWMonomial(0 if kind is A else rng.randrange(3), *(tuple(rng.randrange(4) for _ in range(n)) for _ in "xd"))
            for _ in range(rng.choice((0, 1, 1, 2, 3, 4)))
        }
    coeffs = {key: Fraction(rng.choice((-5, -3, -2, -1, 1, 2, 3, 4)), rng.choice((1, 2, 3, 6))) for key in keys}
    return ShriekElement(n, coeffs, kind) if kind.is_shriek else AlgebraElement(kind, n, coeffs)


def _assert_same_map(got, want):
    assert list(got.coeffs.items()) == list(want.coeffs.items())  # equal maps in one key order
    assert [type(c) for c in got.coeffs.values()] == [type(c) for c in want.coeffs.values()]


_CANCELLING = [  # the x1*d1 terms cancel in B and A, the mixed terms in C; the whole product in B! and C!
    (kind, 1, "x1 + 1/2*d1", "x1 - 1/2*d1") for kind in (A, B, C)
] + [(kind, 2, "1/2*x1 + 1/3*x2", "1/2*x1 + 1/3*x2") for kind in (SHRIEK, C_SHRIEK)]


@pytest.mark.parametrize("kind", [A, B, C, SHRIEK, C_SHRIEK], ids=lambda k: k.value)
def test_product_equals_the_per_pair_fraction_loop(kind):
    rng = random.Random(f"cleared-product:{kind.value}")
    product, basis_product = (shriek.multiply, shriek._word_product) if kind.is_shriek else (pbw.multiply, oracle_mul_monomials)
    pairs = []
    for _ in range(150):
        n = rng.randint(1, 3)
        pairs.append((_random_factor(rng, kind, n), _random_factor(rng, kind, n)))
    pairs += [(evaluate(a, n, k), evaluate(b, n, k)) for k, n, a, b in _CANCELLING if k is kind]
    for a, b in pairs:
        _assert_same_map(product(a, b), oracle_bilinear(a, b, basis_product))
        if not kind.is_shriek:
            for u in a.coeffs:
                for v in b.coeffs:
                    terms = list(pbw._mul_monomials(u, v, kind, a.n))
                    assert terms == list(oracle_mul_monomials(u, v, kind, a.n))
                    assert all(type(m) is PBWMonomial for m, _ in terms)
    assert product(*pairs[-1]).is_zero() == kind.is_shriek


def test_monomials_equal_and_hash_as_plain_tuples():
    m = PBWMonomial(1, (2, 0), (0, 3))
    assert m == (1, (2, 0), (0, 3)) and hash(m) == hash((1, (2, 0), (0, 3)))
    assert repr(m) == "PBWMonomial(zexp=1, xexps=(2, 0), dexps=(0, 3))" and str(m) == "z*x1^2*d2^3"


# operands with denominators 2 and 3, built before any counting starts
_P = evaluate("1/2*x1*d1 + 1/3*d1^2 + x1 + 2/3*z*d1 + 1/2*z^2", 1, B)
_Q = evaluate("1/3*x1^2 + 1/2*d1*x1 + 5*z*x1 - 1/2*d1 + 1/3*z", 1, B)


def test_rational_product_builds_a_fraction_only_per_output_term(fraction_constructions):
    product = pbw.multiply(_P, _Q)
    rational = [c for c in product.coeffs.values() if type(c) is Fraction]
    assert rational and len(fraction_constructions) == len(rational) <= len(product.coeffs)
    assert product == oracle_bilinear(_P, _Q, oracle_mul_monomials)
