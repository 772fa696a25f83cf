"""The packed PBW product against the per-pair oracle.

``pbw.multiply`` packs every monomial into one int and reads the exchanges
off bit masks.  Each case here compares it with ``oracle_bilinear`` over
``oracle_mul_monomials``, which builds every term from explicit exponent
tuples: the two must give equal maps, in one key order, with equal
coefficient types.
"""

import random
from fractions import Fraction

import pytest
from conftest import oracle_bilinear, oracle_mul_monomials

from weylkit import AlgebraElement, AlgebraKind, PBWMonomial, evaluate, multiply

A, B, C = AlgebraKind.A, AlgebraKind.B, AlgebraKind.C


def _assert_matches_the_oracle(a, b):
    got, want = multiply(a, b), oracle_bilinear(a, b, oracle_mul_monomials)
    assert list(got.coeffs.items()) == list(want.coeffs.items())
    assert [type(c) for c in got.coeffs.values()] == [type(c) for c in want.coeffs.values()]
    assert all(type(m) is PBWMonomial for m in got.coeffs)


def _monomial(kind, n, z=0, x=None, d=None):
    """z^z times the x and d exponents given as {index: exponent}, indices from 0."""
    x, d = x or {}, d or {}
    return PBWMonomial(z, tuple(x.get(i, 0) for i in range(n)), tuple(d.get(i, 0) for i in range(n)))


def _element(kind, n, terms):
    return AlgebraElement(kind, n, {_monomial(kind, n, *key): c for key, c in terms})


def _random_element(rng, kind, n, count):
    """``count`` terms at most, with Fraction coefficients; indices drawn from {0, 1, n-1} so that d's meet x's."""
    pool = sorted({0, min(1, n - 1), n - 1}) if n else []
    coeffs = {}
    for _ in range(count):
        m = _monomial(
            kind, n,
            0 if kind is A else rng.randrange(3),
            {i: rng.randrange(4) for i in rng.sample(pool, rng.randrange(len(pool) + 1))},
            {i: rng.randrange(4) for i in rng.sample(pool, rng.randrange(len(pool) + 1))},
        )
        coeffs[m] = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 1, 2, 3)))
    return AlgebraElement(kind, n, coeffs)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 64])
@pytest.mark.parametrize("kind", [A, B, C], ids=lambda k: k.value)
def test_seeded_products_match_the_oracle(kind, n):
    rng = random.Random(f"packed-product:{kind.value}:{n}")
    for _ in range(40):
        _assert_matches_the_oracle(*(_random_element(rng, kind, n, rng.randrange(5)) for _ in "ab"))


@pytest.mark.parametrize("kind", [A, B, C], ids=lambda k: k.value)
def test_zero_and_one_term_operands_match_the_oracle(kind):
    n = 2
    zero = AlgebraElement(kind, n, {})
    one = AlgebraElement.one(kind, n)
    term = _element(kind, n, [((0, {0: 2}, {0: 3, 1: 1}), Fraction(2, 3))])
    full = _random_element(random.Random("packed-product:full"), kind, n, 6)
    for a in (zero, one, term, full):
        for b in (zero, one, term, full):
            _assert_matches_the_oracle(a, b)
    assert multiply(zero, full).is_zero() and multiply(one, full) == full


# (left, right) exponents whose sums sit on either side of a field width: an x or d field
# is as many bytes as the two factors' largest x and d exponents need, and z has no width
_WIDTH_EDGES = [
    (2**k - 1 - e, e) for k in (1, 4, 8, 9, 16) for e in (0, 1)
] + [(2**k - e, e) for k in (1, 4, 8, 9, 16) for e in (0, 1)]


@pytest.mark.parametrize("kind", [A, B, C], ids=lambda k: k.value)
@pytest.mark.parametrize("p, q", _WIDTH_EDGES, ids=lambda v: str(v))
def test_exponents_at_a_field_width_match_the_oracle(kind, p, q):
    n = 2
    z = 0 if kind is A else 3
    for left, right in [
        (((z, {0: p}, {}), 1), ((0, {0: q}, {}), 2)),  # x_1 exponents add up
        (((0, {}, {1: p}), 1), ((z, {}, {1: q}), 2)),  # d_2 exponents add up
        (((z, {1: 1}, {0: p}), 1), ((0, {0: q}, {1: 2}), 2)),  # d_1 meets x_1: up to min(p, q) exchanges
        (((0, {0: 1}, {0: 2}), 1), ((z, {0: p}, {0: q}), 2)),  # degrees p + q + 3 and p + q + z
    ]:
        a, b = _element(kind, n, [left, ((0, {}, {}), Fraction(1, 2))]), _element(kind, n, [right])
        _assert_matches_the_oracle(a, b)
        _assert_matches_the_oracle(b, a)


@pytest.mark.parametrize("z", [250, 255, 256, 10**30])
def test_z_past_every_field_width_matches_the_oracle(z):
    # z stands above the x and d fields, so a product's z exponent may pass their width
    a = _element(B, 2, [((z, {0: 1}, {0: 5, 1: 2}), 1), ((1, {}, {1: 1}), Fraction(-1, 2))])
    b = _element(B, 2, [((z, {0: 7, 1: 3}, {}), 3), ((0, {1: 2}, {}), 1)])
    _assert_matches_the_oracle(a, b)
    _assert_matches_the_oracle(b, a)


@pytest.mark.parametrize("kind", [A, B], ids=lambda k: k.value)
def test_a_two_index_exchange_matches_the_oracle(kind):
    a, b = (evaluate(text, 2, kind) for text in ("d1^3*d2^2", "x1^2*x2^4"))
    _assert_matches_the_oracle(a, b)
    assert len(multiply(a, b).coeffs) == 3 * 3  # k_1 in 0..2, k_2 in 0..2
