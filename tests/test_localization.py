"""Localization tests: fractions, dehomogenization, theta and mu."""

import random

import pytest

from weylkit import (
    AlgebraElement,
    AlgebraKind,
    ExpressionTooLarge,
    Generator,
    KindMismatch,
    LocalizedElement,
    NotDegreeZero,
    basis_of_degree,
    dehomogenize,
    divide_by_z,
    homogenize,
    kernel_witness,
    loc_add,
    loc_equals,
    loc_multiply,
    make,
    mu,
    multiply,
    normal_form,
    parse,
    partial_degree,
    render,
    theta,
    theta_inverse,
    z_divides,
    z_shift,
)
from weylkit.verify import random_element, random_homogeneous

A, B = AlgebraKind.A, AlgebraKind.B


def bel(text, n=1):
    return normal_form(parse(text, n, B), B)


def ael(text, n=1):
    return normal_form(parse(text, n, A), A)


# -- canonical fractions ------------------------------------------------------

def test_make_strips_common_z():
    e = make(bel("z^2*x1"), 1)
    assert str(e.numerator) == "z*x1" and e.zpow == 0


@pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
def test_make_strips_what_stepwise_division_strips(k):
    # the least z exponent of b is 2: k below, at and above it
    b = bel("z^2*x1*d1 + z^3 - 2*z^4*d1")
    stepwise = LocalizedElement(b, k)
    while stepwise.zpow > 0 and z_divides(stepwise.numerator):
        stepwise = LocalizedElement(divide_by_z(stepwise.numerator), stepwise.zpow - 1)
    assert make(b, k) == stepwise


def test_make_zero():
    e = make(AlgebraElement(B, 1), 5)
    assert e.is_zero() and e.zpow == 0


def test_make_not_divisible():
    e = make(bel("x1 + z"), 2)
    assert str(e.numerator) == "x1 + z" and e.zpow == 2


@pytest.mark.parametrize("k", [1.5, 2.0])
def test_make_rejects_a_power_that_is_not_an_int(k):
    with pytest.raises(TypeError):
        make(bel("x1"), k)


def test_mu_rejects_a_degree_that_is_not_an_int():
    with pytest.raises(TypeError):
        mu(ael("x1"), -0.5)


def test_make_rejects_other_kinds():
    with pytest.raises(KindMismatch):
        make(ael("x1"), 0)


def test_fraction_constructor_refuses_what_make_refuses():
    # it once built x1/z^1.5 and rendered it as (x1)/z^1.5
    with pytest.raises(TypeError):
        LocalizedElement(bel("x1"), 1.5)
    with pytest.raises(ValueError):
        LocalizedElement(bel("x1"), -1)
    for numerator in (ael("x1"), "x1", None):
        with pytest.raises(KindMismatch):
            LocalizedElement(numerator, 1)
    with pytest.raises(ValueError):
        make(bel("x1"), -1)


def test_loc_equals_cancels_z():
    assert loc_equals(make(bel("z*x1"), 1), make(bel("x1"), 0))
    assert not loc_equals(make(bel("x1"), 1), make(bel("x1"), 0))


def test_loc_multiply_example():
    got = loc_multiply(make(bel("x1"), 1), make(bel("d1"), 1))
    assert got == make(bel("x1*d1"), 2)


def test_loc_add_cancellation():
    assert loc_add(make(bel("x1"), 1), make(bel("-x1"), 1)).is_zero()


def test_loc_add_common_denominator():
    got = loc_add(make(bel("x1"), 1), make(bel("d1"), 2))
    assert loc_equals(got, make(z_shift(bel("x1"), 1) + bel("d1"), 2))


def test_fraction_well_definedness():
    rng = random.Random(79)
    for _ in range(150):
        n = rng.choice([1, 2])
        a = make(random_element(rng, B, n), rng.randint(0, 3))
        b = make(random_element(rng, B, n), rng.randint(0, 3))
        t = rng.randint(1, 3)
        a_rep = LocalizedElement(z_shift(a.numerator, t), a.zpow + t)
        assert loc_equals(a, a_rep)
        assert loc_equals(loc_add(a_rep, b), loc_add(a, b))
        assert loc_equals(loc_multiply(a_rep, b), loc_multiply(a, b))


def test_loc_equals_transitive_sample():
    a = make(bel("x1*d1 + z^2"), 2)
    b = LocalizedElement(z_shift(a.numerator, 1), 3)
    c = LocalizedElement(z_shift(a.numerator, 2), 4)
    assert loc_equals(a, b) and loc_equals(b, c) and loc_equals(a, c)


# -- dehomogenize / kernel -----------------------------------------------------

def test_dehomogenize_examples():
    assert dehomogenize(bel("x1*d1 + z^2")) == ael("x1*d1 + 1")
    assert dehomogenize(bel("z^3")) == ael("1")
    assert dehomogenize(bel("z^3*x1^2*d1")) == ael("x1^2*d1")


def test_dehomogenize_ring_hom_random():
    rng = random.Random(83)
    for _ in range(200):
        n = rng.choice([1, 2])
        a = random_element(rng, B, n)
        b = random_element(rng, B, n)
        assert dehomogenize(multiply(a, b)) == multiply(dehomogenize(a), dehomogenize(b))
        assert dehomogenize(a + b) == dehomogenize(a) + dehomogenize(b)


def test_kernel_witness_examples():
    one = AlgebraElement.one(B, 1)
    zel = AlgebraElement.generator(B, 1, Generator.z())
    assert kernel_witness(zel - one) == one
    b = bel("z^2*x1 - x1")
    w = kernel_witness(b)
    assert w == bel("z*x1 + x1")  # (z+1)*x1
    assert multiply(zel - one, w) == b
    assert kernel_witness(bel("x1")) is None


def test_kernel_characterization_random():
    rng = random.Random(89)
    for _ in range(200):
        n = rng.choice([1, 2])
        zm1 = AlgebraElement.generator(B, n, Generator.z()) - AlgebraElement.one(B, n)
        w = random_element(rng, B, n, nonzero=True)
        b = multiply(zm1, w)
        got = kernel_witness(b)
        assert got is not None and multiply(zm1, got) == b
        a = random_element(rng, B, n, nonzero=True)
        assert dehomogenize(a).is_zero() == (kernel_witness(a) is not None)


def test_kernel_witness_checks_no_key_of_its_own(monkeypatch):
    b = bel("z^3*x1*d1 - x1*d1 + 2*z^2*d1 - 2*z*d1")
    checked = []
    inner = AlgebraElement._check_keys
    monkeypatch.setattr(AlgebraElement, "_check_keys", lambda self, keys: checked.append(self.kind) or inner(self, keys))
    w = kernel_witness(b)
    assert checked == [A]  # dehomogenize's kind-A result; the kind-B witness is built from b's keys
    assert w == bel("z^2*x1*d1 + z*x1*d1 + x1*d1 + 2*z*d1")


# -- homogenize ------------------------------------------------------------------

def test_homogenize_examples():
    b, k = homogenize(ael("x1*d1 + 1"))
    assert b == bel("x1*d1 + z^2") and k == 2
    assert homogenize(AlgebraElement(A, 1)) == (AlgebraElement(B, 1), 0)
    b, k = homogenize(ael("x1"))
    assert b == bel("x1") and k == 1


def test_homogenize_section_and_minimality():
    rng = random.Random(97)
    for _ in range(200):
        n = rng.choice([1, 2])
        a = random_element(rng, A, n, max_partial=6)
        b, k = homogenize(a)
        assert dehomogenize(b) == a
        if not a.is_zero():
            assert b.is_homogeneous()
            assert k == partial_degree(a)
            assert not all(m.zexp > 0 for m in b.coeffs)  # minimal padding


def test_homogenize_dehomogenize_roundtrip_on_full_degree_homogeneous():
    # homogenize(dehomogenize(b)) recovers b exactly when b is homogeneous
    # with a term of full partial degree (no common z factor)
    rng = random.Random(101)
    for _ in range(100):
        n = rng.choice([1, 2])
        d = rng.randint(0, 4)
        b = random_homogeneous(rng, B, n, basis_of_degree(B, n, d))
        if b.is_zero():
            continue
        hb, k = homogenize(dehomogenize(b))
        has_full = any(m.zexp == 0 for m in b.coeffs)
        if has_full:
            assert hb == b and k == d
        else:
            # clears the common z power instead
            stripped = make(b, 0)
            assert loc_equals(make(hb, 0), stripped) or hb != b


# -- theta --------------------------------------------------------------------------

def test_theta_examples():
    assert theta(make(bel("x1*d1 + z^2"), 2)) == ael("x1*d1 + 1")
    assert theta(make(AlgebraElement.one(B, 1), 0)) == AlgebraElement.one(A, 1)


def test_theta_requires_degree_zero():
    with pytest.raises(NotDegreeZero):
        theta(make(bel("x1"), 0))
    with pytest.raises(NotDegreeZero):
        theta(LocalizedElement(bel("x1 + z^2"), 1))


def test_theta_roundtrip_random():
    rng = random.Random(103)
    for _ in range(300):
        n = rng.choice([1, 2])
        a = random_element(rng, A, n, max_partial=6)
        assert theta(theta_inverse(a)) == a


def test_theta_multiplicative():
    rng = random.Random(107)
    for _ in range(200):
        n = rng.choice([1, 2])
        a = random_element(rng, A, n)
        b = random_element(rng, A, n)
        e, f = theta_inverse(a), theta_inverse(b)
        assert theta(loc_multiply(e, f)) == multiply(a, b)
        assert theta(loc_add(e, f)) == a + b


# -- mu ---------------------------------------------------------------------------------

def test_mu_examples():
    assert mu(AlgebraElement.one(A, 1), 0) == make(AlgebraElement.one(B, 1), 0)
    assert mu(ael("x1*d1 + 1"), 0) == make(bel("x1*d1 + z^2"), 2)
    assert render(mu(ael("x1*d1 + 1"), 0)) == "(x1*d1 + z^2)/z^2"


def test_mu_degree_shift():
    e = mu(ael("x1*d1 + 1"), 3)
    assert e.degree() == 3
    e = mu(ael("x1*d1 + 1"), -2)
    assert e.degree() == -2


def test_mu_is_theta_inverse_at_zero():
    rng = random.Random(109)
    for _ in range(100):
        n = rng.choice([1, 2])
        a = random_element(rng, A, n)
        assert mu(a, 0) == theta_inverse(a)


def test_mu_multiplicative_random():
    rng = random.Random(113)
    for _ in range(300):
        n = rng.choice([1, 2])
        a = random_element(rng, A, n)
        b = random_element(rng, A, n)
        s, t = rng.randint(-3, 3), rng.randint(-3, 3)
        assert loc_multiply(mu(a, s), mu(b, t)) == mu(multiply(a, b), s + t)


def test_mu_additive_in_a():
    rng = random.Random(127)
    for _ in range(200):
        n = rng.choice([1, 2])
        a = random_element(rng, A, n)
        b = random_element(rng, A, n)
        t = rng.randint(-2, 2)
        assert loc_equals(loc_add(mu(a, t), mu(b, t)), mu(a + b, t))


def test_render_prints_fractions():
    # num, (num)/z or (num)/z^k; the zero fraction is 0/z^0
    cases = [
        (make(bel("x1*d1 + z^2"), 0), "x1*d1 + z^2"),
        (make(bel("z^2*x1 + z^3"), 3), "(x1 + z)/z"),
        (mu(ael("-3/2*d1"), -3), "(-3/2*d1)/z^4"),
        (make(AlgebraElement(B, 1), 4), "0"),
    ]
    for e, text in cases:
        assert render(e) == render(e, "text") == str(e) == text
    zero = make(AlgebraElement(B, 1), 4)
    assert render(zero, "json") == '{"num": {"algebra": "B", "n": 1, "terms": []}, "zpow": 0}'


def test_localized_json():
    e = mu(ael("x1*d1 + 1"), 0)
    assert render(e, "json") == (
        '{"num": {"algebra": "B", "n": 1, "terms": '
        '[{"coeff": "1/1", "z": 0, "x": [1], "d": [1]}, '
        '{"coeff": "1/1", "z": 2, "x": [0], "d": [0]}]}, "zpow": 2}'
    )


@pytest.mark.parametrize("format", ["text", "json"])
def test_render_refuses_an_unprintable_z_power(digit_limit, format):
    e = make(bel("x1"), 10**4300)  # 4301 digits
    for limit in (None, 0):  # an interpreter limit of 0 means no limit; the bound stays
        if limit is not None:
            digit_limit(limit)
        with pytest.raises(ExpressionTooLarge, match="an exponent has more than 4300 digits"):
            render(e, format)
