"""Parser and renderer tests, including the parse/render round trip."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from weylkit import (
    AlgebraElement,
    AlgebraKind,
    ExpressionTooLarge,
    FreeExpression,
    Generator,
    IllegalGenerator,
    IndexOutOfRange,
    ParseError,
    PBWMonomial,
    ShriekElement,
    WeylkitError,
    evaluate,
    normal_form,
    parse,
    reduce_expression,
    render,
    shriek_basis,
)
from weylkit.verify import random_element, random_shriek

B = AlgebraKind.B
A = AlgebraKind.A

x1, d1, z = Generator.x(1), Generator.d(1), Generator.z()


def test_parse_word_transcription():
    e = parse("d1*x1 - x1*d1 - z^2", 1, B)
    assert e.terms == (
        (Fraction(1), (d1, x1)),
        (Fraction(-1), (x1, d1)),
        (Fraction(-1), (z, z)),
    )


def test_parse_repeated_generator():
    e = parse("x1*x1", 1, B)
    assert e.terms == ((Fraction(1), (x1, x1)),)


def test_parse_rational_coefficient():
    e = parse("3/2 * z * x2", 2, B)
    assert e.terms == ((Fraction(3, 2), (z, Generator.x(2))),)


def test_parse_is_case_insensitive():
    assert parse("X1*D2*Z", 2, B).terms == parse("x1*d2*z", 2, B).terms


def test_unary_minus_binds_looser_than_star():
    e = parse("-x1*d1", 1, B)
    assert e.terms == ((Fraction(-1), (x1, d1)),)


def test_parentheses_distribute():
    e = parse("(x1 + d1)*z", 1, B)
    assert e.terms == ((Fraction(1), (x1, z)), (Fraction(1), (d1, z)))


def test_power_of_sum():
    e = parse("(x1 + d1)^2", 1, B)
    assert e.terms == (
        (Fraction(1), (x1, x1)),
        (Fraction(1), (x1, d1)),
        (Fraction(1), (d1, x1)),
        (Fraction(1), (d1, d1)),
    )


def test_zero_coefficient_kept_raw():
    e = parse("0*x1", 1, B)
    assert e.terms == ((Fraction(0), (x1,)),)
    assert normal_form(e, B).is_zero()


def test_syntax_error_carries_position_and_expected():
    with pytest.raises(ParseError) as err:
        parse("x1 + * d1", 1, B)
    assert err.value.position == 5
    assert err.value.expected


def test_unknown_character_rejected():
    with pytest.raises(ParseError):
        parse("x1 & d1", 1, B)


def test_non_ascii_digit_blamed_at_its_position():
    with pytest.raises(ParseError) as err:
        parse("x\uff11", 1, B)  # the index is a full-width digit one
    assert err.value.position == 1
    assert err.value.found == "\uff11"


def test_nesting_depth_limit_names_the_opening_parenthesis():
    assert parse("(" * 100 + "x1" + ")" * 100, 1, B).terms == ((Fraction(1), (x1,)),)
    with pytest.raises(ParseError) as err:
        parse("x1 + " + "(" * 101 + "x1" + ")" * 101, 1, B)
    assert err.value.position == 105 and err.value.found == "("


def test_expansion_size_limit():
    parse("(x1+d1+z)^8", 1, B)  # 6561 words of length 8, the largest input in use
    # a bare coefficient counts one letter: (1+1)^30 would be 2^30 words
    for text in ("(x1+d1+z)^12", "z^100001", "z^10000000", "(x1+d1)^9*(x1+d1)^9", "(1+1)^30", "(1+1+1+1)^99"):
        with pytest.raises(ExpressionTooLarge):
            parse(text, 1, B)


@settings(deadline=None)
@given(st.text(alphabet="xdzXD0123456789+-*^/() .\uff11\u2212\u00e9\u00b2", max_size=24))
def test_parse_returns_or_raises_named_error(text):
    try:
        result = parse(text, 2, B)
    except WeylkitError:
        return
    assert isinstance(result, FreeExpression)


def test_dangling_operator_rejected():
    with pytest.raises(ParseError):
        parse("x1 *", 1, B)


def test_index_out_of_range():
    with pytest.raises(IndexOutOfRange):
        parse("x3", 2, B)
    with pytest.raises(IndexOutOfRange):
        parse("x0", 2, B)


@pytest.mark.parametrize("kind", [AlgebraKind.B_SHRIEK, B], ids=["B!", "B"])
def test_rank_terms_checks_each_generator_object_once(kind, monkeypatch):
    expr = parse("(x1+d1+z)^6", 1, kind)
    want = {}
    for c, word in expr.terms:
        ranks = tuple(g.rank(1) for g in word)
        want[ranks] = want.get(ranks, 0) + c
    checked = []
    inner = Generator.check
    monkeypatch.setattr(Generator, "check", lambda g, n, k: checked.append(g) or inner(g, n, k))
    got = expr.rank_terms(kind)
    assert sum(len(word) for _, word in expr.terms) == 4374  # 729 words of 6 letters, each checked by a per-letter loop
    assert len(checked) == 3  # x1, d1 and z, one object each
    assert got == want and list(got) == list(want)


def test_rank_terms_refuses_a_bad_letter_by_name():
    x2 = Generator.x(2)
    with pytest.raises(IndexOutOfRange) as exc:
        FreeExpression.from_terms(1, [(1, [x1, d1]), (2, [d1, x2, z])]).rank_terms(B)
    assert str(exc.value) == "generator x2 has index 2 > n = 1"
    with pytest.raises(IllegalGenerator) as exc:
        FreeExpression.from_terms(1, [(1, [x1]), (1, [x1, z])]).rank_terms(A)
    assert str(exc.value) == "z is not a generator of the algebra A"


def test_zero_denominator_rejected():
    with pytest.raises(ParseError):
        parse("1/0", 1, B)


def test_z_illegal_in_weyl_algebra():
    with pytest.raises(IllegalGenerator):
        parse("z * x1", 1, A)
    # but legal everywhere else
    parse("z", 1, B)
    parse("z", 1, AlgebraKind.C)
    parse("z", 1, AlgebraKind.B_SHRIEK)


def test_render_canonical_order():
    e = normal_form(parse("z^2 + x1*d1", 1, B), B)
    assert render(e, "text") == "x1*d1 + z^2"


def test_render_zero():
    assert render(AlgebraElement(B, 1), "text") == "0"
    assert normal_form(parse("0", 1, B), B).is_zero()


def test_render_json_shape():
    e = normal_form(parse("x1*d1 + z^2", 1, B), B)
    assert render(e, "json") == (
        '{"algebra": "B", "n": 1, "terms": '
        '[{"coeff": "1/1", "z": 0, "x": [1], "d": [1]}, '
        '{"coeff": "1/1", "z": 2, "x": [0], "d": [0]}]}'
    )


def test_render_refuses_other_values():
    with pytest.raises(TypeError):
        render(object())


def test_render_coefficient_styles():
    e = AlgebraElement(
        B,
        1,
        {
            PBWMonomial(0, (1,), (0,)): Fraction(-1),
            PBWMonomial(1, (0,), (0,)): Fraction(3, 2),
            PBWMonomial(0, (0,), (0,)): Fraction(-5),
        },
    )
    assert render(e, "text") == "-x1 + 3/2*z - 5"


@st.composite
def algebra_elements(draw, kind=B, n=2):
    nterms = draw(st.integers(min_value=0, max_value=4))
    coeffs = {}
    for _ in range(nterms):
        ze = 0 if kind is A else draw(st.integers(min_value=0, max_value=3))
        xe = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(n))
        de = tuple(draw(st.integers(min_value=0, max_value=3)) for _ in range(n))
        num = draw(st.integers(min_value=-9, max_value=9))
        den = draw(st.integers(min_value=1, max_value=9))
        c = Fraction(num, den)
        if c:
            coeffs[PBWMonomial(ze, xe, de)] = c
    return AlgebraElement(kind, n, coeffs)


@settings(deadline=None)
@given(algebra_elements())
def test_parse_render_roundtrip(e):
    assert normal_form(parse(render(e, "text"), 2, B), B) == e


@settings(deadline=None)
@given(algebra_elements(kind=A))
def test_parse_render_roundtrip_weyl(e):
    assert normal_form(parse(render(e, "text"), 2, A), A) == e


@settings(deadline=None)
@given(algebra_elements(), algebra_elements())
def test_render_injective(e1, e2):
    if e1 != e2:
        assert render(e1, "text") != render(e2, "text")
        assert render(e1, "json") != render(e2, "json")


# -- evaluate: the tree route the CLI takes, against the literal route ---------

KINDS = list(AlgebraKind)


def _random(rng, kind, n):
    if not kind.is_shriek:
        return random_element(rng, kind, n)
    return ShriekElement(n, random_shriek(rng, n, shriek_basis(n)).coeffs, kind)


def _literal(text, n, kind):
    expr = parse(text, n, kind)
    return reduce_expression(expr, kind) if kind.is_shriek else normal_form(expr, kind)


def _random_text(rng, kind, n, depth):
    if depth == 0 or rng.random() < 0.3:
        return f"({render(_random(rng, kind, n))})"
    op = rng.choice("+-*^")
    if op == "^":
        return f"({_random_text(rng, kind, n, depth - 1)})^{rng.randint(0, 3)}"
    return f"{_random_text(rng, kind, n, depth - 1)} {op} {_random_text(rng, kind, n, depth - 1)}"


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_power_is_repeated_multiplication(kind):
    rng = random.Random(17)
    for _ in range(10):
        n = rng.choice([1, 2])
        e = _random(rng, kind, n)
        product = e._one()
        for k in range(7):
            assert e**k == product
            product = product * e
    with pytest.raises(ValueError):
        e ** -1


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.value)
def test_evaluate_equals_the_literal_route(kind):
    rng = random.Random(23)
    for _ in range(40):
        n = rng.choice([1, 2])
        text = _random_text(rng, kind, n, 3)
        assert evaluate(text, n, kind) == _literal(text, n, kind), text


def _outcome(route, text, n, kind):
    try:
        return route(text, n, kind)
    except WeylkitError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "text, n, kind",
    [
        ("x1 + " + "(" * 101 + "x1" + ")" * 101, 1, B),
        ("x3*d1", 2, B),
        ("x0", 2, AlgebraKind.C_SHRIEK),
        ("z * x1", 1, A),
        ("1" * 4400 + "*x1", 1, B),
        ("x1 + * d1", 1, B),
        ("(x1 + d1", 1, A),
        ("1/0", 1, AlgebraKind.C),
    ],
)
def test_evaluate_refuses_what_the_literal_route_refuses(text, n, kind):
    got = _outcome(evaluate, text, n, kind)
    assert isinstance(got, tuple)
    assert got == _outcome(_literal, text, n, kind)


@pytest.mark.parametrize(
    "text, kind, expected",
    [
        ("z^10000000", B, lambda: AlgebraElement.monomial(B, 1, PBWMonomial(10_000_000, (0,), (0,)))),
        ("(x1+d1+z)^12", B, lambda: normal_form(parse("(x1+d1+z)^6", 1, B), B) ** 2),
        # (x1 + d1)^2 = x1*d1 + d1*x1 = 0 in B!
        ("(x1+d1)^9*(x1+d1)^9", AlgebraKind.B_SHRIEK, lambda: ShriekElement(1)),
    ],
    ids=["z^10000000", "(x1+d1+z)^12", "(x1+d1)^9*(x1+d1)^9"],
)
def test_evaluate_builds_what_the_literal_route_refuses(text, kind, expected):
    # the output bound admits these; the free expansion exceeds _MAX_FREE_SIZE letters
    with pytest.raises(ExpressionTooLarge):
        parse(text, 1, kind)
    assert evaluate(text, 1, kind) == expected()
