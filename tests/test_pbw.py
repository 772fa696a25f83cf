"""PBW engine tests: normal forms, the filtration, bases, the center."""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest
import sympy

from weylkit import (
    AlgebraElement,
    AlgebraKind,
    Generator,
    IllegalGenerator,
    KindMismatch,
    NotDivisible,
    PBWMonomial,
    ShriekElement,
    ShriekWord,
    SizeMismatch,
    ZeroElement,
    basis_of_degree,
    centralizer_in_degree,
    commutator,
    divide_by_z,
    graded_degree,
    multiply,
    normal_form,
    parse,
    partial_degree,
    word_normal_form,
    z_divides,
    z_shift,
)
from weylkit import linalg, pbw
from weylkit.shriek import multiply as shriek_multiply
from weylkit.verify import random_element, random_word

A, B, C = AlgebraKind.A, AlgebraKind.B, AlgebraKind.C


def gen_el(kind, n, g):
    return AlgebraElement.generator(kind, n, g)


def nf(text, n, kind):
    return normal_form(parse(text, n, kind), kind)


# -- normal forms ------------------------------------------------------------


def test_weyl_exchange_homogenized():
    assert str(nf("d1*x1", 1, B)) == "x1*d1 + z^2"


def test_weyl_exchange_squared():
    assert str(nf("d1*x1*x1", 1, B)) == "x1^2*d1 + 2*z^2*x1"


def test_weyl_exchange_plain():
    assert str(nf("d1*x1", 1, A)) == "x1*d1 + 1"


def test_commuting_x_generators():
    assert str(nf("x2*x1", 2, B)) == "x1*x2"


def test_z_moves_left():
    assert str(nf("x1*z*d1", 1, B)) == "z*x1*d1"


def test_commutative_kind_sorts():
    assert str(nf("d1*x1*z", 1, C)) == "z*x1*d1"
    assert nf("d1*x1 - x1*d1", 1, C).is_zero()


def test_z_rejected_in_weyl():
    expr = parse("z*x1", 1, B)
    with pytest.raises(IllegalGenerator):
        normal_form(expr, A)


def test_normal_form_merges_coincident_words():
    assert nf("x1*d1 - x1*d1", 1, B).is_zero()
    assert str(nf("d1*x1 - x1*d1", 1, B)) == "z^2"


# -- multiplication -----------------------------------------------------------


def test_exchange_identity_general_power():
    x1 = gen_el(B, 1, Generator.x(1))
    d1 = gen_el(B, 1, Generator.d(1))
    z2 = z_shift(AlgebraElement.one(B, 1), 2)
    for a in (1, 2, 5, 13):
        lhs = multiply(d1, x1**a)
        rhs = multiply(x1**a, d1) + multiply(z2, x1 ** (a - 1)).scaled(a)
        assert lhs == rhs


def test_unit_law():
    rng = random.Random(5)
    one = AlgebraElement.one(B, 2)
    for _ in range(25):
        e = random_element(rng, B, 2)
        assert multiply(e, one) == e == multiply(one, e)


def test_z_is_central():
    z = gen_el(B, 1, Generator.z())
    e = nf("x1*d1", 1, B)
    assert multiply(z, e) == multiply(e, z)
    assert str(multiply(z, e)) == "z*x1*d1"


def test_kind_mismatch_rejected():
    with pytest.raises(KindMismatch):
        multiply(AlgebraElement.one(B, 1), AlgebraElement.one(A, 1))
    with pytest.raises(KindMismatch):
        multiply(AlgebraElement.one(B, 1), AlgebraElement.one(B, 2))


def test_pair_count_mismatch_is_a_size_mismatch():
    with pytest.raises(SizeMismatch):
        multiply(AlgebraElement.one(B, 1), AlgebraElement.one(B, 2))
    with pytest.raises(SizeMismatch):
        AlgebraElement.one(A, 1) + AlgebraElement.one(A, 3)
    with pytest.raises(SizeMismatch):
        AlgebraElement(B, 2, {PBWMonomial(0, (1,), (0,)): 1})  # a key of the wrong arity
    with pytest.raises(KindMismatch):  # an element of the other engine, as in a product
        AlgebraElement.one(B, 1) + ShriekElement.one(1)
    with pytest.raises(TypeError):  # not an element
        AlgebraElement.one(B, 1) + 1


@pytest.mark.parametrize(
    "key",
    [
        PBWMonomial(-1, (0,), (0,)),  # printed 1, unequal to one, of degree -1
        PBWMonomial(0, (-2,), (1,)),  # printed d1, and d1 times it was 0
        PBWMonomial(True, (1.5,), (0,)),  # printed z*x1^1.5
        PBWMonomial(True, (0,), (0,)),
        PBWMonomial(0, (0,), (Fraction(1),)),
    ],
    ids=["negative-z", "negative-x", "bool-and-float", "bool", "fraction"],
)
def test_constructor_refuses_a_malformed_exponent(key):
    with pytest.raises(ValueError):
        AlgebraElement(B, 1, {key: 1})


@pytest.mark.parametrize("key", [(0, (1,), (0,)), "x1", ShriekWord(1, 0)], ids=["tuple", "str", "shriek-word"])
def test_constructor_refuses_a_key_of_another_type(key):
    # a plain tuple equals its PBWMonomial, so only the type check tells them apart
    with pytest.raises(TypeError, match=r"is not a PBWMonomial$"):
        AlgebraElement(B, 1, {key: 1})


def test_constructor_keeps_the_arity_and_weyl_checks():
    with pytest.raises(SizeMismatch):
        AlgebraElement(B, 1, {PBWMonomial(0, (-1, 0), (0,)): 1})  # arity is checked first
    with pytest.raises(IllegalGenerator):
        AlgebraElement(A, 1, {PBWMonomial(1, (0,), (0,)): 1})


def test_arithmetic_results_skip_the_key_check(monkeypatch):
    checked = []
    inner = AlgebraElement._check_keys
    monkeypatch.setattr(AlgebraElement, "_check_keys", lambda self, keys: checked.append(len(keys)) or inner(self, keys))
    a = AlgebraElement(B, 1, {PBWMonomial(1, (2,), (1,)): 3, PBWMonomial(0, (0,), (2,)): -1})
    assert checked == [2]
    b = multiply(a, a) + a.scaled(2) - commutator(a, a)
    assert checked == [2] and not b.is_zero()
    # the engine builds these keys itself: only the kind and the pair count are checked
    built = [
        AlgebraElement.one(B, 2),
        gen_el(A, 2, Generator.d(2)),
        nf("d1*x1 - 3*z^2", 1, B),
        *centralizer_in_degree(C, 2, 2),
    ]
    assert checked == [2] and len(built) == 3 + 15


def test_add_scale():
    x1 = gen_el(B, 1, Generator.x(1))
    assert (x1 + x1.scaled(-1)).is_zero()
    assert x1.scaled(0).is_zero()
    e = nf("x1*d1", 1, B) + nf("z^2", 1, B)
    assert str(e) == "x1*d1 + z^2"


@pytest.mark.parametrize("engine", ["pbw", "shriek"])
def test_element_core_immutable_and_drops_zeros(engine):
    # both engines share one element core; x1 * x1 = 0 in B!, and the
    # commutator of x1 with itself cancels term by term in B
    if engine == "pbw":
        x1, zero = gen_el(B, 1, Generator.x(1)), AlgebraElement(B, 1)
        cancelled = commutator(x1, x1)
    else:
        x1, zero = ShriekElement.generator(1, Generator.x(1)), ShriekElement(1)
        cancelled = shriek_multiply(x1, x1)
    with pytest.raises(AttributeError):
        x1.n = 2
    with pytest.raises(AttributeError):
        x1.coeffs = {}
    for e in (x1 - x1, x1.scaled(0), cancelled):
        assert e.coeffs == {}
        assert e == zero


@pytest.mark.parametrize("engine", ["pbw", "shriek"])
def test_a_scalar_multiplies_through_scaled_only(engine):
    if engine == "pbw":
        e = nf("x1*d1 + z", 1, B)
    else:
        e = ShriekElement.generator(1, Generator.x(1)) + ShriekElement.generator(1, Generator.z())
    for scalar in (2, Fraction(2)):
        with pytest.raises(TypeError):
            e * scalar
        with pytest.raises(TypeError):
            scalar * e
    assert e.scaled(2).coeffs == {key: 2 * c for key, c in e.coeffs.items()}


def _x1_key_and_element(engine):
    """The basis key of x1 at n = 1 in ``engine``, and its element constructor from a coefficient map."""
    if engine == "pbw":
        return PBWMonomial(0, (1,), (0,)), lambda coeffs: AlgebraElement(B, 1, coeffs)
    return ShriekWord(1, 0), lambda coeffs: ShriekElement(1, coeffs)


@pytest.mark.parametrize("engine", ["pbw", "shriek"])
@pytest.mark.parametrize("inexact", [0.1, 0.5, "1/2"], ids=["float", "half", "str"])
def test_an_inexact_coefficient_is_refused(engine, inexact):
    key, element = _x1_key_and_element(engine)
    with pytest.raises(TypeError):
        element({key: inexact})
    with pytest.raises(TypeError):
        element({key: 1}).scaled(inexact)


@pytest.mark.parametrize("engine", ["pbw", "shriek"])
def test_a_coefficient_is_an_int_when_integral(engine):
    # the one coefficient rule, generators.exact: int if integral, else a Fraction with denominator > 1
    key, element = _x1_key_and_element(engine)
    for given, want in ((Fraction(4, 2), 2), (True, 1), (sympy.Integer(-3), -3), (sympy.Rational(6, 4), Fraction(3, 2))):
        e = element({key: given})
        assert e.coeffs == {key: want}
        assert type(e.coeffs[key]) is type(want)
    half = element({key: Fraction(1, 2)})
    assert type(half.scaled(2).coeffs[key]) is int
    assert type((half + half).coeffs[key]) is int
    assert type(half.scaled(Fraction(1, 3)).coeffs[key]) is Fraction


def test_commutator_examples():
    d1 = gen_el(B, 1, Generator.d(1))
    x1 = gen_el(B, 1, Generator.x(1))
    z = gen_el(B, 1, Generator.z())
    assert str(commutator(d1, x1)) == "z^2"
    assert commutator(z, x1).is_zero()
    e = nf("x1*d1 + 2*z", 1, B)
    assert commutator(e, e).is_zero()


def test_multiply_agrees_with_word_rewriting():
    # dual route: the closed-form product must match the rewriting engine
    rng = random.Random(17)
    for _ in range(300):
        kind = rng.choice([A, B, C])
        n = rng.choice([1, 2])
        w1 = random_word(rng, n, kind, max_len=5)
        w2 = random_word(rng, n, kind, max_len=5)
        a = word_normal_form(w1, kind, n)
        b = word_normal_form(w2, kind, n)
        assert multiply(a, b) == word_normal_form(w1 + w2, kind, n)


# -- degrees -------------------------------------------------------------------


def test_partial_degree_ignores_z():
    assert partial_degree(nf("z^5", 1, B)) == 0


def test_partial_degree_of_exchange_element():
    assert partial_degree(nf("x1^2*d1 + 2*z^2*x1", 1, B)) == 3


def test_degree_of_zero_is_an_error():
    zero = AlgebraElement(B, 1)
    with pytest.raises(ZeroElement):
        partial_degree(zero)
    with pytest.raises(ZeroElement):
        graded_degree(zero)


# -- bases -----------------------------------------------------------------------


def brute_force_monomials(kind, n, d):
    """Independent enumeration oracle over raw exponent tuples."""
    slots = 2 * n if kind is A else 2 * n + 1
    found = []
    for exps in itertools.product(range(d + 1), repeat=slots):
        if sum(exps) != d:
            continue
        if kind is A:
            found.append(PBWMonomial(0, exps[:n], exps[n:]))
        else:
            found.append(PBWMonomial(exps[0], exps[1 : n + 1], exps[n + 1 :]))
    return found


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
def test_basis_matches_enumeration_oracle(n, d):
    got = basis_of_degree(B, n, d)
    want = brute_force_monomials(B, n, d)
    assert sorted(got, key=lambda m: m.term_key(n)) == sorted(want, key=lambda m: m.term_key(n))
    assert len(got) == comb(d + 2 * n, 2 * n)
    assert len(set(got)) == len(got)


@pytest.mark.parametrize("kind", [A, B, C], ids=lambda k: k.value)
def test_basis_is_built_in_canonical_order(kind):
    for n in (1, 2, 3):
        for d in range(6):
            want = sorted(brute_force_monomials(kind, n, d), key=lambda m: m.term_key(n))
            assert basis_of_degree(kind, n, d) == want, (n, d)


def test_basis_examples():
    assert [str(m) for m in basis_of_degree(B, 1, 1)] == ["x1", "d1", "z"]
    assert [str(m) for m in basis_of_degree(B, 1, 0)] == ["1"]
    assert len(basis_of_degree(B, 2, 2)) == 15


def test_basis_weyl_kind_omits_z():
    got = basis_of_degree(A, 1, 2)
    assert all(m.zexp == 0 for m in got)
    assert len(got) == comb(2 + 1, 1)


@pytest.mark.parametrize("kind", [AlgebraKind.B_SHRIEK, AlgebraKind.C_SHRIEK])
def test_basis_refuses_the_shriek_kinds(kind):
    with pytest.raises(KindMismatch):
        basis_of_degree(kind, 1, 1)


def test_basis_refuses_bad_arguments_before_the_cache():
    basis_of_degree(B, 2, 2)  # cached: a lookup by 2.0 would find this entry
    for n, d in ((2.0, 2), (2, 2.0), ("2", 2)):
        with pytest.raises(TypeError):
            basis_of_degree(B, n, d)
    for n, d in ((-1, 2), (1, -1)):
        with pytest.raises(ValueError):
            basis_of_degree(B, n, d)


def test_basis_list_belongs_to_the_caller():
    want = basis_of_degree(C, 2, 3)
    basis_of_degree(C, 2, 3).append(PBWMonomial(0, (9, 9), (9, 9)))
    basis_of_degree(C, 2, 3).clear()
    assert basis_of_degree(C, 2, 3) == want and len(want) == comb(3 + 4, 4)


def test_basis_is_built_once_per_key():
    pbw._graded_basis.cache_clear()
    assert basis_of_degree(B, 2, 4) == basis_of_degree(B, 2, 4)
    assert basis_of_degree(A, 2, 4) != basis_of_degree(B, 2, 4)  # the kind is part of the key
    info = pbw._graded_basis.cache_info()
    assert (info.misses, info.hits) == (2, 2)


# -- filtration laws ---------------------------------------------------------------


def test_partial_degree_laws_random():
    rng = random.Random(23)
    for _ in range(400):
        n = rng.choice([1, 2])
        a = random_element(rng, B, n, nonzero=True)
        b = random_element(rng, B, n, nonzero=True)
        ab = multiply(a, b)
        assert not ab.is_zero()  # integral domain
        assert partial_degree(ab) == partial_degree(a) + partial_degree(b)
        s = a + b
        if not s.is_zero():
            assert partial_degree(s) <= max(partial_degree(a), partial_degree(b))
        c = commutator(a, b)
        if not c.is_zero():
            assert partial_degree(c) <= partial_degree(a) + partial_degree(b) - 1


def test_associativity_random():
    rng = random.Random(29)
    for _ in range(300):
        n = rng.choice([1, 2])
        a = random_element(rng, B, n)
        b = random_element(rng, B, n)
        c = random_element(rng, B, n)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_confluence_random_orders():
    rng = random.Random(31)
    for _ in range(200):
        kind = rng.choice([A, B, C])
        n = rng.choice([1, 2])
        w = random_word(rng, n, kind, max_len=6)
        ref = word_normal_form(w, kind, n)
        for _ in range(4):
            assert word_normal_form(w, kind, n, rng=rng) == ref


@pytest.mark.parametrize(
    "text, n, steps",
    [
        ("(x1+d1+z)^8", 1, 3**8),  # every word of length 8 over z, x1, d1
        ("d1^8*x1^8", 1, 213),
        ("(x1+d1+x2+d2+z)^5", 2, 5**5),
    ],
)
def test_each_word_is_rewritten_once(rewrite_steps, text, n, steps):
    nf(text, n, B)
    assert len(rewrite_steps) == steps
    assert len(set(rewrite_steps)) == steps


def test_inversion_count_never_rises(rewrite_steps):
    rng = random.Random(41)
    for _ in range(150):
        kind = rng.choice([A, B, C])
        n = rng.choice([1, 2])
        w = random_word(rng, n, kind, max_len=8)
        for route in (None, rng):
            rewrite_steps.clear()
            word_normal_form(w, kind, n, rng=route)
            counts = [pbw._inversions(ranks) for ranks in rewrite_steps]
            assert counts == sorted(counts, reverse=True), (w, kind, route)


@pytest.mark.parametrize("k", range(13))
def test_exchange_power_by_rewriting(k):
    d1, x1 = Generator.d(1), Generator.x(1)
    got = word_normal_form([d1] * k + [x1] * k, B, 1)
    assert got == multiply(gen_el(B, 1, d1) ** k, gen_el(B, 1, x1) ** k)
    # random redex orders reach more words: three seeds take 0.03 s at k = 8, 0.23 s at k = 10
    if k <= 10:
        for seed in range(3):
            assert word_normal_form([d1] * k + [x1] * k, B, 1, rng=random.Random(seed)) == got


# -- the center ---------------------------------------------------------------------


def test_center_degree_examples():
    (v,) = centralizer_in_degree(B, 1, 3)
    assert str(v) == "z^3"
    (v,) = centralizer_in_degree(B, 2, 0)
    assert str(v) == "1"
    (v,) = centralizer_in_degree(B, 1, 4)
    assert str(v) == "z^4"


def test_center_commutes_with_everything():
    for n in (1, 2):
        for d in (2, 3):
            (v,) = centralizer_in_degree(B, n, d)
            for i in range(1, n + 1):
                assert commutator(v, gen_el(B, n, Generator.x(i))).is_zero()
                assert commutator(v, gen_el(B, n, Generator.d(i))).is_zero()
            assert commutator(v, gen_el(B, n, Generator.z())).is_zero()


def test_noncentral_monomial_detected():
    # x1 and d1 have a nonzero commutator with d1 resp. x1, so only z is kept in degree 1
    vs = centralizer_in_degree(B, 1, 1)
    assert len(vs) == 1 and str(vs[0]) == "z"


def test_centralizer_commutative_kind_is_everything():
    for d in (0, 1, 2):
        assert len(centralizer_in_degree(C, 1, d)) == len(basis_of_degree(C, 1, d))


def dense_centralizer(kind, n, d):
    """The whole system in one elimination, one row per generator and target."""
    basis = basis_of_degree(kind, n, d)
    gens = [gen_el(kind, n, Generator.z())] if kind is not A else []
    gens += [gen_el(kind, n, g(i)) for g in (Generator.x, Generator.d) for i in range(1, n + 1)]
    rows = []
    for g in gens:
        columns = [commutator(AlgebraElement.monomial(kind, n, m), g).coeffs for m in basis]
        for t in sorted({t for col in columns for t in col}, key=lambda t: t.term_key(n)):
            rows.append([col.get(t, Fraction(0)) for col in columns])
    return [{m: v for m, v in zip(basis, vec) if v} for vec in linalg.nullspace(rows, len(basis))]


_ORACLE_SIZES = [(n, d) for n in (1, 2) for d in range(6)] + [(3, d) for d in range(4)] + [(4, d) for d in range(3)]


@pytest.mark.parametrize("kind", [A, B, C], ids=lambda k: k.value)
def test_centralizer_read_off_gives_the_dense_basis_in_its_order(kind):
    for n, d in _ORACLE_SIZES:
        got = [v.coeffs for v in centralizer_in_degree(kind, n, d)]
        assert got == dense_centralizer(kind, n, d), (n, d)


@pytest.mark.parametrize("kind", [A, B, C], ids=lambda k: k.value)
def test_centralizer_runs_no_elimination(eliminations, kind):
    # the dense system is 1260 x 462 (582 120 cells) for B and 756 x 252 (190 512) for A
    centralizer_in_degree(kind, 3, 5)
    assert eliminations == []


def test_centralizer_refuses_a_basis_where_two_monomials_meet(monkeypatch):
    inner = pbw.basis_of_degree

    def listing_x1d1_twice(kind, n, d):  # both copies reach z^2*x1 in [-, x1] and z^2*d1 in [-, d1]
        return inner(kind, n, d) + [PBWMonomial(0, (1, 0), (1, 0))]

    monkeypatch.setattr(pbw, "basis_of_degree", listing_x1d1_twice)
    for kind in (B, C):  # kind C makes no commutator term, but the read-off still needs distinct monomials
        with pytest.raises(RuntimeError, match=r"^the degree-2 basis lists x1\*d1 twice$"):
            centralizer_in_degree(kind, 2, 2)


@pytest.mark.parametrize("kind", [A, B, C], ids=lambda k: k.value)
def test_centralizer_multiplies_no_monomials(monkeypatch, kind):
    # each [m, g] is read off the exponents; building it by products takes 462 * 6 * 2 = 5 544 calls for B
    calls = []
    inner = pbw._packed_term_pairs
    monkeypatch.setattr(pbw, "_packed_term_pairs", lambda *args: calls.append(args) or inner(*args))
    assert len(centralizer_in_degree(kind, 3, 5)) == {A: 0, B: 1, C: 462}[kind]
    assert calls == []
    d1, x1 = (AlgebraElement.generator(B, 1, g) for g in (Generator.d(1), Generator.x(1)))
    assert str(multiply(d1, x1)) == "x1*d1 + z^2"  # the wrapper counts
    assert len(calls) == 1


def test_centralizer_checks_no_basis_monomial(monkeypatch):
    # the basis is valid by construction, and no unit is built to lend its constructor
    checked = []
    inner = AlgebraElement._check_keys
    monkeypatch.setattr(AlgebraElement, "_check_keys", lambda self, keys: checked.extend(keys) or inner(self, keys))
    assert len(centralizer_in_degree(C, 3, 3)) == 84
    assert checked == []
    AlgebraElement.monomial(C, 3, basis_of_degree(C, 3, 3)[0])  # the wrapper counts
    assert len(checked) == 1


def test_centralizer_builds_no_element(monkeypatch):
    calls = []
    for name in ("multiply", "commutator"):
        inner = getattr(pbw, name)
        monkeypatch.setattr(pbw, name, lambda *args, inner=inner, name=name: calls.append(name) or inner(*args))
    assert [str(v) for v in centralizer_in_degree(B, 3, 5)] == ["z^5"]
    assert calls == []
    pbw.commutator(gen_el(B, 1, Generator.x(1)), gen_el(B, 1, Generator.d(1)))  # the wrappers count
    assert calls == ["commutator", "multiply", "multiply"]


# -- z divisibility -----------------------------------------------------------------


def test_z_divides_and_divide():
    e = nf("z^2*x1 + z", 1, B)
    assert z_divides(e)
    assert str(divide_by_z(e)) == "z*x1 + 1"
    assert not z_divides(nf("x1 + z", 1, B))
    assert str(divide_by_z(nf("z", 1, B))) == "1"
    assert multiply(gen_el(B, 1, Generator.z()), divide_by_z(e)) == e


def test_divide_by_z_requires_divisibility():
    with pytest.raises(NotDivisible):
        divide_by_z(nf("x1 + z", 1, B))
    assert str(divide_by_z(nf("z^3*x1 + z^2", 1, B), 2)) == "z*x1 + 1"
    with pytest.raises(NotDivisible):
        divide_by_z(nf("z^3*x1 + z^2", 1, B), 3)


def test_z_powers_refuse_a_negative_k():
    for shift in (divide_by_z, z_shift):
        with pytest.raises(ValueError):
            shift(nf("x1", 1, B), -1)


def test_z_powers_refuse_a_k_that_is_not_an_int(monkeypatch):
    e, weyl = nf("z^2*x1", 1, B), nf("x1", 1, AlgebraKind.A)
    checked = []
    inner = AlgebraElement._check_keys
    monkeypatch.setattr(AlgebraElement, "_check_keys", lambda self, keys: checked.append(keys) or inner(self, keys))
    for shift in (divide_by_z, z_shift):
        for k in (1.0, Fraction(1), "1", None):
            with pytest.raises(TypeError, match="needs an int k"):
                shift(e, k)
        with pytest.raises(TypeError):
            shift(weyl, 0.5)  # refused before the kind is looked at
    assert checked == []


def test_z_powers_check_no_key(monkeypatch):
    e = nf("z^2*x1*d1 + 3*z*d1^2", 2, B)
    checked = []
    inner = AlgebraElement._check_keys
    monkeypatch.setattr(AlgebraElement, "_check_keys", lambda self, keys: checked.append(keys) or inner(self, keys))
    up = z_shift(e, 3)
    assert divide_by_z(up, 3) == e and divide_by_z(up) == z_shift(e, 2)
    assert checked == []
    assert up.coeffs == {PBWMonomial(m.zexp + 3, m.xexps, m.dexps): c for m, c in e.coeffs.items()}
