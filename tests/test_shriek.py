"""Shriek algebra tests: reduction, Frobenius form, Nakayama automorphism."""

import copy
import itertools
import pickle
import random
from fractions import Fraction
from math import comb

import pytest
import sympy

from weylkit import (
    AlgebraKind,
    Generator,
    KindMismatch,
    PBWMonomial,
    ShriekElement,
    SizeMismatch,
    apply_automorphism,
    bilinear_form,
    decompose,
    degree_dimensions,
    frobenius_functional,
    gram_matrix,
    nakayama,
    reduce_word,
    shriek_basis,
    shriek_basis_of_degree,
)
from weylkit.shriek import NakayamaMap, ShriekWord, defining_identity_failure, multiply, top_word, rank_generator
from weylkit import linalg, pbw, shriek
from weylkit.verify import random_shriek

from conftest import oracle_apply_automorphism, solve

x1, x2 = Generator.x(1), Generator.x(2)
d1, d2 = Generator.d(1), Generator.d(2)
z = Generator.z()


# -- an independent reduction oracle: insertion with signs ------------------------

def _oracle_insert(word, r, n):
    """Insert rank r at the right end of a sorted square-free word and sort."""
    greater = sum(1 for t in word if t > r)
    sign = Fraction((-1) ** greater)
    if r not in word:
        return [(sign, tuple(sorted(word + (r,))))]
    if r != 2 * n:
        return []  # repeated x or d kills the word
    base = tuple(t for t in word if t != 2 * n)
    out = []
    for i in range(n):
        for c1, w1 in _oracle_insert(base, i, n):
            for c2, w2 in _oracle_insert(w1, n + i, n):
                out.append((-sign * c1 * c2, w2))
    return out


def oracle_reduce(gens, n):
    """Reduce a word one generator at a time; independent of the worklist engine."""
    from weylkit.shriek import _ranks_to_word

    states = {(): Fraction(1)}
    for g in gens:
        r = g.rank(n)
        new = {}
        for word, c in states.items():
            for c2, w2 in _oracle_insert(word, r, n):
                key = w2
                new[key] = new.get(key, Fraction(0)) + c * c2
        states = {w: c for w, c in new.items() if c}
    return ShriekElement(n, {_ranks_to_word(w, n): c for w, c in states.items()})


# -- basis and dimensions -----------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3])
def test_basis_count_and_dims(n):
    words = shriek_basis(n)
    assert len(words) == 2 ** (2 * n + 1)
    assert len(set(words)) == len(words)
    dims = [len(shriek_basis_of_degree(n, j)) for j in range(2 * n + 2)]
    assert dims == [comb(2 * n, j) + (comb(2 * n, j - 1) if j else 0) for j in range(2 * n + 2)]
    assert dims == degree_dimensions(n)
    assert dims == dims[::-1]


def test_dims_examples():
    assert degree_dimensions(1) == [1, 3, 3, 1]
    assert degree_dimensions(2) == [1, 5, 10, 10, 5, 1]
    assert degree_dimensions(1, AlgebraKind.C_SHRIEK) == [1, 3, 3, 1]


@pytest.mark.parametrize("kind", [AlgebraKind.A, AlgebraKind.B, AlgebraKind.C])
def test_dims_refuse_the_pbw_kinds(kind):
    with pytest.raises(KindMismatch):
        degree_dimensions(1, kind)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_basis_equals_the_sort_of_all_words(n):
    # the oracle: every letter mask and z flag, sorted by (degree, ranks)
    words = [ShriekWord(letters, zf) for letters in range(1 << 2 * n) for zf in (0, 1)]
    words.sort(key=lambda w: (w.degree, w.ranks(n)))
    assert shriek_basis(n) == words
    for j in range(2 * n + 2):
        assert shriek_basis_of_degree(n, j) == [w for w in words if w.degree == j], j
    assert shriek_basis_of_degree(n, -1) == [] == shriek_basis_of_degree(n, 2 * n + 2)


def test_basis_of_degree_refuses_bad_arguments_before_the_cache():
    shriek_basis_of_degree(2, 2)  # cached: a lookup by 2.0 would find this entry
    for n, j in ((2.0, 2), (2, 2.0), (None, 2)):
        with pytest.raises(TypeError):
            shriek_basis_of_degree(n, j)
    with pytest.raises(ValueError):
        shriek_basis_of_degree(-1, 0)


def test_basis_refuses_bad_arguments_before_the_cache():
    shriek_basis(2)
    with pytest.raises(TypeError):
        shriek_basis(2.0)
    with pytest.raises(ValueError):
        shriek_basis(-1)  # it once listed no words


@pytest.mark.parametrize("listing", [lambda: shriek_basis(2), lambda: shriek_basis_of_degree(2, 2)])
def test_basis_lists_belong_to_the_caller(listing):
    want = listing()
    listing().append(ShriekWord(0, 0))
    listing().clear()
    assert listing() == want and want


def test_basis_words_are_built_once_per_degree():
    shriek._graded_words.cache_clear()
    assert shriek_basis(2) == shriek_basis(2)
    assert shriek_basis_of_degree(2, 3) == shriek_basis(2)[16:26]  # after 1 + 5 + 10 words
    info = shriek._graded_words.cache_info()
    assert (info.misses, info.hits) == (6, 13)  # 19 reads of degrees 0..5, each degree built once


def test_basis_order_n1():
    assert [w.word_str(1) for w in shriek_basis(1)] == [
        "1",
        "x1",
        "d1",
        "z",
        "x1*d1",
        "x1*z",
        "d1*z",
        "x1*d1*z",
    ]


# -- reduction -----------------------------------------------------------------------

def test_reduce_examples():
    assert str(reduce_word([d1, x1], 1)) == "-x1*d1"
    assert str(reduce_word([z, z], 1)) == "-x1*d1"
    assert reduce_word([x1, x1], 1).is_zero()
    assert str(reduce_word([z, x1], 1)) == "-x1*z"
    assert str(reduce_word([z, z], 2)) == "-x1*d1 - x2*d2"


def test_reduce_exterior_kind():
    assert reduce_word([z, z], 1, AlgebraKind.C_SHRIEK).is_zero()
    assert str(reduce_word([d1, x1], 1, AlgebraKind.C_SHRIEK)) == "-x1*d1"


def test_reduce_against_insertion_oracle():
    rng = random.Random(47)
    pool1 = [x1, d1, z]
    pool2 = [x1, x2, d1, d2, z]
    for _ in range(400):
        n = rng.choice([1, 2])
        pool = pool1 if n == 1 else pool2
        word = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
        assert reduce_word(word, n) == oracle_reduce(word, n), word


def test_reduce_confluence_random_orders():
    rng = random.Random(53)
    for _ in range(200):
        n = rng.choice([1, 2])
        pool = [x1, d1, z] if n == 1 else [x1, x2, d1, d2, z]
        word = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
        ref = reduce_word(word, n)
        for _ in range(4):
            assert reduce_word(word, n, rng=rng) == ref


# -- multiplication -------------------------------------------------------------------

def test_multiply_examples():
    a = ShriekElement.generator(1, x1)
    b = ShriekElement.generator(1, d1)
    assert str(multiply(a, b)) == "x1*d1"
    assert multiply(multiply(a, b), a).is_zero()
    zz = multiply(ShriekElement.generator(1, z), ShriekElement.generator(1, z))
    assert str(multiply(zz, ShriekElement.generator(1, z))) == "-x1*d1*z"


def test_multiply_graded():
    rng = random.Random(59)
    for _ in range(100):
        n = rng.choice([1, 2])
        wa = rng.choice(shriek_basis(n))
        wb = rng.choice(shriek_basis(n))
        prod = multiply(ShriekElement.word(n, wa), ShriekElement.word(n, wb))
        if not prod.is_zero():
            assert prod.degrees() == {wa.degree + wb.degree}


def test_multiply_associative_all_triples_n1():
    els = [ShriekElement.word(1, w) for w in shriek_basis(1)]
    for a, b, c in itertools.product(els, repeat=3):
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_multiply_associative_random_n2():
    rng = random.Random(61)
    words = shriek_basis(2)
    for _ in range(500):
        a, b, c = (random_shriek(rng, 2, words) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_size_mismatch():
    with pytest.raises(SizeMismatch):
        multiply(ShriekElement.one(1), ShriekElement.one(2))


@pytest.mark.parametrize(
    "word",
    [
        ShriekWord(0, 2),  # printed 1, of degree 2
        ShriekWord(0, -1),  # printed z, of degree -1
        ShriekWord(True, 0),
        ShriekWord(1, True),
        ShriekWord(-1, 0),  # the hash takes a negative or float mask to the key check
        ShriekWord(1.5, 0),
    ],
    ids=["zflag-2", "zflag-negative", "bool-letters", "bool-zflag", "negative-letters", "float-letters"],
)
def test_constructor_refuses_a_malformed_word(word):
    with pytest.raises(ValueError):
        ShriekElement(1, {word: 1})


@pytest.mark.parametrize(
    "key", [(1, 0), (1, 0, 0), "x1", PBWMonomial(0, (1,), (0,))], ids=["tuple", "word-tuple", "str", "pbw-monomial"]
)
def test_constructor_refuses_a_key_of_another_type(key):
    # refused before any field is read, so no AttributeError escapes
    with pytest.raises(TypeError, match=r"is not a ShriekWord$"):
        ShriekElement(1, {key: 1})


def test_constructor_keeps_the_letter_range_check():
    with pytest.raises(SizeMismatch):
        ShriekElement(1, {ShriekWord(1 << 2, 0): 1})


@pytest.mark.parametrize("kind", [AlgebraKind.B_SHRIEK, AlgebraKind.C_SHRIEK], ids=["B!", "C!"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_word_product_equals_rewriting_on_every_pair(n, kind):
    for u, v in itertools.product(shriek_basis(n), repeat=2):
        rewritten = shriek._reduce_rank_words({u.ranks(n) + v.ranks(n): Fraction(1)}, n, kind)
        expected = {w: c for w, c in rewritten.items() if c}
        assert dict(shriek._word_product(u, v, kind, n)) == expected, (u, v)


def test_multiply_does_not_rewrite(monkeypatch):
    calls = []
    inner = shriek._reduce_rank_words

    def counting(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(shriek, "_reduce_rank_words", counting)
    for kind in (AlgebraKind.B_SHRIEK, AlgebraKind.C_SHRIEK):
        full = ShriekElement(3, {w: 1 for w in shriek_basis(3)}, kind)
        assert not multiply(full, full).is_zero()
    assert len(calls) == 0
    reduce_word([z, z], 3)  # the literal route does go through the counter
    assert len(calls) == 1


def test_word_hash_mixes_every_mask_bit():
    # Python hashes an int modulo 2^61 - 1; the letters of ranks r and r+61 must still hash apart
    assert len({hash(ShriekWord(1 << i, 0)) for i in range(1000)}) == 1000
    assert len({hash(ShriekWord(1 << i, 1)) for i in range(1000)}) == 1000


@pytest.mark.parametrize("n", [31, 40])
def test_words_equal_and_hash_as_tuples_in_c(n):
    assert ShriekWord.__hash__ is tuple.__hash__ and ShriekWord.__eq__ is tuple.__eq__
    w = ShriekWord(1 | 1 << 2 * n - 1, 0)  # x1*d_n: its d letter lies past bit 60
    assert copy.deepcopy(w) == w == pickle.loads(pickle.dumps(w))
    assert type(pickle.loads(pickle.dumps(w))) is ShriekWord
    assert repr(w) == f"ShriekWord(letters={w.letters}, zflag=0)"
    via_ranks = shriek._ranks_to_word([0, 2 * n - 1], n)
    product = multiply(ShriekElement.generator(n, x1), ShriekElement.generator(n, Generator.d(n)))
    (via_product,) = product.coeffs
    for other in (via_ranks, via_product):
        assert type(other) is ShriekWord and other == w and hash(other) == hash(w)
    assert product.coeffs[w] == 1


# -- decomposition ---------------------------------------------------------------------

def test_decompose_examples():
    e = ShriekElement.generator(1, x1) + reduce_word([x1, z], 1)
    c, zp = decompose(e)
    assert str(c) == "x1" and str(zp) == "x1*z"
    c2, z2 = decompose(reduce_word([z, z], 1))
    assert str(c2) == "-x1*d1" and z2.is_zero()


@pytest.mark.parametrize("n", [1, 2])
def test_decompose_properties(n):
    zero = ShriekElement(n)
    words = shriek_basis(n)
    zfree = [w for w in words if w.zflag == 0]
    assert len(zfree) == 2 ** (2 * n)
    # closure of the z-free subalgebra
    for u in zfree:
        for v in zfree:
            prod = multiply(ShriekElement.word(n, u), ShriekElement.word(n, v))
            assert all(w.zflag == 0 for w in prod.coeffs)
    rng = random.Random(67)
    for _ in range(100):
        e = random_shriek(rng, n, words)
        c, zp = decompose(e)
        assert c + zp == e
        assert decompose(c) == (c, zero)
        assert decompose(zp) == (zero, zp)


# -- Frobenius form ---------------------------------------------------------------------

def test_frobenius_examples():
    assert frobenius_functional(reduce_word([x1, d1, z], 1)) == 1
    assert frobenius_functional(ShriekElement.generator(1, x1)) == 0
    assert frobenius_functional(reduce_word([z, x1, d1], 1)) == 1


def test_bilinear_form_examples():
    assert bilinear_form(ShriekElement.generator(1, x1), reduce_word([d1, z], 1)) == 1
    assert bilinear_form(ShriekElement.generator(1, x1), ShriekElement.generator(1, x1)) == 0
    assert bilinear_form(ShriekElement.one(1), reduce_word([x1, d1, z], 1)) == 1


def test_gram_examples():
    assert gram_matrix(1, 0) == [[Fraction(1)]]
    g1 = gram_matrix(1, 1)
    assert len(g1) == 3 and linalg.det(g1) != 0
    assert gram_matrix(1, 3) == [[Fraction(1)]]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_gram_matrix_equals_the_bilinear_form_of_basis_words(n):
    # the element route is the oracle: beta(u, v) read off the built product u*v
    word = ShriekElement.word
    for j in range(2 * n + 2):
        want = [
            [frobenius_functional(multiply(word(n, u), word(n, v))) for v in shriek_basis_of_degree(n, 2 * n + 1 - j)]
            for u in shriek_basis_of_degree(n, j)
        ]
        assert gram_matrix(n, j) == want, j


@pytest.mark.parametrize("kind", [AlgebraKind.B_SHRIEK, AlgebraKind.C_SHRIEK], ids=["B!", "C!"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_bilinear_form_equals_the_product_route_on_every_word_pair(n, kind):
    els = [ShriekElement.word(n, w, 1, kind) for w in shriek_basis(n)]
    for a, b in itertools.product(els, repeat=2):
        assert bilinear_form(a, b) == frobenius_functional(multiply(a, b)), (a, b)


@pytest.mark.parametrize("kind", [AlgebraKind.B_SHRIEK, AlgebraKind.C_SHRIEK], ids=["B!", "C!"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_bilinear_form_equals_the_product_route_on_random_elements(n, kind):
    rng = random.Random(f"bilinear:{n}:{kind.value}")
    words = shriek_basis(n)

    def element():
        chosen = rng.sample(words, rng.randint(0, min(16, len(words))))
        return ShriekElement(n, {w: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for w in chosen}, kind)

    for _ in range(200):
        a, b = element(), element()
        assert bilinear_form(a, b) == frobenius_functional(multiply(a, b)), (a, b)


@pytest.mark.parametrize("kind", [AlgebraKind.B_SHRIEK, AlgebraKind.C_SHRIEK])
@pytest.mark.parametrize("n", range(4))
def test_a_complementary_pair_rewrites_by_sorting(n, kind):
    # u and its complement hold each generator once, so rewriting u*ubar only sorts the letters
    top = top_word(n)
    for u in shriek_basis(n):
        ubar = ShriekWord(top.letters ^ u.letters, u.zflag ^ 1)
        ranks = u.ranks(n) + ubar.ranks(n)
        inversions = sum(a > b for a, b in itertools.combinations(ranks, 2))
        letters = [rank_generator(r, n) for r in ranks]
        assert frobenius_functional(reduce_word(letters, n, kind)) == (-1) ** inversions, u


def test_bilinear_form_checks_compatibility():
    with pytest.raises(SizeMismatch):
        bilinear_form(ShriekElement.one(1), ShriekElement.one(2))
    with pytest.raises(KindMismatch) as info:
        bilinear_form(ShriekElement.one(1), ShriekElement.one(1, AlgebraKind.C_SHRIEK))
    assert info.type is KindMismatch


_PBW_X1 = pbw.AlgebraElement.generator(AlgebraKind.B, 1, x1)
_SHRIEK_X1 = ShriekElement.generator(1, x1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: frobenius_functional(_PBW_X1),  # returned 0
        lambda: shriek.product_size(_PBW_X1, _PBW_X1, 10),  # returned (1, 0)
        lambda: multiply(_PBW_X1, _PBW_X1),
        lambda: bilinear_form(_PBW_X1, _PBW_X1),
        lambda: decompose(_PBW_X1),
        lambda: apply_automorphism(nakayama(1), _PBW_X1),
        lambda: pbw.multiply(_SHRIEK_X1, _SHRIEK_X1),
        lambda: pbw.commutator(_SHRIEK_X1, _SHRIEK_X1),
        lambda: pbw.product_size(_SHRIEK_X1, _SHRIEK_X1, 10),
        lambda: pbw.partial_degree(_SHRIEK_X1),
        lambda: pbw.graded_degree(_SHRIEK_X1),  # returned 1
        lambda: pbw.z_divides(_SHRIEK_X1),
        lambda: pbw.divide_by_z(_SHRIEK_X1),
        lambda: pbw.z_shift(_SHRIEK_X1, 1),
        lambda: multiply(_SHRIEK_X1, _PBW_X1),  # these three raised a bare TypeError
        lambda: pbw.multiply(_PBW_X1, _SHRIEK_X1),
        lambda: bilinear_form(_SHRIEK_X1, _PBW_X1),
        lambda: pbw.AlgebraElement.one(AlgebraKind.B_SHRIEK, 1),  # the builders check the kind, not the keys
        lambda: pbw.AlgebraElement.generator(AlgebraKind.B_SHRIEK, 1, x1),
        lambda: ShriekElement.of_basis(1, {}, AlgebraKind.B),
    ],
    ids=[
        "frobenius_functional", "product_size", "multiply", "bilinear_form", "decompose", "apply_automorphism",
        "pbw.multiply", "pbw.commutator", "pbw.product_size", "pbw.partial_degree", "pbw.graded_degree",
        "pbw.z_divides", "pbw.divide_by_z", "pbw.z_shift",
        "multiply-mixed", "pbw.multiply-mixed", "bilinear_form-mixed",
        "pbw.one", "pbw.generator", "of_basis",
    ],
)
def test_each_engine_refuses_the_other_engines_elements(call):
    # each answered 0, (1, 0) or 1, or failed with a bare AttributeError or TypeError
    with pytest.raises(KindMismatch):
        call()


@pytest.mark.parametrize("call", [multiply, pbw.multiply, bilinear_form], ids=["multiply", "pbw.multiply", "bilinear_form"])
def test_a_non_element_operand_is_a_type_error(call):
    left = _PBW_X1 if call is pbw.multiply else _SHRIEK_X1
    with pytest.raises(TypeError):
        call(left, 1)


def test_pairing_builds_no_element_and_one_word_product_per_word(monkeypatch):
    calls = []
    for name in ("multiply", "_word_product"):
        inner = getattr(shriek, name)
        monkeypatch.setattr(shriek, name, lambda *args, inner=inner, name=name: calls.append(name) or inner(*args))
    a = ShriekElement(3, {w: 1 for w in shriek_basis(3)[::5]})
    b = ShriekElement(3, {w: 2 for w in shriek_basis(3)[::3]})
    bilinear_form(a, b)
    assert calls == ["_word_product"] * len(a.coeffs)
    calls.clear()
    gram_matrix(3, 3)
    assert calls == ["_word_product"] * len(shriek_basis_of_degree(3, 3))


def test_gram_matrix_builds_no_element(monkeypatch):
    calls = []
    for name in ("multiply", "bilinear_form"):
        inner = getattr(shriek, name)
        monkeypatch.setattr(shriek, name, lambda *args, inner=inner, name=name: calls.append(name) or inner(*args))
    assert linalg.det(gram_matrix(3, 3)) != 0
    assert calls == []
    shriek.bilinear_form(ShriekElement.one(3), ShriekElement.one(3))  # the wrappers count
    assert calls == ["bilinear_form"]  # the form builds no product either
    shriek.multiply(ShriekElement.one(3), ShriekElement.one(3))
    assert calls == ["bilinear_form", "multiply"]


@pytest.mark.parametrize("n", [1, 2])
def test_gram_invertible_all_degrees(n):
    for j in range(0, 2 * n + 2):
        m = gram_matrix(n, j)
        assert len(m) == len(m[0])  # dimension palindrome
        det = linalg.det(m)
        assert det != 0
        # independent oracle for the determinant
        sdet = sympy.Matrix([[sympy.Rational(v) for v in row] for row in m]).det()
        assert sympy.Rational(det) == sdet


@pytest.mark.parametrize("n", [1, 2])
def test_form_associativity(n):
    words = shriek_basis(n)
    if n == 1:
        triples = itertools.product(words, repeat=3)
    else:
        rng = random.Random(71)
        triples = [(rng.choice(words), rng.choice(words), rng.choice(words)) for _ in range(500)]
    for wa, wb, wc in triples:
        a, b, c = (ShriekElement.word(n, w) for w in (wa, wb, wc))
        assert bilinear_form(multiply(a, b), c) == bilinear_form(a, multiply(b, c))


# -- Nakayama automorphism -----------------------------------------------------------------

def _pairwise_identity_failure(nm):
    """The oracle: two ``bilinear_form`` calls on every basis pair, in basis order."""
    elements = [ShriekElement.word(nm.n, w) for w in shriek_basis(nm.n)]
    for a in elements:
        sigma_a = apply_automorphism(nm, a)
        for b in elements:
            if bilinear_form(sigma_a, b) != bilinear_form(b, a):
                return a, b
    return None


def _wrong_maps(nm):
    """sigma with x1's image scaled by 2, with the images of x1 and d1 swapped, and with z's negated."""
    images = nm.images
    return [
        NakayamaMap(nm.n, dict(images, x1=images["x1"].scaled(2))),
        NakayamaMap(nm.n, dict(images, x1=images["d1"], d1=images["x1"])),
        NakayamaMap(nm.n, dict(images, z=-images["z"])),
    ]


def _solved_nakayama(n):
    """The oracle: solve beta(sigma(y), v) = beta(v, y) on the Gram matrices of degrees (1, 2n) and (2n, 1)."""
    deg1 = shriek_basis_of_degree(n, 1)
    g1 = shriek.gram_matrix(n, 1)
    system = [list(col) for col in zip(*g1)]  # transpose
    solution = solve(system, shriek.gram_matrix(n, 2 * n))  # column jy belongs to deg1[jy]
    assert linalg.det(solution) != 0
    return {
        y.word_str(n): ShriekElement(n, {u: row[jy] for u, row in zip(deg1, solution) if row[jy]})
        for jy, y in enumerate(deg1)
    }


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_nakayama_equals_the_gram_solve(n):
    got = nakayama(n).images
    want = _solved_nakayama(n)
    assert list(got) == list(want)
    assert got == want


def test_nakayama_solves_no_system(monkeypatch):
    calls = []
    for module, name in ((linalg, "_eliminate"), (linalg, "det"), (shriek, "gram_matrix")):
        inner = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, inner=inner, name=name: calls.append(name) or inner(*args))
    nakayama(3)
    assert calls == []
    _solved_nakayama(1)  # the wrappers count
    assert calls == ["gram_matrix", "gram_matrix", "_eliminate", "det", "_eliminate"]  # the solve, then det's own


@pytest.mark.parametrize("n", [1, 2, 3])
def test_nakayama_defining_identity(n):
    nm = nakayama(n)
    assert _pairwise_identity_failure(nm) is None
    assert defining_identity_failure(nm) is None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_row_wise_identity_check_finds_the_pairwise_oracle_witness(n):
    for wrong in _wrong_maps(nakayama(n)):
        found, expected = defining_identity_failure(wrong), _pairwise_identity_failure(wrong)
        assert expected is not None
        assert [str(e) for e in found] == [str(e) for e in expected]


def test_identity_check_reads_each_row_off_the_pairing(monkeypatch):
    nm = nakayama(3)
    calls = []
    for name in ("bilinear_form", "apply_automorphism"):
        inner = getattr(shriek, name)
        monkeypatch.setattr(shriek, name, lambda *args, inner=inner, name=name: calls.append(name) or inner(*args))
    assert defining_identity_failure(nm) is None
    assert calls == ["apply_automorphism"] * len(shriek_basis(3))  # 128 rows, no bilinear_form


@pytest.mark.parametrize("n", [1, 2])
def test_nakayama_z_scalar(n):
    nm = nakayama(n)
    k = nm.z_scalar
    assert k != 0
    zel = ShriekElement.generator(n, z)
    assert apply_automorphism(nm, zel) == zel.scaled(k)


@pytest.mark.parametrize("n", [1, 2])
def test_nakayama_z_free_restriction(n):
    nm = nakayama(n)
    for name, img in nm.images.items():
        if name != "z":
            assert all(w.zflag == 0 for w in img.coeffs)


def test_nakayama_multiplicative_n1_all_pairs():
    nm = nakayama(1)
    words = shriek_basis(1)
    for wa, wb in itertools.product(words, repeat=2):
        a, b = ShriekElement.word(1, wa), ShriekElement.word(1, wb)
        assert apply_automorphism(nm, multiply(a, b)) == multiply(
            apply_automorphism(nm, a), apply_automorphism(nm, b)
        )


def test_nakayama_multiplicative_n2_random():
    nm = nakayama(2)
    rng = random.Random(73)
    words = shriek_basis(2)
    for _ in range(500):
        a, b = random_shriek(rng, 2, words), random_shriek(rng, 2, words)
        assert apply_automorphism(nm, multiply(a, b)) == multiply(
            apply_automorphism(nm, a), apply_automorphism(nm, b)
        )


def test_apply_examples():
    nm = nakayama(1)
    one = ShriekElement.one(1)
    assert apply_automorphism(nm, one) == one
    zel = ShriekElement.generator(1, z)
    k = nm.z_scalar
    assert apply_automorphism(nm, multiply(zel, zel)) == multiply(zel, zel).scaled(k * k)
    top = ShriekElement.word(1, top_word(1))
    img = apply_automorphism(nm, top)
    assert set(img.coeffs) == {top_word(1)}


def test_apply_to_an_exterior_element_is_the_identity():
    # the Nakayama map of B! fixes every generator, so read in C! it fixes every element
    rng = random.Random(5)
    e = ShriekElement(1, {w: rng.randint(-3, 3) for w in shriek_basis(1)}, AlgebraKind.C_SHRIEK)
    assert apply_automorphism(nakayama(1), e) == e


def test_apply_size_mismatch():
    nm = nakayama(1)
    with pytest.raises(SizeMismatch):
        apply_automorphism(nm, ShriekElement.one(2))


def _fold_test_maps(n):
    """nakayama(n), the three wrong maps, and non-diagonal ones: x1 -> x1 + d1, z -> z + x1/2, and the first read from C!."""
    nm = nakayama(n)
    images = nm.images
    skew = NakayamaMap(n, dict(images, x1=images["x1"] + images["d1"]))
    return [
        nm,
        *_wrong_maps(nm),
        skew,
        NakayamaMap(n, dict(images, z=images["z"] + images["x1"].scaled(Fraction(1, 2)))),
        NakayamaMap(n, {name: ShriekElement(n, img.coeffs, AlgebraKind.C_SHRIEK) for name, img in skew.images.items()}),
    ]


@pytest.mark.parametrize("kind", [AlgebraKind.B_SHRIEK, AlgebraKind.C_SHRIEK], ids=["B!", "C!"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_apply_automorphism_equals_the_element_by_element_oracle(n, kind):
    rng = random.Random(f"fold:{n}:{kind.value}")
    words = shriek_basis(n)
    elements = [ShriekElement(n, {}, kind)] + [ShriekElement.word(n, w, 1, kind) for w in words]
    for den in (1, 2, 3):
        for _ in range(12):
            terms = rng.sample(words, rng.randint(1, min(8, len(words))))
            elements.append(ShriekElement(n, {w: Fraction(rng.randint(-5, 5), den) for w in terms}, kind))
    for m in _fold_test_maps(n):
        for e in elements:
            got, want = apply_automorphism(m, e), oracle_apply_automorphism(m, e)
            assert got == want
            assert {w: type(c) for w, c in got.coeffs.items()} == {w: type(c) for w, c in want.coeffs.items()}


def test_apply_automorphism_multiplies_no_element_and_names_no_generator(monkeypatch):
    nm = nakayama(3)  # the map indexes its images by rank here
    skew = NakayamaMap(3, dict(nm.images, x1=nm.images["x1"] + nm.images["d1"]))
    calls = []
    for name in ("multiply", "rank_generator"):
        inner = getattr(shriek, name)
        monkeypatch.setattr(shriek, name, lambda *args, inner=inner, name=name: calls.append(name) or inner(*args))
    rng = random.Random(11)
    e = ShriekElement(3, {w: rng.randint(1, 3) for w in rng.sample(shriek_basis(3), 16)})
    assert apply_automorphism(nm, e) == e
    apply_automorphism(skew, e)
    assert calls == []
    oracle_apply_automorphism(nm, ShriekElement.word(3, top_word(3)))  # the wrappers count
    assert calls.count("multiply") == 7 and calls.count("rank_generator") == 7


def test_nakayama_map_refuses_a_missing_or_extra_name():
    images = nakayama(2).images
    missing = {name: img for name, img in images.items() if name != "d2"}
    with pytest.raises(ValueError, match=r"missing \['d2'\], extra \[\]"):
        NakayamaMap(2, missing)
    with pytest.raises(ValueError, match=r"missing \[\], extra \['x3'\]"):
        NakayamaMap(2, dict(images, x3=images["x1"]))


def test_nakayama_map_refuses_an_image_of_another_n():
    images = nakayama(1).images
    with pytest.raises(SizeMismatch, match="image of x1 has n=2"):
        NakayamaMap(1, dict(images, x1=ShriekElement.generator(2, x1)))


def test_rank_generator_roundtrip():
    for n in (1, 2, 3):
        for r in range(2 * n + 1):
            g = rank_generator(r, n)
            assert g.rank(n) == r


@pytest.mark.parametrize("n", [1, 2, 3])
def test_one_generator_order(n):
    # x_1..x_n, d_1..d_n, z: the PBW words, the shriek words and the relation grid all read it
    from weylkit import generators
    from weylkit.quadratic import generator_names

    assert rank_generator is generators.rank_generator
    order = [(Generator.x(i), i - 1) for i in range(1, n + 1)]
    order += [(Generator.d(i), n + i - 1) for i in range(1, n + 1)]
    order.append((z, 2 * n))
    for g, r in order:
        assert g.rank(n) == r
        assert rank_generator(r, n) == g
        (word,) = ShriekElement.generator(n, g).coeffs
        assert word.ranks(n) == (r,)
        assert generator_names(n)[r] == str(g)
