"""The finite-dimensional Koszul duals of the homogenized algebra.

Elements live in the 2^(2n+1)-dimensional span of square-free words

    x_{i_1} .. x_{i_s} d_{j_1} .. d_{j_t} z^(0 or 1)

with ascending indices and z rightmost.  Two algebra structures share this
carrier, selected by :class:`AlgebraKind`:

* ``B!`` -- distinct generators anticommute, x_i^2 = d_i^2 = 0, and
  z^2 = -(x_1 d_1 + .. + x_n d_n);
* ``C!`` -- the exterior algebra on all 2n+1 generators (z^2 = 0).

Rewriting a word sorts it by adjacent transpositions, each costing a sign,
kills repeated x/d generators, and substitutes doubled z's.  The z-count
of a word drops by two at every z^2 step and the inversion count drops at
every swap, so any redex order terminates; confluence is checked by test.
``reduce_expression`` is that literal route.  A word stores its x/d
letters as one bitmask, the letter of rank r (``Generator.rank``) at bit
r, and z as a flag.  ``multiply`` reads the product of two basis words
off them instead: zero if they share an x or d letter; else the merged
word, with one sign per pair of letters the merge swaps and per x/d
letter of the right word that a z of the left word passes.  Two z's then
give 0 in C!, and in B! -(x_i d_i) for each i that neither word uses, x_i
and d_i each passing the letters ranked above them.  The tests check this
against rewriting on every word pair, n <= 3.

The basis lists words by degree, then by ascending ranks, as
``itertools.combinations`` yields them; each degree is built once and
cached (``shriek_basis_of_degree`` gives the bound), and
``ShriekElement.of_basis`` builds elements on basis words with no word
check.  The z-free words form a subalgebra
(the exterior algebra on the x and d generators) and the words with z span
its complementary free rank-one piece; ``decompose`` splits along that
direct sum.  The Frobenius form beta(a, b) is the coefficient of the top
word x_1..x_n d_1..d_n z in a*b.  A word product u*v reaches it only when u
and v share no x or d letter, together hold all of them, and just one holds
z; so u pairs only with its complement (the letters u lacks), by the sign
of their one-term product, alike in B! and C!.  ``nakayama`` reads the
automorphism sigma measuring beta's asymmetry, beta(sigma(y), -) = beta(-, y),
off the same pairing; the tests keep the Gram solve as its oracle.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from .errors import KindMismatch, SizeMismatch
from .generators import AlgebraKind, FreeExpression, Generator, Rational, SparseElement, rank_generator


@dataclass(frozen=True)
class ShriekWord:
    """A square-free basis word: its x/d letters, the one of rank r at bit r, and a z flag."""

    letters: int
    zflag: int

    def __hash__(self) -> int:
        # total, so that a malformed word reaches ShriekElement's key check
        letters = self.letters
        try:
            big = letters >> 60
        except TypeError:  # not an int
            return hash((letters, self.zflag))
        if big:  # a mask of 2^60 or more, or a negative one
            # Python hashes an int modulo 2^61 - 1, so the letters of ranks r and r+61 would collide
            signed = letters < 0
            letters = letters.to_bytes((letters.bit_length() + 7 + signed) // 8, "little", signed=signed)
        return hash((letters, self.zflag))

    @property
    def degree(self) -> int:
        return self.letters.bit_count() + self.zflag

    def ranks(self, n: int) -> tuple[int, ...]:
        letters = self.letters | self.zflag << 2 * n
        return tuple(r for r in range(2 * n + 1) if letters >> r & 1)

    def term_key(self, n: int):
        # leading terms first, matching the PBW element term order
        return (-self.degree, self.ranks(n))

    def word_str(self, n: int) -> str:
        ranks = self.ranks(n)
        if not ranks:
            return "1"
        return "*".join(str(rank_generator(r, n)) for r in ranks)

    def json_fields(self, n: int) -> dict:
        return {
            "z": self.zflag,
            "x": [self.letters >> i & 1 for i in range(n)],
            "d": [self.letters >> i & 1 for i in range(n, 2 * n)],
        }


def _ranks_to_word(ranks: Iterable[int], n: int) -> ShriekWord:
    letters = sum(1 << r for r in ranks)  # the ranks are distinct
    return ShriekWord(letters & (1 << 2 * n) - 1, letters >> 2 * n)


class ShriekElement(SparseElement):
    """Sparse rational combination of shriek basis words; immutable.

    The arithmetic and equality come from
    :class:`weylkit.generators.SparseElement`.
    """

    __slots__ = ()

    def __init__(self, n: int, coeffs: dict[ShriekWord, Rational] | None = None,
                 kind: AlgebraKind = AlgebraKind.B_SHRIEK):
        _check_kind(kind)
        SparseElement.__init__(self, kind, n, coeffs)

    def _check_keys(self, keys) -> None:
        for w in keys:
            if not isinstance(w, ShriekWord):
                raise TypeError(f"{w!r} is not a ShriekWord")
            if not (type(w.letters) is int and w.letters >= 0 and type(w.zflag) is int and w.zflag in (0, 1)):
                raise ValueError(f"{w!r} needs a nonnegative int letter mask and a z flag of 0 or 1")
            if w.letters >> 2 * self.n:
                raise SizeMismatch(f"word {w} does not fit n={self.n}")

    @staticmethod
    def of_basis(n: int, coeffs: dict[ShriekWord, Rational],
                 kind: AlgebraKind = AlgebraKind.B_SHRIEK) -> "ShriekElement":
        """An element on words of ``shriek_basis(n)``, valid by construction: only the kind is checked."""
        _check_kind(kind)
        out = object.__new__(ShriekElement)
        out._fill(kind, n, coeffs)
        return out

    @staticmethod
    def one(n: int, kind: AlgebraKind = AlgebraKind.B_SHRIEK) -> "ShriekElement":
        return ShriekElement.of_basis(n, {ShriekWord(0, 0): 1}, kind)

    @staticmethod
    def word(n: int, w: ShriekWord, coeff: Rational = 1,
             kind: AlgebraKind = AlgebraKind.B_SHRIEK) -> "ShriekElement":
        return ShriekElement(n, {w: coeff}, kind)

    @staticmethod
    def generator(n: int, g: Generator, kind: AlgebraKind = AlgebraKind.B_SHRIEK) -> "ShriekElement":
        g.check(n, kind)
        return ShriekElement.of_basis(n, {_ranks_to_word([g.rank(n)], n): 1}, kind)

    def _times(self, other: "ShriekElement") -> "ShriekElement":
        return multiply(self, other)

    def _one(self) -> "ShriekElement":
        return ShriekElement.one(self.n, self.kind)


# -- basis enumeration ---------------------------------------------------------

def _check_kind(kind: AlgebraKind) -> None:
    if kind not in (AlgebraKind.B_SHRIEK, AlgebraKind.C_SHRIEK):
        raise KindMismatch(f"shriek engine handles kinds B! and C!, got {kind.value}")


def _check_ints(n: int, j: int = 0) -> None:
    if not (isinstance(n, int) and isinstance(j, int)):
        raise TypeError(f"the pair count and degree must be ints, got {n!r} and {j!r}")
    if n < 0:
        raise ValueError(f"the pair count must be nonnegative, got {n}")


def shriek_basis(n: int) -> list[ShriekWord]:
    """All 2^(2n+1) basis words, by degree and then by ascending rank tuple; a fresh list of the cached degrees."""
    _check_ints(n)
    return [w for j in range(2 * n + 2) for w in _graded_words(n, j)[0]]


def shriek_basis_of_degree(n: int, j: int) -> list[ShriekWord]:
    """The degree-j words, in basis order; none when j < 0 or j > 2n+1.

    Each (n, j) is built once, with its {word: position} index, and kept in
    a cache of the 64 latest keys; the largest a repo caller builds,
    (4, 4), has 126 words and takes about 0.02 MB.  Every call returns a
    fresh list, which the caller may change.  A non-int n or j raises
    TypeError, a negative n ValueError.

    >>> [w.word_str(1) for w in shriek_basis_of_degree(1, 2)]
    ['x1*d1', 'x1*z', 'd1*z']
    """
    _check_ints(n, j)
    return list(_graded_words(n, j)[0])


@functools.lru_cache(maxsize=64)
def _graded_words(n: int, j: int) -> tuple[tuple[ShriekWord, ...], dict[ShriekWord, int]]:
    """The degree-j words, which ``combinations`` lists in order, and each one's position; never changed."""
    if j < 0:
        return (), {}  # combinations refuses a negative length
    words = tuple(_ranks_to_word(ranks, n) for ranks in combinations(range(2 * n + 1), j))
    return words, {w: i for i, w in enumerate(words)}


def degree_dimensions(n: int, kind: AlgebraKind = AlgebraKind.B_SHRIEK) -> list[int]:
    """Per-degree dimensions.  For B!: C(2n,j) + C(2n,j-1); for C!: C(2n+1,j).

    A non-int n raises TypeError, a negative one ValueError.
    """
    _check_kind(kind)
    _check_ints(n)
    if kind is AlgebraKind.C_SHRIEK:
        return [comb(2 * n + 1, j) for j in range(2 * n + 2)]
    return [comb(2 * n, j) + (comb(2 * n, j - 1) if j >= 1 else 0) for j in range(2 * n + 2)]


# -- word reduction ------------------------------------------------------------

def _reduce_rank_words(
    terms: dict[tuple[int, ...], Rational],
    n: int,
    kind: AlgebraKind,
    rng: random.Random | None = None,
) -> dict[ShriekWord, Rational]:
    # the map may hold zero coefficients; callers drop them
    z_rank = 2 * n
    out: dict[ShriekWord, Rational] = {}
    pending = dict(terms)
    while pending:
        ranks, coeff = pending.popitem()
        if coeff == 0:
            continue
        redexes = [i for i in range(len(ranks) - 1) if ranks[i] >= ranks[i + 1]]
        if not redexes:
            w = _ranks_to_word(ranks, n)
            out[w] = out.get(w, 0) + coeff
            continue
        pos = redexes[0] if rng is None else rng.choice(redexes)
        a, b = ranks[pos], ranks[pos + 1]
        if a > b:
            swapped = ranks[:pos] + (b, a) + ranks[pos + 2 :]
            pending[swapped] = pending.get(swapped, 0) - coeff
        elif a == z_rank:
            # z z -> -(x_1 d_1 + .. + x_n d_n) in B!; 0 in C!
            if kind is AlgebraKind.B_SHRIEK:
                for i in range(n):
                    sub = ranks[:pos] + (i, n + i) + ranks[pos + 2 :]
                    pending[sub] = pending.get(sub, 0) - coeff
        # equal non-z generators: the term dies
    return out


def reduce_word(
    word: Sequence[Generator],
    n: int,
    kind: AlgebraKind = AlgebraKind.B_SHRIEK,
    rng: random.Random | None = None,
) -> ShriekElement:
    """Canonical form of one free word.

    >>> str(reduce_word([Generator.z(), Generator.z()], 1))
    '-x1*d1'
    """
    return reduce_expression(FreeExpression.from_terms(n, [(1, word)]), kind, rng)


def reduce_expression(
    expr: FreeExpression,
    kind: AlgebraKind = AlgebraKind.B_SHRIEK,
    rng: random.Random | None = None,
) -> ShriekElement:
    """Reduce a parsed free expression into the shriek algebra."""
    n = expr.n  # rank_terms checks every generator, so the reduced words are basis words
    return ShriekElement.of_basis(n, _reduce_rank_words(expr.rank_terms(kind), n, kind, rng), kind)


def _word_product(u: ShriekWord, v: ShriekWord, kind: AlgebraKind, n: int):
    """The (word, sign) terms of u*v, in the closed form of the module docstring."""
    left, right = u.letters, v.letters
    if left & right:
        return ()
    flips = right.bit_count() if u.zflag else 0
    rest = right
    while rest:
        low = rest & -rest
        flips += (left & -low).bit_count()  # the letters of u ranked above this one
        rest ^= low
    merged = left | right
    sign = -1 if flips & 1 else 1
    if not (u.zflag and v.zflag):
        return ((ShriekWord(merged, u.zflag | v.zflag), sign),)
    if kind is AlgebraKind.C_SHRIEK:
        return ()
    return tuple(
        (ShriekWord(merged | 1 << i | 1 << n + i, 0),
         -sign * (-1) ** ((merged >> i).bit_count() + (merged >> n + i).bit_count()))
        for i in reversed(range(n))  # in the order rewriting lists them
        if not (merged >> i | merged >> n + i) & 1
    )


def multiply(a: ShriekElement, b: ShriekElement) -> ShriekElement:
    """Bilinear extension of word concatenation followed by reduction."""
    return a._bilinear(b, _word_product)


def product_size(a: ShriekElement, b: ShriekElement, cap: int) -> tuple[int, int]:
    """(terms, exchange bits) of ``a * b``, the terms counted until they pass ``cap``.

    A word pair counts one, as the product visits it; two z-words of B! that
    share no x or d letter count the indices neither uses, at least one, as
    z^2 = -(x_1 d_1 + .. + x_n d_n).  Coefficients are signs: 0 exchange bits.
    """
    a._check_compatible(b)
    terms, n, z_squares = 0, a.n, a.kind is AlgebraKind.B_SHRIEK  # z^2 = 0 in C!
    for u in a.coeffs:
        for v in b.coeffs:
            if z_squares and u.zflag and v.zflag and not u.letters & v.letters:
                merged = u.letters | v.letters  # x_i or d_i is in u or v iff bit i of merged | merged >> n
                terms += max(1, n - ((merged | merged >> n) & (1 << n) - 1).bit_count())
            else:
                terms += 1
            if terms > cap:
                return terms, 0
    return terms, 0


# -- the direct-sum decomposition ----------------------------------------------

def decompose(e: ShriekElement) -> tuple[ShriekElement, ShriekElement]:
    """Split into (z-free part, z part); the two parts sum back to ``e``.

    The z-free words form a subalgebra (exterior algebra on x's and d's)
    and the z words are its image under left multiplication by z.  Both
    parts are built by ``_like``: their words are e's, already checked.
    """
    cpart = {w: c for w, c in e.coeffs.items() if w.zflag == 0}
    zpart = {w: c for w, c in e.coeffs.items() if w.zflag == 1}
    return e._like(cpart), e._like(zpart)


# -- Frobenius structure ---------------------------------------------------------

def top_word(n: int) -> ShriekWord:
    return ShriekWord((1 << 2 * n) - 1, 1)


def frobenius_functional(e: ShriekElement) -> Rational:
    """Coefficient of the top word x_1..x_n d_1..d_n z."""
    return e.coeffs.get(top_word(e.n), 0)


def _partner(u: ShriekWord, n: int) -> tuple[ShriekWord, int]:
    """(the complement of u, beta(u, complement)): the one word u pairs with, and how."""
    partner = ShriekWord(u.letters ^ (1 << 2 * n) - 1, u.zflag ^ 1)
    ((_, sign),) = _word_product(u, partner, AlgebraKind.B_SHRIEK, n)  # one z: one term
    return partner, sign


def bilinear_form(a: ShriekElement, b: ShriekElement) -> Rational:
    """beta(a, b), the top coefficient of a*b: each word of a meets only its partner in b."""
    a._check_compatible(b)
    total = 0
    for u, c in a.coeffs.items():
        partner, sign = _partner(u, a.n)
        if partner in b.coeffs:
            total += sign * c * b.coeffs[partner]
    return total


def gram_matrix(n: int, j: int) -> list[list[Rational]]:
    """[beta(u_i, v_k)] over the degree-(j, 2n+1-j) basis pair: one signed entry per row."""
    if not 0 <= j <= 2 * n + 1:
        raise ValueError(f"degree {j} out of range 0..{2 * n + 1}")
    rows = shriek_basis_of_degree(n, j)  # checks n and j, which then key the cached column index
    cols = _graded_words(n, 2 * n + 1 - j)[1]
    gram = [[0] * len(cols) for _ in rows]
    for row, u in zip(gram, rows):
        partner, sign = _partner(u, n)
        row[cols[partner]] = sign
    return gram


@dataclass(frozen=True)
class NakayamaMap:
    """Images of the degree-1 generators under the Nakayama automorphism.

    ``images`` names one image per generator of n, each of pair count n and
    homogeneous of degree 1 (or zero); construction refuses a missing or
    extra name with ValueError and a wrong n with SizeMismatch.  It also
    keeps each image's (word, coefficient) pairs in a table indexed by rank,
    which ``apply_automorphism`` reads; equality and ``repr`` ignore it.
    """

    n: int
    images: dict[str, ShriekElement]
    _by_rank: tuple[tuple[tuple[ShriekWord, Rational], ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = [str(rank_generator(r, self.n)) for r in range(2 * self.n + 1)]
        missing = [name for name in names if name not in self.images]
        extra = [name for name in self.images if name not in names]
        if missing or extra:
            raise ValueError(f"images must name each generator of n={self.n}: missing {missing}, extra {extra}")
        for name, img in self.images.items():
            if img.n != self.n:
                raise SizeMismatch(f"image of {name} has n={img.n}, map is for n={self.n}")
            if img.degrees() not in (set(), {1}):
                raise ValueError(f"image of {name} is not homogeneous of degree 1")
        object.__setattr__(self, "_by_rank", tuple(tuple(self.images[name].coeffs.items()) for name in names))

    def image_of(self, g: Generator) -> ShriekElement:
        return self.images[str(g)]

    @property
    def z_scalar(self) -> Rational:
        """The k with sigma(z) = k z; raises if the image is not a z multiple."""
        img = self.images["z"]
        zword = _ranks_to_word([2 * self.n], self.n)
        if set(img.coeffs) != {zword}:
            raise ValueError("sigma(z) is not a scalar multiple of z")
        return img.coeffs[zword]


def nakayama(n: int) -> NakayamaMap:
    """The automorphism with beta(sigma(y), x) = beta(x, y), read off the complement pairing.

    Write s(u) = beta(u, ubar), the sign ``_partner`` gives u and its
    complement ubar.  For a degree-1 generator y, beta(-, y) is nonzero only
    at ybar, where it is s(ybar).  A degree-1 word u pairs only with ubar, so
    for sigma(y) = sum c_u u, beta(sigma(y), ubar) = c_u s(u).  Matching the
    two at every ubar gives c_u = 0 for u != y and c_y = s(y) s(ybar).  So
    sigma(y) = s(y) s(ybar) y is the only solution; no system is solved.
    """
    images = {}
    for y in shriek_basis_of_degree(n, 1):
        ybar, sign = _partner(y, n)
        images[y.word_str(n)] = ShriekElement.of_basis(n, {y: sign * _partner(ybar, n)[1]})
    return NakayamaMap(n, images)


def apply_automorphism(m: NakayamaMap, e: ShriekElement) -> ShriekElement:
    """Multiplicative-linear extension of the generator images.

    Each word c*w is folded on coefficient maps: starting from {1: c}, the
    map is multiplied by the image of each letter of w in turn, term by
    term through ``_word_product`` in e's kind (an image of the other kind
    is read in e's).  Every word's image is summed into one map, and one
    element is built at the end.
    """
    if m.n != e.n:
        raise SizeMismatch(f"map is for n={m.n}, element has n={e.n}")
    n, kind, images = e.n, e.kind, m._by_rank
    out: dict[ShriekWord, Rational] = {}
    for w, c in e.coeffs.items():
        img = {ShriekWord(0, 0): c}
        for r in w.ranks(n):
            folded: dict[ShriekWord, Rational] = {}
            for u, cu in img.items():
                for v, cv in images[r]:
                    for x, k in _word_product(u, v, kind, n):
                        folded[x] = folded.get(x, 0) + cu * cv * k
            img = folded
        for x, cx in img.items():
            out[x] = out.get(x, 0) + cx
    return e._like(out)


def defining_identity_failure(nm: NakayamaMap) -> tuple[ShriekElement, ShriekElement] | None:
    """The first basis pair (y, x) with beta(sigma(y), x) != beta(x, y), or None.

    Checks every pair, in basis order, one row y at a time: beta(sigma(y), -)
    is nonzero only at the partners of the words of sigma(y), and beta(-, y)
    only at the complement of y, so a row costs one ``apply_automorphism``
    and no ``bilinear_form``.
    """
    n = nm.n
    for y in shriek_basis(n):
        left = {}  # x -> beta(sigma(y), x)
        for u, c in apply_automorphism(nm, ShriekElement.of_basis(n, {y: 1})).coeffs.items():
            partner, sign = _partner(u, n)
            left[partner] = sign * c
        ybar, _ = _partner(y, n)
        right = {ybar: _partner(ybar, n)[1]}  # x -> beta(x, y)
        wrong = [x for x in left.keys() | right.keys() if left.get(x, 0) != right.get(x, 0)]
        if wrong:  # the first in basis order: by degree, then by position in the degree
            x = min(wrong, key=lambda w: (w.degree, _graded_words(n, w.degree)[1][w]))
            return ShriekElement.of_basis(n, {y: 1}), ShriekElement.of_basis(n, {x: 1})
    return None


def form_failure(n: int) -> ShriekElement | None:
    """The first basis word u with beta(u, ubar) != the top coefficient of u*ubar, or None.

    ubar, the word of the letters u lacks, is the one word u pairs with:
    one element product per word.  Both sides read ``_word_product(u, ubar)``,
    so this checks ``_bilinear`` and ``top_word``, not the word product.
    """
    top = top_word(n)
    for w in shriek_basis(n):
        u = ShriekElement.of_basis(n, {w: 1})
        ubar = ShriekElement.of_basis(n, {ShriekWord(top.letters ^ w.letters, w.zflag ^ 1): 1})
        if frobenius_functional(multiply(u, ubar)) != bilinear_form(u, ubar):
            return u
    return None
