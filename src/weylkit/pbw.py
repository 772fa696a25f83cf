"""Exact arithmetic in the homogenized Weyl algebra and its relatives.

Three algebras share one engine, selected by :class:`AlgebraKind`:

* ``B`` -- generators z, x_1..x_n, d_1..d_n with d_i x_i = x_i d_i + z^2,
  all other pairs commuting, z central.  Graded, all generators degree 1.
* ``A`` -- the Weyl algebra: same but d_i x_i = x_i d_i + 1 and no z.
* ``C`` -- the commutative polynomial algebra on all 2n+1 generators.

Every element has a unique normal form as a rational combination of
ordered monomials z^i x^P d^Q, which rewriting reads as the word
x^P d^Q z^i (the same monomial, z being central).  ``normal_form``
reaches it by literal term rewriting on free words (the rule set below);
``multiply`` uses the closed-form exchange identity

    d_i^q x_i^r = sum_k k! C(q,k) C(r,k) c^k x_i^(r-k) d_i^(q-k)

with c = z^2 resp. 1, which the rewriting rules generate.  The two routes
are checked against each other in the test suite.  The product packs each
monomial into one int, a fixed-width field per x and d exponent with z
above them, so a term pair whose left d's meet no right x's costs one int
addition, and each exchange moves the sum's key by a multiple of one step
(see ``_packed_term_pairs``).

Rewriting rules (applied to adjacent generator pairs):

    d_j x_i -> x_i d_j            (i != j)
    d_i x_i -> x_i d_i + z^2      (kind B, z^2 written last;  + 1 for kind A)
    x_j x_i -> x_i x_j            (j > i)
    d_j d_i -> d_i d_j            (j > i)
    z g     -> g z                (every generator g)

Kind C sorts all pairs commutatively.  Every step lowers the word's
inversion count, and pending words are rewritten in decreasing order of
it, so like words merge before they are reduced and each distinct word
is reduced once.  Each word's redexes are listed, as ``shriek`` lists
them, and the leftmost is rewritten; passing an ``rng`` picks one at
random, which the confluence tests exercise.

``basis_of_degree`` builds each graded piece once and caches it (its
docstring gives the bound); callers get copies, and ``centralizer_in_degree``
reads the center off them with no product.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import random
from bisect import bisect_right
from collections import Counter
from typing import NamedTuple, Sequence

from .errors import (
    IllegalGenerator,
    KindMismatch,
    NotDivisible,
    SizeMismatch,
    ZeroElement,
)
from .generators import AlgebraKind, FreeExpression, Generator, Rational, SparseElement, check_pair_count


class PBWMonomial(NamedTuple):
    """One basis monomial z^zexp x^xexps d^dexps.

    A named tuple: it equals, and hashes as, the plain tuple
    ``(zexp, xexps, dexps)``, so dict lookups in the product loop hash in C.
    """

    zexp: int
    xexps: tuple[int, ...]
    dexps: tuple[int, ...]

    @property
    def degree(self) -> int:
        """Graded degree: every generator counts 1."""
        return self.zexp + sum(self.xexps) + sum(self.dexps)

    @property
    def partial(self) -> int:
        """The d-filtration degree: total x,d exponent; z counts 0."""
        return sum(self.xexps) + sum(self.dexps)

    def term_key(self, n: int):
        # Term order inside an element, and basis order inside a degree:
        # leading (highest-degree) terms first, so x1*d1 + 1 rather than
        # 1 + x1*d1; then ascending z exponent (so within a homogeneous
        # degree the terms of highest partial degree come first, the way
        # x1^2*d1 + 2*z^2*x1 is normally written), then leading x- and
        # d-exponents first.  The exponent tuples fix the pair count, so n
        # (taken to match ShriekWord) is unused here and in the next two
        # methods.
        return (
            -self.degree,
            self.zexp,
            tuple(-e for e in self.xexps),
            tuple(-e for e in self.dexps),
        )

    def __str__(self) -> str:
        parts = []
        if self.zexp == 1:
            parts.append("z")
        elif self.zexp > 1:
            parts.append(f"z^{self.zexp}")
        for fam, exps in (("x", self.xexps), ("d", self.dexps)):
            for i, e in enumerate(exps, start=1):
                if e == 1:
                    parts.append(f"{fam}{i}")
                elif e > 1:
                    parts.append(f"{fam}{i}^{e}")
        return "*".join(parts) if parts else "1"

    def word_str(self, n: int) -> str:
        return str(self)

    def json_fields(self, n: int) -> dict:
        return {"z": self.zexp, "x": list(self.xexps), "d": list(self.dexps)}


_KINDS = (AlgebraKind.A, AlgebraKind.B, AlgebraKind.C)  # looked up once, as in shriek


def _check_kind(kind: AlgebraKind) -> None:
    if kind not in _KINDS:
        raise KindMismatch(f"PBW engine handles kinds A, B, C; got {kind.value}")


class AlgebraElement(SparseElement):
    """A canonical element: sparse map from PBW monomials to nonzero rationals.

    Immutable; the arithmetic and equality come from
    :class:`weylkit.generators.SparseElement`.
    """

    __slots__ = ()

    _check_kind = staticmethod(_check_kind)

    def _check_keys(self, keys) -> None:
        n, weyl = self.n, self.kind is AlgebraKind.A
        for m in keys:
            if not isinstance(m, PBWMonomial):
                raise TypeError(f"{m!r} is not a PBWMonomial")
            if len(m.xexps) != n or len(m.dexps) != n:
                raise SizeMismatch(f"monomial {m} has wrong arity for n={n}")
            if not all(type(e) is int and e >= 0 for e in (m.zexp, *m.xexps, *m.dexps)):
                raise ValueError(f"{m!r} has an exponent that is not a nonnegative int")
            if weyl and m.zexp != 0:
                raise IllegalGenerator("z exponent in a Weyl-algebra element")

    # -- construction helpers ------------------------------------------------

    @staticmethod
    def one(kind: AlgebraKind, n: int) -> "AlgebraElement":
        check_pair_count(n)
        return AlgebraElement._unchecked(kind, n, {_ranks_to_monomial((), n): 1})

    @staticmethod
    def monomial(kind: AlgebraKind, n: int, m: PBWMonomial) -> "AlgebraElement":
        return AlgebraElement(kind, n, {m: 1})

    @staticmethod
    def generator(kind: AlgebraKind, n: int, g: Generator) -> "AlgebraElement":
        check_pair_count(n)
        g.check(n, kind)
        return AlgebraElement._unchecked(kind, n, {_ranks_to_monomial((g.rank(n),), n): 1})

    # -- arithmetic ----------------------------------------------------------

    def _times(self, other: "AlgebraElement") -> "AlgebraElement":
        return multiply(self, other)

    def _term_pairs(self, left, right) -> dict:
        return _packed_term_pairs(left, right, self.kind, self.n)

    def _one(self) -> "AlgebraElement":
        return AlgebraElement.one(self.kind, self.n)


# -- the rewriting kernel ----------------------------------------------------
#
# Words are tuples of generator ranks (``Generator.rank``: x_i -> i-1,
# d_i -> n+i-1, z -> 2n), so a word is canonical iff its ranks are
# nondecreasing.

def _redexes(ranks: tuple[int, ...]) -> list[int]:
    """The positions of the descents of ``ranks``, left to right."""
    return [i for i in range(len(ranks) - 1) if ranks[i] > ranks[i + 1]]


def _ranks_to_monomial(ranks: tuple[int, ...], n: int) -> PBWMonomial:
    ze = 0
    xe = [0] * n
    de = [0] * n
    for r in ranks:
        if r < n:
            xe[r] += 1
        elif r < 2 * n:
            de[r - n] += 1
        else:
            ze += 1
    return PBWMonomial(ze, tuple(xe), tuple(de))


def _inversions(ranks: tuple[int, ...]) -> int:
    """The inversion count: pairs of letters whose ranks stand in decreasing order."""
    seen: list[int] = []  # the ranks read so far, sorted
    inversions = 0
    for r in ranks:
        k = bisect_right(seen, r)  # seen ranks <= r; each larger one is an inversion
        inversions += len(seen) - k
        seen.insert(k, r)
    return inversions


def _reduce_rank_words(
    terms: dict[tuple[int, ...], Rational],
    kind: AlgebraKind,
    n: int,
    rng: random.Random | None = None,
) -> dict[PBWMonomial, Rational]:
    """Rewrite coefficient-carrying rank words to the canonical monomial map.

    The map may hold zero coefficients; the element constructor drops them.

    Terminates for any redex order, because every produced word has a
    smaller inversion count: a swap lowers it by one, and the correction of
    d_i x_i drops the pair, with its inversions, and writes z, the largest
    rank, last, where it makes none (kind A writes nothing).

    Pending words are popped largest count first.  Every word that can feed
    a word w has a larger count, so w is popped only after all its
    contributions have merged into it, and each distinct word is reduced
    exactly once.
    """
    out: dict[PBWMonomial, Rational] = {}
    pending: dict[tuple[int, ...], Rational] = {}
    heap: list[tuple[int, tuple[int, ...]]] = []  # (-inversions, word): a min-heap
    z_squared = (2 * n, 2 * n) if kind is AlgebraKind.B else ()

    def add(ranks, coeff, inversions):
        if ranks in pending:
            pending[ranks] += coeff
        else:
            pending[ranks] = coeff
            heapq.heappush(heap, (-inversions, ranks))

    for ranks, coeff in terms.items():
        add(ranks, coeff, _inversions(ranks))
    while heap:
        negated, ranks = heapq.heappop(heap)
        coeff = pending.pop(ranks)
        if coeff == 0:
            continue
        redexes = _redexes(ranks)
        if not redexes:
            m = _ranks_to_monomial(ranks, n)
            out[m] = out.get(m, 0) + coeff
            continue
        pos = redexes[0] if rng is None else rng.choice(redexes)
        a, b = ranks[pos], ranks[pos + 1]
        add(ranks[:pos] + (b, a) + ranks[pos + 2 :], coeff, -negated - 1)
        if kind is not AlgebraKind.C and a < 2 * n and a - n == b:
            # d_i x_i: correction z^2 (kind B), written last as z is central, or 1 (kind A)
            corr = ranks[:pos] + ranks[pos + 2 :] + z_squared
            add(corr, coeff, _inversions(corr))
    return out


def normal_form(
    expr: FreeExpression,
    kind: AlgebraKind,
    rng: random.Random | None = None,
) -> AlgebraElement:
    """Reduce a free expression to its unique PBW-canonical element.

    >>> from weylkit.expressions import parse
    >>> str(normal_form(parse("d1*x1", 1, AlgebraKind.B), AlgebraKind.B))
    'x1*d1 + z^2'
    """
    n = expr.n  # rank_terms checks every generator, so the reduced words are basis monomials
    return AlgebraElement._unchecked(kind, n, _reduce_rank_words(expr.rank_terms(kind), kind, n, rng))


def word_normal_form(
    word: Sequence[Generator],
    kind: AlgebraKind,
    n: int,
    rng: random.Random | None = None,
) -> AlgebraElement:
    """Normal form of a single free word."""
    return normal_form(FreeExpression.from_terms(n, [(1, word)]), kind, rng)


# -- closed-form multiplication ---------------------------------------------

_NONZERO = bytes([0] + [1] * 255)  # a byte table: 1 for every nonzero byte


def _packed(terms, size: int, n: int, d_side: bool, exchanges: bool) -> list:
    """(key, coefficient, mask, exponents) for each (monomial, coefficient) of ``terms``.

    The key packs the monomial into one int.  Field r, ``size`` bytes from
    the lowest, holds the exponent of the generator of rank r: x_1..x_n
    come first, then d_1..d_n (``Generator.rank``).  The z exponent stands
    above them, with no width of its own.  The exponents are the d
    exponents (``d_side``) or else the x exponents, and the mask has bit 8i
    set where the one at index i is nonzero, or is 0 when no exchange can
    happen.  One-byte fields go through ``bytes`` in C; wider ones, met only
    past exponent 255, are shifted in one by one.
    """
    out = []
    width, z_shift = 8 * size, 16 * size * n
    for m, c in terms:
        key, exps = m.zexp << z_shift, m.dexps if d_side else m.xexps
        if size == 1:
            key += int.from_bytes(bytes((*m.xexps, *m.dexps)), "little")
        else:
            for r, e in enumerate((*m.xexps, *m.dexps)):
                if e:
                    key += e << width * r
        if not exchanges:
            mask = 0
        elif size == 1:
            mask = int.from_bytes(bytes(exps).translate(_NONZERO), "little")
        else:
            mask = int.from_bytes(bytes(map(bool, exps)), "little")
        out.append((key, c, mask, exps))
    return out


def _unpack(key: int, n: int, size: int) -> PBWMonomial:
    """The monomial whose key ``_packed`` made."""
    z_shift = 16 * size * n
    if size == 1:
        e = (key & (1 << z_shift) - 1).to_bytes(2 * n, "little")
    else:
        width = 8 * size
        ones = (1 << width) - 1
        e = [key >> width * r & ones for r in range(2 * n)]
    return tuple.__new__(PBWMonomial, (key >> z_shift, tuple(e[:n]), tuple(e[n:])))


def _packed_term_pairs(left, right, kind: AlgebraKind, n: int) -> dict[PBWMonomial, Rational]:
    """The summed (monomial, coefficient) terms of every left term times every right term.

    Each monomial is packed into one int by ``_packed``.  An x or d field is
    as many bytes as the sum of the two factors' largest x and d exponents
    needs, and z stands above them all, so no exponent of the product
    carries into another.  A left term carries a d-mask and a right term an
    x-mask.  Where the masks do not meet (every pair in kind C) the
    product's key is the sum of the two keys.  Each index i where they meet
    exchanges k = min(q, p) down to 0 pairs, q = d_i on the left and p = x_i
    on the right: the coefficient gains the factor t_k = k! C(q, k) C(p, k),
    and the key loses k units of x_i and of d_i and gains 2k units of z
    (kind B; none in kind A).  Each key is unpacked once, in the order the
    terms were first met; keys whose coefficients cancel are dropped.
    """
    if not (left and right):
        return {}
    top = max([max((0, *m.xexps, *m.dexps)) for m, _ in left])
    top += max([max((0, *m.xexps, *m.dexps)) for m, _ in right])  # bounds every x and d exponent of the product
    size = 1 if top < 256 else (top.bit_length() + 7) // 8
    width, exchanges = 8 * size, kind is not AlgebraKind.C
    z_step = 2 if kind is AlgebraKind.B else 0
    out: dict[int, Rational] = {}
    get = out.get
    rights = _packed(right, size, n, False, exchanges)
    for u, cu, dmask, qs in _packed(left, size, n, True, exchanges):
        for v, cv, xmask, ps in rights:
            meet = dmask & xmask
            if not meet:
                key = u + v
                out[key] = get(key, 0) + cu * cv
                continue
            moves = None  # (key shift, exchange factor) of each choice of k, the first index outermost
            while meet:
                low = meet & -meet
                meet ^= low
                i = low.bit_length() >> 3  # the lowest index left: bit 8i
                q, p = qs[i], ps[i]
                step = (1 << width * i) + (1 << width * (n + i)) - (z_step << width * 2 * n)
                factors, t = [(0, 1)], 1
                for k in range(1, min(q, p) + 1):
                    t = t * (q - k + 1) * (p - k + 1) // k
                    factors.append((k * step, t))
                factors.reverse()  # k from min(q, p) down to 0
                moves = factors if moves is None else [(s + s2, t * t2) for s, t in moves for s2, t2 in factors]
            key, c = u + v, cu * cv
            for shift, t in moves:
                w = key - shift
                out[w] = get(w, 0) + c * t
    return {_unpack(key, n, size): c for key, c in out.items() if c}


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Canonical product.  Bilinear and associative; unit is ``one``.

    The term pairs run through ``_packed_term_pairs``, on packed keys.

    >>> from weylkit.expressions import evaluate
    >>> str(multiply(evaluate("d1^2*d2", 2, AlgebraKind.B), evaluate("x1*x2", 2, AlgebraKind.B)))
    'x1*x2*d1^2*d2 + z^2*x1*d1^2 + 2*z^2*x2*d1*d2 + 2*z^4*d1'
    """
    _check_kind(a.kind)
    return a._bilinear(b)


def product_size(a: AlgebraElement, b: AlgebraElement, cap: int) -> tuple[int, int]:
    """(terms, exchange bits) of ``a * b``, the terms counted until they pass ``cap``.

    A term pair builds prod_i (min(q_i, p_i) + 1) terms, q the d-exponents of
    its left monomial and p the x-exponents of its right one.  Its exchange
    factors k! C(q, k) C(p, k) <= (q p)^k have at most the bits it adds up.
    """
    _check_kind(a.kind)
    a._check_compatible(b)
    if a.kind is AlgebraKind.C:
        return len(a.coeffs) * len(b.coeffs), 0
    terms = bits = 0
    exchanged = [[(i, q) for i, q in enumerate(m.dexps) if q] for m in a.coeffs]
    for qs, m2 in itertools.product(exchanged, b.coeffs):
        built, width = 1, 0
        for i, q in qs:
            if p := m2.xexps[i]:
                k = min(q, p)
                built *= k + 1
                width += k * (q.bit_length() + p.bit_length())
        terms, bits = terms + built, max(bits, width)
        if terms > cap:
            break
    return terms, bits


def commutator(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """ab - ba."""
    return multiply(a, b) - multiply(b, a)


# -- degrees and graded pieces ------------------------------------------------

def partial_degree(a: AlgebraElement) -> int:
    """Max total x,d exponent over the support; z contributes nothing."""
    _check_kind(a.kind)
    if a.is_zero():
        raise ZeroElement("partial degree of the zero element is undefined")
    return max(m.partial for m in a.coeffs)


def graded_degree(a: AlgebraElement) -> int:
    """Max graded degree over the support (all generators count 1)."""
    _check_kind(a.kind)
    if a.is_zero():
        raise ZeroElement("graded degree of the zero element is undefined")
    return max(m.degree for m in a.coeffs)


# -- bases and the centralizer -------------------------------------------------

def basis_of_degree(kind: AlgebraKind, n: int, d: int) -> list[PBWMonomial]:
    """All monomials of graded degree d, in canonical order.

    For kinds B and C there are C(d+2n, 2n) of them; kind A omits z.  Each
    (kind, n, d) is built once and kept in a cache of the 128 latest keys
    (``center-solve`` cycles through 54); the largest a repo caller builds,
    (B, 3, 8), has 3 003 monomials and takes about 0.62 MB.  Every call
    returns a fresh list, which the caller may change.  A non-int n (a bool
    too, as ``check_pair_count`` says) or d raises TypeError, a negative one
    ValueError.

    >>> [str(m) for m in basis_of_degree(AlgebraKind.B, 1, 2)]
    ['x1^2', 'x1*d1', 'd1^2', 'z*x1', 'z*d1', 'z^2']
    """
    _check_kind(kind)
    check_pair_count(n)  # a bool is not a pair count
    if not isinstance(d, int):
        raise TypeError(f"basis_of_degree needs an int degree, got {d!r}")
    if d < 0:
        raise ValueError(f"the degree must be nonnegative, got {d}")
    return list(_graded_basis(kind, n, d))


@functools.lru_cache(maxsize=128)
def _graded_basis(kind: AlgebraKind, n: int, d: int) -> tuple[PBWMonomial, ...]:
    """The basis, never changed, built in order with no sort: z exponent a
    ascending, then the rank words of length d-a in lexicographic order,
    which is descending x- and d-exponents.
    """
    zexps = (0,) if kind is AlgebraKind.A else range(d + 1)  # kind A has no z, rank 2n
    return tuple(
        _ranks_to_monomial(w + (2 * n,) * a, n)
        for a in zexps
        for w in itertools.combinations_with_replacement(range(2 * n), d - a)
    )


def centralizer_in_degree(kind: AlgebraKind, n: int, d: int) -> list[AlgebraElement]:
    """Basis of the homogeneous degree-d elements commuting with every generator.

    z is central, so only x_i and d_i matter.  For a basis monomial
    m = z^a x^P d^Q, [m, x_i] = q_i*c*z^a x^P d^(Q-e_i) and
    [m, d_i] = -p_i*c*z^a x^(P-e_i) d^Q, read off the exponents with no
    product (c = z^2 for B, 1 for A, 0 for C).  Adding e_i back gives m, so
    distinct monomials have distinct targets, no combination of noncentral
    monomials is central, and the center is spanned by the monomials with
    no x or d exponent (every monomial for C), in basis order.  A degree-d
    monomial has partial degree d - zexp, so those are the ones with
    zexp == d, read with no sum over the exponents.  A basis
    listing a monomial twice would void that argument, so it raises
    RuntimeError before any element is built.  The central monomials are
    valid by construction, so their elements are built by
    ``AlgebraElement._unchecked``: no key is checked and no unit is built.

    >>> [str(v) for v in centralizer_in_degree(AlgebraKind.B, 1, 2)]
    ['z^2']
    """
    basis = basis_of_degree(kind, n, d)
    if len(set(basis)) < len(basis):
        twice = next(m for m, k in Counter(basis).items() if k > 1)
        raise RuntimeError(f"the degree-{d} basis lists {twice} twice")
    build, every = AlgebraElement._unchecked, kind is AlgebraKind.C  # looked up once, not per monomial
    return [build(kind, n, {m: 1}) for m in basis if every or m.zexp == d]


# -- divisibility by z ---------------------------------------------------------

def z_divides(a: AlgebraElement) -> bool:
    """True iff every monomial carries z at least once (vacuously true for 0)."""
    _check_kind(a.kind)
    return all(m.zexp >= 1 for m in a.coeffs)


def divide_by_z(a: AlgebraElement, k: int = 1) -> AlgebraElement:
    """a / z^k (k >= 0), for an ``a`` whose every term carries z^k.

    The result keeps a's kind and n and its keys are shifted copies of a's,
    so it is built by ``_like``; a ``k`` that is not an int raises TypeError.
    """
    _check_kind(a.kind)
    if not isinstance(k, int):
        raise TypeError(f"divide_by_z needs an int k, got {k!r}")
    if k < 0:
        raise ValueError("divide_by_z needs k >= 0")
    if any(m.zexp < k for m in a.coeffs):
        raise NotDivisible(f"element has a term with no z^{k} factor")
    if k == 0:
        return a
    return a._like({PBWMonomial(m.zexp - k, m.xexps, m.dexps): c for m, c in a.coeffs.items()})


def z_shift(a: AlgebraElement, k: int) -> AlgebraElement:
    """Multiply by z^k (k >= 0); cheap because z is central.

    Built by ``_like``, as ``divide_by_z`` is; a ``k`` that is not an int
    raises TypeError.
    """
    _check_kind(a.kind)
    if not isinstance(k, int):
        raise TypeError(f"z_shift needs an int k, got {k!r}")
    if k < 0:
        raise ValueError("z_shift needs k >= 0")
    if not a.kind.has_z:
        raise IllegalGenerator("no z in this algebra")
    if k == 0:
        return a
    return a._like({PBWMonomial(m.zexp + k, m.xexps, m.dexps): c for m, c in a.coeffs.items()})
