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
are checked against each other in the test suite.

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
from math import comb, factorial
from operator import add
from typing import NamedTuple, Sequence

from .errors import (
    IllegalGenerator,
    KindMismatch,
    NotDivisible,
    SizeMismatch,
    ZeroElement,
)
from .generators import AlgebraKind, FreeExpression, Generator, Rational, SparseElement


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


class AlgebraElement(SparseElement):
    """A canonical element: sparse map from PBW monomials to nonzero rationals.

    Immutable; the arithmetic and equality come from
    :class:`weylkit.generators.SparseElement`.
    """

    __slots__ = ()

    def __init__(self, kind: AlgebraKind, n: int, coeffs: dict[PBWMonomial, Rational] | None = None):
        if kind not in (AlgebraKind.A, AlgebraKind.B, AlgebraKind.C):
            raise KindMismatch(f"PBW engine handles kinds A, B, C; got {kind.value}")
        SparseElement.__init__(self, kind, n, coeffs)

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
        return AlgebraElement(kind, n, {_ranks_to_monomial((), n): 1})

    @staticmethod
    def monomial(kind: AlgebraKind, n: int, m: PBWMonomial) -> "AlgebraElement":
        return AlgebraElement(kind, n, {m: 1})

    @staticmethod
    def generator(kind: AlgebraKind, n: int, g: Generator) -> "AlgebraElement":
        g.check(n, kind)
        return AlgebraElement(kind, n, {_ranks_to_monomial((g.rank(n),), n): 1})

    # -- arithmetic ----------------------------------------------------------

    def _times(self, other: "AlgebraElement") -> "AlgebraElement":
        return multiply(self, other)

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
    n = expr.n
    return AlgebraElement(kind, n, _reduce_rank_words(expr.rank_terms(kind), kind, n, rng))


def word_normal_form(
    word: Sequence[Generator],
    kind: AlgebraKind,
    n: int,
    rng: random.Random | None = None,
) -> AlgebraElement:
    """Normal form of a single free word."""
    return normal_form(FreeExpression.from_terms(n, [(1, word)]), kind, rng)


# -- closed-form multiplication ---------------------------------------------

def _mul_monomials(m1: PBWMonomial, m2: PBWMonomial, kind: AlgebraKind, n: int):
    """Yield the (monomial, coefficient) terms of m1*m2 by the exchange identity,
    one per choice of k_i from min(q_i, p_i) down to 0 at each index i where
    d_i meets x_i.
    """
    z1, p1, q1 = m1
    z2, p2, q2 = m2
    # kind C commutes everything, so no d_i x_i pair needs an exchange
    cross = [] if kind is AlgebraKind.C else [i for i in range(n) if q1[i] and p2[i]]
    base_z = z1 + z2
    xs = tuple(map(add, p1, p2))
    ds = tuple(map(add, q1, q2))
    if not cross:
        yield tuple.__new__(PBWMonomial, (base_z, xs, ds)), 1
        return
    z_step = 2 if kind is AlgebraKind.B else 0
    for ks in itertools.product(*(range(min(q1[i], p2[i]), -1, -1) for i in cross)):
        coeff = 1
        x, d = list(xs), list(ds)
        for i, k in zip(cross, ks):
            coeff *= comb(q1[i], k) * comb(p2[i], k) * factorial(k)
            x[i] -= k
            d[i] -= k
        yield tuple.__new__(PBWMonomial, (base_z + z_step * sum(ks), tuple(x), tuple(d))), coeff


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Canonical product.  Bilinear and associative; unit is ``one``."""
    return a._bilinear(b, _mul_monomials)


def product_size(a: AlgebraElement, b: AlgebraElement, cap: int) -> tuple[int, int]:
    """(terms, exchange bits) of ``a * b``, the terms counted until they pass ``cap``.

    A term pair builds prod_i (min(q_i, p_i) + 1) terms, q the d-exponents of
    its left monomial and p the x-exponents of its right one.  Its exchange
    factors k! C(q, k) C(p, k) <= (q p)^k have at most the bits it adds up.
    """
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
    if a.is_zero():
        raise ZeroElement("partial degree of the zero element is undefined")
    return max(m.partial for m in a.coeffs)


def graded_degree(a: AlgebraElement) -> int:
    """Max graded degree over the support (all generators count 1)."""
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
    returns a fresh list, which the caller may change.  A non-int n or d
    raises TypeError, a negative one ValueError.

    >>> [str(m) for m in basis_of_degree(AlgebraKind.B, 1, 2)]
    ['x1^2', 'x1*d1', 'd1^2', 'z*x1', 'z*d1', 'z^2']
    """
    if kind.is_shriek:
        raise KindMismatch(f"PBW engine handles kinds A, B, C; got {kind.value}")
    if not (isinstance(n, int) and isinstance(d, int)):
        raise TypeError(f"basis_of_degree needs int n and d, got {n!r} and {d!r}")
    if n < 0 or d < 0:
        raise ValueError("pair count and degree must be nonnegative")
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
    no x or d exponent (every monomial for C), in basis order.  A basis
    listing a monomial twice would void that argument, so it raises
    RuntimeError before any element is built.  The central monomials are
    valid by construction, so their elements skip the key check.

    >>> [str(v) for v in centralizer_in_degree(AlgebraKind.B, 1, 2)]
    ['z^2']
    """
    basis = basis_of_degree(kind, n, d)
    if len(set(basis)) < len(basis):
        twice = next(m for m, k in Counter(basis).items() if k > 1)
        raise RuntimeError(f"the degree-{d} basis lists {twice} twice")
    like = AlgebraElement.one(kind, n)._like
    return [like({m: 1}) for m in basis if kind is AlgebraKind.C or not m.partial]


# -- divisibility by z ---------------------------------------------------------

def z_divides(a: AlgebraElement) -> bool:
    """True iff every monomial carries z at least once (vacuously true for 0)."""
    return all(m.zexp >= 1 for m in a.coeffs)


def divide_by_z(a: AlgebraElement, k: int = 1) -> AlgebraElement:
    """a / z^k (k >= 0), for an ``a`` whose every term carries z^k.

    The result keeps a's kind and n and its keys are shifted copies of a's,
    so it is built by ``_like``; a ``k`` that is not an int raises TypeError.
    """
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
    if not isinstance(k, int):
        raise TypeError(f"z_shift needs an int k, got {k!r}")
    if k < 0:
        raise ValueError("z_shift needs k >= 0")
    if not a.kind.has_z:
        raise IllegalGenerator("no z in this algebra")
    if k == 0:
        return a
    return a._like({PBWMonomial(m.zexp + k, m.xexps, m.dexps): c for m, c in a.coeffs.items()})
