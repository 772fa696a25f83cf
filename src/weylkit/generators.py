"""Generators, algebra kinds and the shared element core.

The algebras handled by the kernel are all presented on the generators
x_1..x_n, d_1..d_n and (except for the plain Weyl algebra) a central-degree
candidate z.  A :class:`Generator` names one of them; an
:class:`AlgebraKind` names the ambient algebra.  :class:`SparseElement`
is the arithmetic both element engines (PBW and shriek) share.
"""

from __future__ import annotations

import enum
import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import IllegalGenerator, IndexOutOfRange, KindMismatch, SizeMismatch


class AlgebraKind(enum.Enum):
    """Which algebra an element lives in.

    A  -- the Weyl algebra on n pairs (d_i x_i - x_i d_i = 1, no z)
    B  -- its homogenization (d_i x_i - x_i d_i = z^2, z central)
    C  -- the commutative polynomial algebra on x_1..x_n, d_1..d_n, z
    B! -- the Koszul dual of B (finite dimensional)
    C! -- the Koszul dual of C (exterior algebra on 2n+1 generators)
    """

    A = "A"
    B = "B"
    C = "C"
    B_SHRIEK = "B!"
    C_SHRIEK = "C!"

    @property
    def has_z(self) -> bool:
        return self is not AlgebraKind.A

    @property
    def is_shriek(self) -> bool:
        return self in (AlgebraKind.B_SHRIEK, AlgebraKind.C_SHRIEK)


@dataclass(frozen=True)
class Generator:
    """One generator: x_i, d_i, or z.  Indices are 1-based; z carries index 0."""

    family: str  # 'x', 'd' or 'z'
    index: int = 0

    def __post_init__(self):
        if self.family not in ("x", "d", "z"):
            raise ValueError(f"bad generator family {self.family!r}")
        if self.family == "z" and self.index != 0:
            raise ValueError("z carries no index")
        if self.family != "z" and self.index < 1:
            raise ValueError("x/d indices are 1-based")

    @staticmethod
    def x(i: int) -> "Generator":
        return Generator("x", i)

    @staticmethod
    def d(i: int) -> "Generator":
        return Generator("d", i)

    @staticmethod
    def z() -> "Generator":
        return Generator("z")

    def check(self, n: int, kind: AlgebraKind) -> None:
        """Validate against a pair count and target algebra."""
        if self.family == "z":
            if not kind.has_z:
                raise IllegalGenerator(
                    f"z is not a generator of the algebra {kind.value}"
                )
        elif self.index > n:
            raise IndexOutOfRange(
                f"generator {self} has index {self.index} > n = {n}"
            )

    def rank(self, n: int) -> int:
        """Position in the one order x_1 < .. < x_n < d_1 < .. < d_n < z of every engine's words."""
        if self.family == "z":
            return 2 * n
        if self.family == "x":
            return self.index - 1
        return n + self.index - 1

    def __str__(self) -> str:
        return "z" if self.family == "z" else f"{self.family}{self.index}"


def rank_generator(r: int, n: int) -> Generator:
    """The generator of rank ``r``: the inverse of :meth:`Generator.rank`."""
    if r < n:
        return Generator.x(r + 1)
    if r < 2 * n:
        return Generator.d(r - n + 1)
    return Generator.z()


Word = tuple[Generator, ...]

# A coefficient: an int when integral, else a Fraction with denominator > 1 (see ``exact``).
Rational = int | Fraction


def exact(c) -> Rational:
    """The one coefficient rule: ``c`` as an int when integral, else as a Fraction.

    Anything that is not a ``numbers.Rational`` (a float, a str, a
    Decimal) raises TypeError, so no inexact value becomes a coefficient.
    """
    if type(c) is int:
        return c
    if type(c) is Fraction:
        return c.numerator if c.denominator == 1 else c
    if not isinstance(c, numbers.Rational):
        raise TypeError(f"coefficient {c!r} is not an exact rational")
    return quotient(int(c.numerator), int(c.denominator))


def quotient(a: int, b: int) -> Rational:
    """``exact(a / b)`` for ints, with no Fraction built when b divides a."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


def _cleared(items):
    """(``items`` with every coefficient times D, D): D the lcm of the denominators.

    D is 1, and ``items`` comes back as given, when every coefficient is an int.
    """
    den = math.lcm(*(c.denominator for _, c in items if type(c) is not int))
    if den == 1:
        return items, 1
    return [(key, c.numerator * (den // c.denominator)) for key, c in items], den


@dataclass(frozen=True)
class FreeExpression:
    """A raw sum of coefficient-word terms in the free algebra.

    No normalization is implied: words may repeat generators, terms may
    repeat words, and zero coefficients are allowed.  ``n`` records the
    pair count the expression was parsed against.
    """

    n: int
    terms: tuple[tuple[Rational, Word], ...]

    @staticmethod
    def from_terms(n: int, terms: Sequence[tuple[Rational, Sequence[Generator]]]) -> "FreeExpression":
        return FreeExpression(n, tuple((exact(c), tuple(w)) for c, w in terms))

    def rank_terms(self, kind: AlgebraKind) -> dict[tuple[int, ...], Rational]:
        """The summed coefficient of each rank word, every generator checked against ``kind``.

        Each generator object is checked and ranked once per call, when a
        word first holds it; a parsed expansion repeats a few objects many
        times.  The ranks are keyed by ``id``, which stays valid because the
        expression holds every generator for the whole call (a
        ``Generator``'s own hash runs in Python and costs more).
        """
        n = self.n
        rank: dict[int, int] = {}
        terms: dict[tuple[int, ...], Rational] = {}
        for c, word in self.terms:
            try:
                ranks = tuple([rank[id(g)] for g in word])
            except KeyError:  # the word holds a generator object not met before
                for g in word:
                    if id(g) not in rank:
                        g.check(n, kind)
                        rank[id(g)] = g.rank(n)
                ranks = tuple([rank[id(g)] for g in word])
            terms[ranks] = terms.get(ranks, 0) + c
        return terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for c, w in self.terms:
            word = "*".join(str(g) for g in w) if w else "1"
            parts.append(f"{c}*{word}")
        return " + ".join(parts)


def power(base, e: int, times, one):
    """``base`` to the ``e`` under ``times`` with unit ``one``, by square and multiply."""
    if e < 0:
        raise ValueError("negative powers are not defined here")
    if e == 0:
        return one
    out = base
    for bit in bin(e)[3:]:  # the leading 1 is ``base``
        out = times(out, out)
        if bit == "1":
            out = times(out, base)
    return out


class SparseElement:
    """An immutable sparse map from basis keys to nonzero rationals.

    The shared core of :class:`weylkit.pbw.AlgebraElement` (keys are PBW
    monomials) and :class:`weylkit.shriek.ShriekElement` (keys are
    square-free words).  Each coefficient is stored by ``exact``: an int
    when integral, else a Fraction, so integral products multiply ints,
    and a float or a str coefficient raises TypeError.  Rational factors
    are multiplied on cleared denominators (see ``_bilinear``), so the
    term-pair loop multiplies ints there too.  Construction
    drops zero coefficients, so the arithmetic below may leave zeros in
    the dicts it builds.  A subclass
    supplies ``_check_keys``, ``_times`` (its module's ``multiply``) and
    ``_one`` (the unit); a key supplies ``degree`` and, given the pair
    count, ``term_key``, ``word_str`` and ``json_fields``.  ``*`` multiplies
    two elements of one type, n and kind, which ``_bilinear`` checks; a
    scalar goes through ``scaled``, so ``e * 2`` and ``2 * e`` raise
    TypeError.  Two elements are equal iff kind, n and the coefficient
    maps agree.  The constructor checks every key with ``_check_keys``, as
    keys may come from outside; ``_like`` skips the check, its keys being
    built from checked ones.
    """

    __slots__ = ("kind", "n", "coeffs")

    def __init__(self, kind: AlgebraKind, n: int, coeffs: dict | None):
        self._fill(kind, n, coeffs)
        self._check_keys(self.coeffs)

    def _fill(self, kind: AlgebraKind, n: int, coeffs: dict | None) -> None:
        clean = {}
        for key, c in (coeffs or {}).items():
            if type(c) is not int:
                c = exact(c)
            if c:
                clean[key] = c
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "coeffs", clean)

    def _check_compatible(self, other) -> None:
        """Raise unless ``other`` is an element of the same type, n and kind."""
        if not isinstance(other, type(self)):
            raise TypeError(f"expected {type(self).__name__}, got {type(other).__name__}")
        if self.n != other.n:
            raise SizeMismatch(f"pair counts differ: {self.n} vs {other.n}")
        if self.kind is not other.kind:
            raise KindMismatch(f"cannot mix {self.kind.value} with {other.kind.value}")

    def _like(self, coeffs: dict):
        """A new element of the same type, kind and n, its keys unchecked."""
        out = object.__new__(type(self))
        out._fill(self.kind, self.n, coeffs)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def terms(self) -> list:
        """Terms in canonical order (leading terms first)."""
        return sorted(self.coeffs.items(), key=lambda kc: kc[0].term_key(self.n))

    def degrees(self) -> set[int]:
        return {key.degree for key in self.coeffs}

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def __eq__(self, other) -> bool:
        # kinds are disjoint between the engines, so equal kinds mean equal types
        return (
            isinstance(other, SparseElement)
            and self.kind is other.kind
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    __hash__ = None

    def __add__(self, other):
        self._check_compatible(other)
        out = dict(self.coeffs)
        for key, c in other.coeffs.items():
            out[key] = out.get(key, 0) + c
        return self._like(out)

    def __neg__(self):
        return self._like({key: -c for key, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scaled(self, c: Rational):
        c = exact(c)
        return self._like({key: c * v for key, v in self.coeffs.items()})

    def __mul__(self, other):
        return self._times(other)

    def __pow__(self, k: int):
        return power(self, k, operator.mul, self._one())

    def _bilinear(self, other, basis_product):
        """Bilinear extension of ``basis_product(u, v, kind, n)``.

        ``basis_product`` returns the (key, coefficient) terms of the
        product of two basis keys.  When both factors have two terms or
        more, each is multiplied by the lcm of its denominators, the loop
        adds ints only, and each output coefficient is divided back once
        by ``quotient``.  A one-term factor would save no Fraction product,
        so then the factors are taken as they are.
        """
        self._check_compatible(other)
        kind, n = self.kind, self.n
        left, right, den = self.coeffs.items(), other.coeffs.items(), 1
        if len(left) > 1 and len(right) > 1:
            (left, den_left), (right, den_right) = _cleared(left), _cleared(right)
            den = den_left * den_right
        out = {}
        for u, cu in left:
            for v, cv in right:
                c = cu * cv
                for w, k in basis_product(u, v, kind, n):
                    out[w] = out.get(w, 0) + c * k
        if den != 1:
            out = {w: quotient(c, den) for w, c in out.items()}
        return self._like(out)

    def __str__(self) -> str:
        from .expressions import render

        return render(self, "text")

    def __repr__(self) -> str:
        return f"<{self.kind.value}(n={self.n}) {self}>"
