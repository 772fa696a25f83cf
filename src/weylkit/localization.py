"""The graded localization at z and its bridges to the Weyl algebra.

Inverting the central generator z turns the homogenized algebra into a
graded ring whose degree-zero part is a copy of the Weyl algebra.  Since
z is central, a single right denominator suffices: every element is a
fraction b/z^k, canonical once common z factors are stripped, and
equality is plain cross-multiplication because the algebra is a domain.

The maps here are all element-level:

* ``dehomogenize``  -- b(z, x, d) |-> b(1, x, d), onto the Weyl algebra;
* ``kernel_witness``-- writes b with dehomogenize(b) = 0 as (z-1) * w;
* ``homogenize``    -- the minimal-degree section of dehomogenize;
* ``theta``         -- degree-zero fractions -> Weyl algebra, b/z^k |-> b(1,x,d);
* ``mu``            -- (a, t) |-> the degree-t fraction over a, so that the
  Weyl algebra with z, z^-1 adjoined matches the whole localized ring.

``expressions.render`` prints fractions, as text and as JSON.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import KindMismatch, NotDegreeZero, SizeMismatch
from .generators import AlgebraKind, Rational
from .pbw import (
    AlgebraElement,
    PBWMonomial,
    divide_by_z,
    graded_degree,
    multiply,
    partial_degree,
    z_shift,
)


@dataclass(frozen=True)
class LocalizedElement:
    """A fraction numerator / z^zpow over the homogenized algebra; ``make`` builds the canonical one.

    A ``zpow`` that is not an int raises TypeError, a numerator that is not
    a kind-B element KindMismatch, and a negative ``zpow`` ValueError.
    """

    numerator: AlgebraElement
    zpow: int

    def __post_init__(self):
        if not isinstance(self.zpow, int):
            raise TypeError(f"a z power must be an int, got {self.zpow!r}")
        b = self.numerator
        if not isinstance(b, AlgebraElement) or b.kind is not AlgebraKind.B:
            got = b.kind.value if isinstance(b, AlgebraElement) else type(b).__name__
            raise KindMismatch(f"localization lives over kind B, got {got}")
        if self.zpow < 0:
            raise ValueError("zpow must be nonnegative")

    @property
    def n(self) -> int:
        return self.numerator.n

    def is_zero(self) -> bool:
        return self.numerator.is_zero()

    def degree(self) -> int:
        """Graded degree, defined for homogeneous nonzero numerators."""
        return graded_degree(self.numerator) - self.zpow

    # the generated __eq__ is structural equality of canonical forms;
    # loc_equals is the fraction equality (they agree on make() outputs)
    __hash__ = None

    def __str__(self) -> str:
        from .expressions import render

        return render(self)


def make(b: AlgebraElement, k: int = 0) -> LocalizedElement:
    """Canonical fraction b/z^k: strips common z factors, sends 0 to 0/z^0.

    ``b`` and ``k`` are refused as ``LocalizedElement`` refuses them, before any work.
    """
    e = LocalizedElement(b, k)
    if b.is_zero():
        return LocalizedElement(b, 0)
    strip = min(k, min(m.zexp for m in b.coeffs))
    return LocalizedElement(divide_by_z(b, strip), k - strip) if strip else e


def _check_pair(a: LocalizedElement, b: LocalizedElement) -> None:
    if a.n != b.n:
        raise SizeMismatch(f"pair counts differ: {a.n} vs {b.n}")


def loc_equals(a: LocalizedElement, b: LocalizedElement) -> bool:
    """a/z^j = b/z^k iff z^k a = z^j b (valid: no z-torsion in a domain)."""
    _check_pair(a, b)
    return z_shift(a.numerator, b.zpow) == z_shift(b.numerator, a.zpow)


def loc_add(a: LocalizedElement, b: LocalizedElement) -> LocalizedElement:
    _check_pair(a, b)
    k = max(a.zpow, b.zpow)
    total = z_shift(a.numerator, k - a.zpow) + z_shift(b.numerator, k - b.zpow)
    return make(total, k)


def loc_multiply(a: LocalizedElement, b: LocalizedElement) -> LocalizedElement:
    _check_pair(a, b)
    return make(multiply(a.numerator, b.numerator), a.zpow + b.zpow)


# -- dehomogenization and its kernel --------------------------------------------

def dehomogenize(b: AlgebraElement) -> AlgebraElement:
    """Send z to 1.  PBW monomials map to PBW monomials; coefficients merge."""
    if b.kind is not AlgebraKind.B:
        raise KindMismatch(f"dehomogenize expects kind B, got {b.kind.value}")
    out: dict[PBWMonomial, Rational] = {}
    for m, c in b.coeffs.items():
        target = PBWMonomial(0, m.xexps, m.dexps)
        out[target] = out.get(target, 0) + c
    return AlgebraElement(AlgebraKind.A, b.n, out)


def kernel_witness(b: AlgebraElement) -> AlgebraElement | None:
    """If dehomogenize(b) = 0, return w with (z - 1) * w = b; else None.

    Built from the telescoping z^i - 1 = (z - 1)(z^(i-1) + .. + 1) applied
    termwise; validity rests on the z-coefficients of each x^P d^Q block
    summing to zero, which is exactly dehomogenize(b) = 0.
    """
    if not dehomogenize(b).is_zero():
        return None
    out: dict[PBWMonomial, Rational] = {}
    for m, c in b.coeffs.items():
        for t in range(m.zexp):
            target = PBWMonomial(t, m.xexps, m.dexps)
            out[target] = out.get(target, 0) + c
    return b._like(out)  # b is of kind B, and the targets are its keys with a lower z power


def homogenize(a: AlgebraElement) -> tuple[AlgebraElement, int]:
    """Minimal z-padding making ``a`` homogeneous; a section of dehomogenize.

    Returns (b, k) with b homogeneous of degree k = max term degree of a
    and dehomogenize(b) = a.
    """
    if a.kind is not AlgebraKind.A:
        raise KindMismatch(f"homogenize expects kind A, got {a.kind.value}")
    if a.is_zero():
        return AlgebraElement(AlgebraKind.B, a.n), 0
    k = partial_degree(a)
    out = {
        PBWMonomial(k - m.partial, m.xexps, m.dexps): c
        for m, c in a.coeffs.items()
    }
    return AlgebraElement(AlgebraKind.B, a.n, out), k


# -- the isomorphisms theta and mu ---------------------------------------------

def theta(e: LocalizedElement) -> AlgebraElement:
    """Degree-zero fractions to the Weyl algebra: b/z^k |-> b(1, x, d).

    Requires a homogeneous numerator of degree equal to the z power
    (raises :class:`NotDegreeZero` otherwise); inverse is
    ``make(*homogenize(a))``.
    """
    if e.is_zero():
        return AlgebraElement(AlgebraKind.A, e.n)
    if not e.numerator.is_homogeneous() or graded_degree(e.numerator) != e.zpow:
        raise NotDegreeZero("the fraction is not homogeneous of degree 0")
    return dehomogenize(e.numerator)


def theta_inverse(a: AlgebraElement) -> LocalizedElement:
    """The canonical degree-zero fraction over a Weyl-algebra element."""
    return mu(a)


def mu(a: AlgebraElement, t: int = 0) -> LocalizedElement:
    """The degree-t image of a Weyl-algebra element in the localized ring.

    mu(a, t) = homogenized(a) * z^t as a canonical fraction; additive in a,
    multiplicative across pairs: mu(a, s) * mu(b, t) = mu(ab, s + t).
    """
    b, k = homogenize(a)
    if t >= 0:
        return make(z_shift(b, t), k)
    return make(b, k - t)

