"""Exception types shared across the kernel."""


class WeylkitError(Exception):
    """Base class for all weylkit errors."""


class ParseError(WeylkitError):
    """Raised on malformed input text; carries position and expected tokens."""

    def __init__(self, position, expected, found=None):
        self.position = position
        self.expected = sorted(expected)
        self.found = found
        what = repr(found) if found is not None else "end of input"
        super().__init__(
            f"syntax error at position {position}: found {what}, "
            f"expected one of {', '.join(self.expected)}"
        )


class ExpressionTooLarge(WeylkitError):
    """An expression expands past the parser's bound, a product would build too
    many terms, or a number has too many digits."""


class IndexOutOfRange(WeylkitError):
    """Variable index exceeds the pair count n."""


class IllegalGenerator(WeylkitError):
    """Generator not legal for the target algebra (z in the plain Weyl algebra)."""


class KindMismatch(WeylkitError):
    """An operand is in the wrong algebra: two operands differ in kind, or an
    engine or operation gets a kind it does not handle."""


class SizeMismatch(KindMismatch):
    """Operands, or an element and its keys, have different pair counts n.

    A subclass of :class:`KindMismatch`: the pair count is part of the algebra.
    """


class ZeroElement(WeylkitError):
    """Degree query on the zero element."""


class NotDivisible(WeylkitError):
    """Element is not divisible by z."""


class RankDeficientInput(WeylkitError):
    """Relation list is linearly dependent."""


class DefiningIdentityFailure(WeylkitError):
    """The Frobenius form or a Nakayama map fails its defining identity, so the
    golden data is refused (implementation bug): beta(u, ubar) is not the top
    coefficient of u*ubar for a basis word u, or beta(sigma(y), x) != beta(x, y)
    on a basis pair."""


class NotDegreeZero(WeylkitError):
    """Localized element is not a homogeneous degree-zero fraction."""


class UnknownSuite(WeylkitError):
    """No verification suite with that name."""


class UnsupportedN(WeylkitError):
    """Pair count exceeds the resource guard for this operation."""
