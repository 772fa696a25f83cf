"""Text and JSON frontend for algebra elements and localized fractions.

Two routes read the same grammar.  ``evaluate`` computes the element a
text denotes with the algebra's own arithmetic, and the CLI verbs use it.
``parse`` expands the text into free words, which ``pbw.normal_form`` and
``shriek.reduce_expression`` rewrite; that literal route is the oracle the
tests check ``evaluate`` against.

``GRAMMAR`` is the input grammar (EBNF).  Multiplication is always
explicit (``x1*d1``), exponents are nonnegative integers, rationals are
written ``p/q``, and unary minus binds looser than ``*``.  Tokens are
case-insensitive and ASCII-only.  Parentheses nest at most
``_MAX_DEPTH`` deep.  Numbers read, built by a product or printed have at
most ``_max_digits()`` digits (else ExpressionTooLarge): 4300, or fewer
under a lower interpreter int-to-str limit; no setting raises it.

``evaluate`` builds every product, and every square and multiply step of a
power, with ``bounded_product``, which bounds the product's term count and
exchange factors before building it; both are counted by the engine that
builds them, ``pbw.product_size`` or ``shriek.product_size``.  ``parse``
refuses a product of free words longer than ``_MAX_FREE_SIZE`` letters in
all.  Both add the summands of a sum in pairs.

``render`` prints every value the CLI prints: PBW elements, ``B!``/``C!``
elements and the fractions of ``localization``.  It checks every number
against the digit bound before it converts one.
"""

from __future__ import annotations

import json
import operator
import re
import sys
from typing import Any, Callable, NamedTuple

from .errors import ExpressionTooLarge, IndexOutOfRange, ParseError
from .generators import AlgebraKind, FreeExpression, Generator, Rational, SparseElement, power, quotient
from . import pbw, shriek
from .localization import LocalizedElement
from .pbw import AlgebraElement
from .shriek import ShriekElement

GRAMMAR = """\
expr     := term (('+'|'-') term)*
term     := factor ('*' factor)* | '-' term
factor   := atom ('^' NAT)?
atom     := VAR | RATIONAL | '(' expr ')'
VAR      := x<i> | d<i> | z        (case-insensitive, 1 <= i <= n)
RATIONAL := NAT ('/' NAT)?
"""

# Each level of parentheses costs four stack frames (expr, term, factor, atom).
_MAX_DEPTH = 100

# Letters in the free expansion of one product: terms times the longest
# word.  The largest input the tests, demos and benchmark use,
# (x1+d1+z)^8, is 6561 words of length 8.
_MAX_FREE_SIZE = 100_000

# mul --n 5 "d1^9*...*d5^9" "x1^9*...*x5^9" builds 100 000 terms: 2.9 s, 111 MB RSS, 7.5 MB
# printed, in-process; with d5^19 and x5^19 instead, 200 000 terms took 7.3 s and 209 MB.
# A term holds two length-n exponent tuples, so past n = 5 the cap falls as 5/n: a product
# builds at most 62 500 terms at n = 8 and 500 at n = 1000.
_MAX_PRODUCT_TERMS = 100_000

# Numbers read or printed have at most this many digits, Python's default int-to-str
# limit; ``_max_digits`` lowers it to the interpreter's limit when that is lower.
_MAX_DIGITS = 4300

# A product whose exchange factors k! C(q, k) C(p, k) may exceed this many bits
# (``pbw.product_size``) is refused before it is built.  Fixed, so the interpreter's
# limit does not move it: d1^k*x1^k prints for k <= 1548, with 22k <= 34 056 bits.
_MAX_EXCHANGE_BITS = 8 * _MAX_DIGITS

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<VAR>[xdXD][0-9]+|[zZ])|(?P<NAT>[0-9]+)|(?P<OP>[-+*^/()]))"
)

# A parsed sum of words, before any canonicalization.
_Terms = list[tuple[Rational, tuple[Generator, ...]]]


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    limit = _max_digits()
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            where = len(text) - len(stripped)
            if text[where] in "xdXD":
                # a variable letter without an ASCII index: blame what follows it
                where += 1
                raise ParseError(where, {"index digit"}, text[where] if where < len(text) else None)
            raise ParseError(where, {"variable", "number", "operator"}, text[where])
        kind = m.lastgroup
        value = m.group(kind)
        if len(value) - (kind == "VAR") > limit:
            raise ExpressionTooLarge(f"the number at position {m.start(kind)} has more than {limit} digits")
        tokens.append((kind, value, m.start(kind)))
        pos = m.end()
    return tokens


def _max_digits() -> int:
    """``_MAX_DIGITS``, or the interpreter's int-to-str limit when that is lower."""
    return min(_MAX_DIGITS, sys.get_int_max_str_digits() or _MAX_DIGITS)


def _too_long(values, digits: int) -> bool:
    """Whether one of the rationals ``values`` has more than ``digits`` digits in its numerator or denominator."""
    short = 3 * digits  # 2^(3 digits) < 10^digits: a number this short has at most digits digits
    long = [v for v in values if v.numerator.bit_length() > short or v.denominator.bit_length() > short]
    return any(abs(v.numerator) >= 10**digits or v.denominator >= 10**digits for v in long)


def _refuse_unprintable(coeffs) -> None:
    """Refuse when one of ``coeffs`` has more digits than ``render`` prints."""
    digits = _max_digits()
    if _too_long(coeffs, digits):
        raise ExpressionTooLarge(f"a coefficient has more than {digits} digits")


def bounded_product(a: SparseElement, b: SparseElement, comm: bool = False) -> SparseElement:
    """``a * b``, or ``a * b - b * a`` if ``comm``, unless it is too large (ExpressionTooLarge).

    Refused before it is built past ``_MAX_PRODUCT_TERMS * 5 // max(n, 5)``
    terms, or past ``_MAX_EXCHANGE_BITS`` exchange bits, as the engine's
    ``product_size`` counts them; refused after it is built when a
    coefficient has more digits than ``render`` prints.
    """
    cap = _MAX_PRODUCT_TERMS * 5 // max(a.n, 5)
    size = shriek.product_size if a.kind.is_shriek else pbw.product_size
    built = bits = 0
    for left, right in ((a, b), (b, a)) if comm else ((a, b),):
        terms, width = size(left, right, cap - built)
        built, bits = built + terms, max(bits, width)
        if built > cap:
            raise ExpressionTooLarge(f"the product would build more than {cap} terms")
    if bits > _MAX_EXCHANGE_BITS:
        raise ExpressionTooLarge(f"the product's exchange factors may have more than {_MAX_EXCHANGE_BITS} bits")
    out = a * b - b * a if comm else a * b
    _refuse_unprintable(out.coeffs.values())
    return out


class _Build(NamedTuple):
    """What a walk of the grammar builds from atoms, with ``one`` the unit of
    ``mul``: sums use the values' own ``+``, and negations and products
    default to the values' own operators."""

    generator: Callable[[Generator], Any]
    constant: Callable[[Rational], Any]
    one: Any
    neg: Callable[[Any], Any] = operator.neg
    mul: Callable[[Any, Any], Any] = operator.mul


def _times(a: _Terms, b: _Terms) -> _Terms:
    """The product of two sums of words, in lexicographic order of the factors."""
    # a bare coefficient counts one letter, so sums of constants are bounded too
    letters = len(a) * len(b) * (max(len(w) or 1 for _, w in a) + max(len(w) or 1 for _, w in b))
    if letters > _MAX_FREE_SIZE:
        raise ExpressionTooLarge(f"a product expands to more than {_MAX_FREE_SIZE} letters")
    out = [(c1 * c2, w1 + w2) for c1, w1 in a for c2, w2 in b]
    _refuse_unprintable([c for c, _ in out])
    return out


# The literal route: the free expansion, one word per path through the sums.
_FREE_WORDS = _Build(
    generator=lambda g: [(1, (g,))],
    constant=lambda c: [(c, ())],
    one=[(1, ())],
    neg=lambda terms: [(-c, w) for c, w in terms],
    mul=_times,
)


class _Parser:
    """Recursive descent over ``GRAMMAR`` that builds with ``build``."""

    def __init__(self, text: str, n: int, kind: AlgebraKind, build: _Build):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.n = n
        self.kind = kind
        self.build = build

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def fail(self, expected: set[str]):
        tok = self.peek()
        if tok is None:
            raise ParseError(len(self.text), expected)
        raise ParseError(tok[2], expected, tok[1])

    def eat_op(self, *ops: str) -> str | None:
        tok = self.peek()
        if tok and tok[0] == "OP" and tok[1] in ops:
            self.pos += 1
            return tok[1]
        return None

    def parse(self):
        value = self.expr()
        if self.peek() is not None:
            self.fail({"'+'", "'-'", "'*'", "'^'", "end of input"})
        return value

    def expr(self):
        summands = [self.term()]
        while op := self.eat_op("+", "-"):
            rhs = self.term()
            summands.append(self.build.neg(rhs) if op == "-" else rhs)
        # add in pairs: a sum of k summands then copies k log k terms, not k^2 / 2
        while len(summands) > 1:
            pairs = zip(summands[::2], summands[1::2])
            summands = [u + v for u, v in pairs] + summands[len(summands) & ~1:]
        return summands[0]

    def term(self):
        negate = False
        while self.eat_op("-"):  # a loop, not recursion: "- - ... x1" may be long
            negate = not negate
        value = self.factor()
        while self.eat_op("*"):
            value = self.build.mul(value, self.factor())
        return self.build.neg(value) if negate else value

    def factor(self):
        value = self.atom()
        if self.eat_op("^"):
            tok = self.peek()
            if tok is None or tok[0] != "NAT":
                self.fail({"nonnegative integer exponent"})
            self.pos += 1
            return power(value, int(tok[1]), self.build.mul, self.build.one)
        return value

    def atom(self):
        tok = self.peek()
        if tok is None:
            self.fail({"variable", "number", "'('"})
        kind, value, _ = tok
        if kind == "VAR":
            self.pos += 1
            value = value.lower()
            if value == "z":
                g = Generator.z()
            else:
                index = int(value[1:])
                if index < 1:
                    raise IndexOutOfRange(f"variable index must be at least 1, got {value}")
                g = Generator(value[0], index)
            g.check(self.n, self.kind)
            return self.build.generator(g)
        if kind == "NAT":
            self.pos += 1
            num = int(value)
            if self.eat_op("/"):
                den_tok = self.peek()
                if den_tok is None or den_tok[0] != "NAT" or int(den_tok[1]) == 0:
                    self.fail({"nonzero denominator"})
                self.pos += 1
                return self.build.constant(quotient(num, int(den_tok[1])))
            return self.build.constant(num)
        if value == "(":
            if self.depth == _MAX_DEPTH:
                self.fail({f"at most {_MAX_DEPTH} nested '('"})
            self.pos += 1
            self.depth += 1
            inner = self.expr()
            if not self.eat_op(")"):
                self.fail({"')'"})
            self.depth -= 1
            return inner
        self.fail({"variable", "number", "'('"})


def parse(text: str, n: int, kind: AlgebraKind) -> FreeExpression:
    """Parse ``text`` into a raw free-algebra expression.

    Validates indices against ``n`` and z-legality against ``kind``, an
    ``AlgebraKind`` (the CLI maps ``--algebra`` text to one); does no
    algebraic simplification beyond rational normalization.  This is
    the literal route, which ``pbw.normal_form`` and
    ``shriek.reduce_expression`` finish by rewriting.

    >>> str(parse("3/2 * z * x2", 2, AlgebraKind.B))
    '3/2*z*x2'
    """
    return FreeExpression.from_terms(n, _Parser(text, n, kind, _FREE_WORDS).parse())


def evaluate(text: str, n: int, kind: AlgebraKind) -> SparseElement:
    """The canonical element ``text`` denotes in ``kind``, an ``AlgebraKind``.

    Walks the grammar as ``parse`` does, but builds elements with the
    algebra's own arithmetic: the closed-form ``multiply`` for A, B and C,
    the closed-form word product for B! and C!, and square and multiply for
    powers, each product through ``bounded_product``; a rational constant
    is the unit ``scaled`` by it.  It equals the
    normal form of ``parse(text, n, kind)``.  The two routes refuse the same
    malformed texts with the same errors; each bounds the size of what it
    builds in its own way.

    >>> str(evaluate("d1*x1", 1, AlgebraKind.B))
    'x1*d1 + z^2'
    """
    if kind.is_shriek:
        one, generator = ShriekElement.one(n, kind), lambda g: ShriekElement.generator(n, g, kind)
    else:
        one, generator = AlgebraElement.one(kind, n), lambda g: AlgebraElement.generator(kind, n, g)
    return _Parser(text, n, kind, _Build(generator, one.scaled, one, mul=bounded_product)).parse()


# -- rendering -----------------------------------------------------------------

def format_terms(parts: list[tuple[Rational, str]]) -> str:
    """Join (coefficient, monomial-text) pairs into canonical text."""
    if not parts:
        return "0"
    pieces = []
    for i, (c, mono) in enumerate(parts):
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        if mono == "1":
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if i == 0:
            pieces.append(body if sign == "+" else f"-{body}")
        else:
            pieces.append(f" {sign} {body}")
    return "".join(pieces)


def render(e, format: str = "text") -> str:
    """Deterministic canonical text or JSON for an element or a fraction.

    Accepts PBW elements, shriek elements and ``LocalizedElement``; terms
    come out in canonical order, so distinct canonical values always render
    differently.  A fraction num/z^k prints as ``num``, ``(num)/z`` or
    ``(num)/z^k``, and in JSON as ``{"num": <element>, "zpow": k}``.  A
    coefficient, an exponent or a z power of more than ``_max_digits()``
    digits is refused (ExpressionTooLarge) before anything is converted.
    """
    if format not in ("text", "json"):
        raise ValueError(f"unknown render format {format!r}")
    if not isinstance(e, (SparseElement, LocalizedElement)):
        raise TypeError(f"cannot render {type(e).__name__}")
    num, zpow = (e.numerator, e.zpow) if isinstance(e, LocalizedElement) else (e, 0)
    terms = num.terms()
    _refuse_unprintable(num.coeffs.values())
    digits, exponents = _max_digits(), [zpow]
    # an exponent is at most its key's degree, and the leading key has the highest; only
    # a PBW monomial's can be this long, as a B!/C! word has degree at most 2n+1
    if terms and _too_long([terms[0][0].degree], digits):
        exponents += [x for m, _ in terms for x in (m.zexp, *m.xexps, *m.dexps)]
    if _too_long(exponents, digits):
        raise ExpressionTooLarge(f"an exponent has more than {digits} digits")
    if format == "json":
        body = {
            "algebra": num.kind.value,
            "n": num.n,
            "terms": [{"coeff": f"{c.numerator}/{c.denominator}", **key.json_fields(num.n)} for key, c in terms],
        }
        return json.dumps(body if num is e else {"num": body, "zpow": zpow})
    text = format_terms([(c, key.word_str(num.n)) for key, c in terms])
    if zpow == 0:
        return text
    return f"({text})/{'z' if zpow == 1 else f'z^{zpow}'}"
