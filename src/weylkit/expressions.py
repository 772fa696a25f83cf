"""Text and JSON frontend for algebra elements.

Two routes read the same grammar.  ``evaluate`` computes the element a
text denotes with the algebra's own arithmetic, and the CLI verbs use it.
``parse`` expands the text into free words, which ``pbw.normal_form`` and
``shriek.reduce_expression`` rewrite; that literal route is the oracle the
tests check ``evaluate`` against.

``GRAMMAR`` is the input grammar (EBNF).  Multiplication is always
explicit (``x1*d1``), exponents are nonnegative integers, rationals are
written ``p/q``, and unary minus binds looser than ``*``.  Tokens are
case-insensitive and ASCII-only.  Parentheses nest at most
``_MAX_DEPTH`` deep, and no product may expand to more than
``_MAX_FREE_SIZE`` letters of free words.  Numbers read or printed have at
most ``sys.get_int_max_str_digits()`` digits (else ExpressionTooLarge).
"""

from __future__ import annotations

import json
import operator
import re
import sys
from fractions import Fraction
from typing import Any, Callable, NamedTuple

from .errors import ExpressionTooLarge, IndexOutOfRange, ParseError
from .generators import AlgebraKind, FreeExpression, Generator, SparseElement
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
# word, where a bare coefficient counts as one letter.  The largest input
# the tests, demos and benchmark use, (x1+d1+z)^8, is 6561 words of length 8.
_MAX_FREE_SIZE = 100_000

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<VAR>[xdXD][0-9]+|[zZ])|(?P<NAT>[0-9]+)|(?P<OP>[-+*^/()]))"
)

# A parsed sum of words, before any canonicalization.
_Terms = list[tuple[Fraction, tuple[Generator, ...]]]


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    limit = sys.get_int_max_str_digits()  # 0 means no limit
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
        if limit and len(value) - (kind == "VAR") > limit:
            raise ExpressionTooLarge(f"the number at position {m.start(kind)} has more than {limit} digits")
        tokens.append((kind, value, m.start(kind)))
        pos = m.end()
    return tokens


class _Build(NamedTuple):
    """What a walk of the grammar builds from atoms: the sums, negations,
    products and powers default to the values' own operators."""

    generator: Callable[[Generator], Any]
    constant: Callable[[Fraction], Any]
    add: Callable[[Any, Any], Any] = operator.add
    neg: Callable[[Any], Any] = operator.neg
    mul: Callable[[Any, Any], Any] = operator.mul
    pow: Callable[[Any, int], Any] = operator.pow


def _times(a: _Terms, b: _Terms) -> _Terms:
    """The product of two sums of words, in lexicographic order of the factors."""
    return [(c1 * c2, w1 + w2) for c1, w1 in a for c2, w2 in b]


def _power(base: _Terms, e: int) -> _Terms:
    out: _Terms = [(Fraction(1), ())]
    for bit in bin(e)[2:]:  # square and multiply: linear, not quadratic, in e
        out = _times(out, out)
        if bit == "1":
            out = _times(out, base)
    return out


# The literal route: the free expansion, one word per path through the sums.
_FREE_WORDS = _Build(
    generator=lambda g: [(Fraction(1), (g,))],
    constant=lambda c: [(c, ())],
    neg=lambda terms: [(-c, w) for c, w in terms],
    mul=_times,
    pow=_power,
)


def _width(longest: int) -> int:
    """The longest word, counting a bare coefficient as one letter."""
    return max(longest, 1)


class _Parser:
    """Recursive descent over ``GRAMMAR`` that builds with ``build``.

    Each rule returns (value, terms, longest): the value built, and the
    term count and longest word of the text's free expansion.  Counts add
    under '+', multiply under '*' and are raised to the power k under '^',
    so the pair is exact whatever is built, and every route refuses the
    same texts with the same errors.
    """

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

    def too_large(self, at: int):
        raise ExpressionTooLarge(f"the product at position {at} expands to more than {_MAX_FREE_SIZE} letters")

    def parse(self):
        value, _, _ = self.expr()
        if self.peek() is not None:
            self.fail({"'+'", "'-'", "'*'", "'^'", "end of input"})
        return value

    def expr(self):
        value, terms, longest = self.term()
        while True:
            op = self.eat_op("+", "-")
            if op is None:
                return value, terms, longest
            rhs, rterms, rlongest = self.term()
            value = self.build.add(value, self.build.neg(rhs) if op == "-" else rhs)
            terms, longest = terms + rterms, max(longest, rlongest)

    def term(self):
        negate = False
        while self.eat_op("-"):  # a loop, not recursion: "- - ... x1" may be long
            negate = not negate
        value, terms, longest = self.factor()
        while self.eat_op("*"):
            at = self.tokens[self.pos - 1][2]
            rhs, rterms, rlongest = self.factor()
            if terms * rterms * (_width(longest) + _width(rlongest)) > _MAX_FREE_SIZE:
                self.too_large(at)
            value = self.build.mul(value, rhs)
            terms, longest = terms * rterms, longest + rlongest
        return (self.build.neg(value) if negate else value), terms, longest

    def factor(self):
        value, terms, longest = self.atom()
        if self.eat_op("^"):
            at = self.tokens[self.pos - 1][2]
            tok = self.peek()
            if tok is None or tok[0] != "NAT":
                self.fail({"nonnegative integer exponent"})
            self.pos += 1
            e = int(tok[1])
            length = e * _width(longest)
            # once the length alone is too large, terms ** e is never formed
            if length > _MAX_FREE_SIZE or terms**e * length > _MAX_FREE_SIZE:
                self.too_large(at)
            return self.build.pow(value, e), terms**e, e * longest
        return value, terms, longest

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
            return self.build.generator(g), 1, 1
        if kind == "NAT":
            self.pos += 1
            num = int(value)
            if self.eat_op("/"):
                den_tok = self.peek()
                if den_tok is None or den_tok[0] != "NAT" or int(den_tok[1]) == 0:
                    self.fail({"nonzero denominator"})
                self.pos += 1
                return self.build.constant(Fraction(num, int(den_tok[1]))), 1, 0
            return self.build.constant(Fraction(num)), 1, 0
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


def parse(text: str, n: int, kind: AlgebraKind | str) -> FreeExpression:
    """Parse ``text`` into a raw free-algebra expression.

    Validates indices against ``n`` and z-legality against ``kind``; does
    no algebraic simplification beyond rational normalization.  This is
    the literal route, which ``pbw.normal_form`` and
    ``shriek.reduce_expression`` finish by rewriting.

    >>> str(parse("3/2 * z * x2", 2, "B"))
    '3/2*z*x2'
    """
    if isinstance(kind, str):
        kind = AlgebraKind.from_string(kind)
    return FreeExpression.from_terms(n, _Parser(text, n, kind, _FREE_WORDS).parse())


def evaluate(text: str, n: int, kind: AlgebraKind | str) -> SparseElement:
    """The canonical element ``text`` denotes in ``kind``.

    Walks the grammar as ``parse`` does and refuses the same texts with the
    same errors, but builds elements with the algebra's own arithmetic:
    the closed-form ``multiply`` for A, B and C, the word-pair product
    table for B! and C!, and square and multiply for powers.  It equals
    the normal form of ``parse(text, n, kind)``.

    >>> str(evaluate("d1*x1", 1, "B"))
    'x1*d1 + z^2'
    """
    if isinstance(kind, str):
        kind = AlgebraKind.from_string(kind)
    if kind.is_shriek:
        one = ShriekElement.one(n, kind)
        build = _Build(lambda g: ShriekElement.generator(n, g, kind), one.scaled)
    else:
        one = AlgebraElement.one(kind, n)
        build = _Build(lambda g: AlgebraElement.generator(kind, n, g), one.scaled)
    return _Parser(text, n, kind, build).parse()


# -- rendering -----------------------------------------------------------------

def format_terms(parts: list[tuple[Fraction, str]]) -> str:
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
    """Deterministic canonical text or JSON for an element.

    Accepts PBW elements and shriek elements; terms come out in canonical
    order, so distinct canonical elements always render differently.
    """
    if format not in ("text", "json"):
        raise ValueError(f"unknown render format {format!r}")
    if not isinstance(e, SparseElement):
        raise TypeError(f"cannot render {type(e).__name__}")
    terms = e.terms()
    try:
        if format == "text":
            return format_terms([(c, key.word_str(e.n)) for key, c in terms])
        return json.dumps({
            "algebra": e.kind.value,
            "n": e.n,
            "terms": [
                {"coeff": f"{c.numerator}/{c.denominator}", **key.json_fields(e.n)}
                for key, c in terms
            ],
        })
    except ValueError as exc:  # Python's limit on int-to-str conversion
        raise ExpressionTooLarge(f"a coefficient has more than {sys.get_int_max_str_digits()} digits") from exc
