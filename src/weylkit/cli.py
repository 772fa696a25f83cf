"""Command line interface: ``weylkit <verb> [--n INT] [--json] [OPTIONS] [EXPR...]``.

The table ``_VERBS`` gives each verb only the options it reads besides
``--n`` and ``--json``, and the largest ``--n`` it accepts; any other
option is a usage error.  Exit status is 0 iff everything succeeded (for
``verify``: iff every check passed), 1 on a named error, a failed check
or a stdout the reader closed (``main`` exits without a traceback), and 2
on a usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import textwrap
from math import comb
from typing import Callable, NamedTuple

from .errors import IllegalGenerator, UnsupportedN, WeylkitError
from .expressions import GRAMMAR, bounded_product, evaluate, render
from .generators import AlgebraKind
from .pbw import centralizer_in_degree, graded_degree
from .quadratic import dual_presentation, relation_text, relations_of
from .shriek import degree_dimensions
from .localization import dehomogenize, make, mu, theta
from .verify import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    SUITE_MAX_N,
    SUITE_NAMES,
    bless_golden,
    compute_golden,
    run_suite,
    verified_nakayama,
)

_EXAMPLES = 'examples: "d1*x1 - x1*d1 - z^2", "3/2 * z * x2", "(x1+d1)^2"\n'
GRAMMAR_HELP = "expression grammar:\n" + textwrap.indent(GRAMMAR, "  ") + _EXAMPLES

A, B = AlgebraKind.A, AlgebraKind.B


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


_MAX_BUDGET = 1000  # verify all --n 3: 2.2-2.6 s process wall time (0.66-0.68 s at 200); 2 Xeon CPUs, Python 3.11.7


def _budget(text: str) -> int:
    value = _positive_int(text)
    if value > _MAX_BUDGET:
        raise argparse.ArgumentTypeError(f"must be at most {_MAX_BUDGET}, got {value}")
    return value


def _nf(args) -> None:
    print(render(evaluate(args.expr[0], args.n, args.algebra), args.format))


def _product(args) -> None:
    a, b = (evaluate(text, args.n, args.algebra) for text in args.expr)
    print(render(bounded_product(a, b, args.verb == "comm"), args.format))


def _dims(args) -> None:
    if args.algebra.is_shriek:
        dims = degree_dimensions(args.n, args.algebra)
    else:
        # the degree-d monomials in s commuting letters, as pbw.basis_of_degree lists them
        s = 2 * args.n if args.algebra is A else 2 * args.n + 1
        dims = [comb(d + s - 1, s - 1) for d in range(0, 9)]
    if args.format == "json":
        print(json.dumps({"algebra": args.algebra.value, "n": args.n, "dims": dims}))
    else:
        print(" ".join(str(d) for d in dims))


def _center(args) -> None:
    rows = [(d, centralizer_in_degree(B, args.n, d)) for d in range(0, 6)]
    if args.format == "json":
        doc = {
            "algebra": "B",
            "n": args.n,
            "degrees": [
                {
                    "d": d,
                    "dimension": len(basis),
                    "basis": [json.loads(render(v, "json")) for v in basis],
                }
                for d, basis in rows
            ],
        }
        print(json.dumps(doc))
    else:
        for d, basis in rows:
            rendered = ", ".join(render(v, "text") for v in basis)
            print(f"degree {d}: dimension {len(basis)}: {rendered}")


def _dual(args) -> None:
    base = args.algebra
    primal = relations_of(base, args.n)
    dual = dual_presentation(base, args.n)
    if args.format == "json":
        doc = {
            "algebra": base.value,
            "n": args.n,
            "generators": list(dual.generators),
            "primal_relations": [relation_text(r, primal.generators) for r in primal.relations],
            "dual_relations": [relation_text(r, dual.generators) for r in dual.relations],
        }
        print(json.dumps(doc))
    else:
        print(f"{base.value}({args.n}): {len(primal.relations)} relations; dual has {len(dual.relations)}:")
        for r in dual.relations:
            print(f"  {relation_text(r, dual.generators)}")


def _nakayama(args) -> None:
    if args.format == "json":
        print(json.dumps(compute_golden(args.n), sort_keys=True))
    else:
        nm = verified_nakayama(args.n)
        for name, img in sorted(nm.images.items()):
            print(f"sigma({name}) = {render(img, 'text')}")
        print(f"z scalar k = {nm.z_scalar}")


def _dehomogenize(args) -> None:
    print(render(dehomogenize(evaluate(args.expr[0], args.n, B)), args.format))


def _theta(args) -> None:
    num = evaluate(args.expr[0], args.n, B)
    zpow = 0 if num.is_zero() else graded_degree(num)
    print(render(theta(make(num, zpow)), args.format))


def _mu(args) -> None:
    # homogenize is mu at t = 0, the canonical degree-zero fraction, and takes no t; both read
    # their input in A, whatever --algebra says, so a refused generator is named in A's terms
    try:
        a = evaluate(args.expr[0], args.n, A)
    except IllegalGenerator as exc:
        raise IllegalGenerator(f"{args.verb} reads its input in the Weyl algebra A: {exc}") from None
    print(render(mu(a, getattr(args, "t", 0)), args.format))


def _verify(args) -> int:
    if args.bless:
        for ni in range(1, args.n + 1):
            print(f"golden file written: {bless_golden(ni)}", file=sys.stderr)
    if args.suite == "all":
        reports = [run_suite(name, args.n, args.seed, args.budget) for name in SUITE_NAMES]
    else:
        reports = [run_suite(args.suite, args.n, args.seed, args.budget)]
    if args.format == "json":
        print(json.dumps([r.to_json_dict() for r in reports]))
    else:
        print("\n".join(line for r in reports for line in r.text_lines()))
    return 0 if all(r.passed for r in reports) else 1


class _Verb(NamedTuple):
    handler: Callable[[argparse.Namespace], int | None]  # prints; returns the exit status, None for 0
    help: str
    max_n: int  # larger --n is refused with UnsupportedN before any work
    exprs: int = 0  # number of EXPR positionals
    kinds: tuple[str, ...] = ()  # --algebra choices; () means no --algebra
    extra: tuple[tuple[str, dict], ...] = ()  # further add_argument calls


_ALL_KINDS = tuple(k.value for k in AlgebraKind)

# Process wall times at the caps.  Expression verbs: a term costs O(n), as every monomial
# holds two length-n exponent vectors, so no product builds more than 100 000 terms, and past
# n = 5 no more than 500 000 / n (expressions.bounded_product); at --n 1000, nf "(x1+d1+z)^8"
# takes 0.16-0.18 s (0.11-0.13 s at n = 1), and mul of two of them is refused in 0.13-0.15 s
# (it prints in 0.13-0.14 s at n = 1).  dims --n 1000 counts by formula: 0.09-0.13 s for A, B
# and C, 0.26-0.44 s for B! and C!, which print 869 252 bytes.  center --n 4 0.11-0.17 s,
# nearly all of it start-up (importing weylkit.cli takes 0.10-0.17 s), dual --n 12 1.4 s,
# nakayama --n 3 0.12-0.19 s (text or --json); these grow fast with n (2 Xeon CPUs, Python 3.11.7).
# verify takes the one suite cap, SUITE_MAX_N; its time is at _MAX_BUDGET.
_EXPR_MAX_N = 1000

_VERBS = {
    "nf": _Verb(_nf, "normal form of an expression", _EXPR_MAX_N, exprs=1, kinds=_ALL_KINDS),
    "mul": _Verb(_product, "product of two expressions", _EXPR_MAX_N, exprs=2, kinds=_ALL_KINDS),
    "comm": _Verb(_product, "commutator of two expressions", _EXPR_MAX_N, exprs=2, kinds=_ALL_KINDS),
    "dims": _Verb(_dims, "graded dimensions", _EXPR_MAX_N, kinds=_ALL_KINDS),
    "center": _Verb(_center, "centralizer bases in degrees 0..5", 4),
    "dual": _Verb(_dual, "quadratic-dual presentation of B or C", 12, kinds=("B", "C")),
    "nakayama": _Verb(_nakayama, "Nakayama automorphism data", 3),
    # the localization verbs read --algebra only as B, the algebra being localized
    "homogenize": _Verb(_mu, "minimal homogenization of a Weyl-algebra element", _EXPR_MAX_N, exprs=1, kinds=("B",)),
    "dehomogenize": _Verb(_dehomogenize, "send z to 1", _EXPR_MAX_N, exprs=1, kinds=("B",)),
    "theta": _Verb(_theta, "degree-zero fraction to Weyl algebra (z power inferred)", _EXPR_MAX_N, exprs=1, kinds=("B",)),
    "mu": _Verb(_mu, "degree-t localized image of a Weyl-algebra element", _EXPR_MAX_N, exprs=1, kinds=("B",), extra=(
        ("t", dict(nargs="?", type=int, default=0, help="z-degree shift (default 0)")),
    )),
    "verify": _Verb(_verify, "run verification suites", SUITE_MAX_N, extra=(
        ("suite", dict(nargs="?", default="all", help=f"suite name or 'all'; suites: {', '.join(SUITE_NAMES)}")),
        ("--seed", dict(type=int, default=DEFAULT_SEED, help="sample-stream seed")),
        ("--budget", dict(type=_budget, default=DEFAULT_BUDGET, help=f"sample count per check (at most {_MAX_BUDGET})")),
        ("--bless", dict(action="store_true", help="write golden files before running")),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylkit",
        description="exact arithmetic in the homogenized Weyl algebra and friends",
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, verb in _VERBS.items():
        p = sub.add_parser(name, help=verb.help)
        p.add_argument("--n", type=_positive_int, default=1, help="pair count (default 1)")
        p.add_argument("--json", dest="format", action="store_const", const="json", default="text", help="emit JSON instead of text")
        if verb.kinds:
            # case-insensitive; cli_main turns the choice into an AlgebraKind
            p.add_argument("--algebra", type=str.upper, choices=verb.kinds, default="B", help="target algebra (default B)")
        if verb.exprs:
            p.add_argument("expr", nargs=verb.exprs)
        for flag, options in verb.extra:
            p.add_argument(flag, **options)
    return parser


_parser: argparse.ArgumentParser | None = None  # built by the first cli_main call


def cli_main(argv=None) -> int:
    global _parser
    _parser = _parser or build_parser()
    try:
        args = _parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    verb = _VERBS[args.verb]
    if verb.kinds:
        args.algebra = AlgebraKind(args.algebra)
    try:
        if args.n > verb.max_n:
            raise UnsupportedN(f"{args.verb} supports 1 <= n <= {verb.max_n}, got {args.n}")
        return verb.handler(args) or 0
    except WeylkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        status = cli_main()
        sys.stdout.flush()  # a closed stdout fails here, inside the try, not at exit
    except BrokenPipeError:
        # the reader has gone: send the interpreter's final flush to devnull, as the Python docs advise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    sys.exit(status)


if __name__ == "__main__":
    main()
