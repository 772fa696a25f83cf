"""Command line interface.

    weylkit <verb> [--n INT] [--algebra B|A|C|B!|C!] [--json] [--seed INT]
                   [--budget INT] [--bless] [EXPR...]

Verbs: nf, mul, comm, dims, center, dual, nakayama, homogenize,
dehomogenize, theta, mu, verify.  Exit status is 0 iff everything
succeeded (for ``verify``: iff every check passed), 1 on a named
error or a failed check, and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import WeylkitError
from .expressions import parse, render
from .generators import AlgebraKind
from .pbw import basis_of_degree, centralizer_in_degree, normal_form
from .quadratic import dual_presentation, relation_text, relations_of
from .shriek import degree_dimensions, nakayama, reduce_expression
from .localization import (
    dehomogenize,
    make,
    mu,
    render_localized,
    theta,
    theta_inverse,
)
from .verify import (
    DEFAULT_BUDGET,
    DEFAULT_SEED,
    SUITE_MAX_N,
    SUITE_NAMES,
    bless_golden,
    compute_golden,
    run_suite,
)

GRAMMAR_HELP = """\
expression grammar:
  expr     := term (('+'|'-') term)*
  term     := factor ('*' factor)* | '-' term
  factor   := atom ('^' NAT)?
  atom     := VAR | RATIONAL | '(' expr ')'
  VAR      := x<i> | d<i> | z        (case-insensitive, 1 <= i <= n)
  RATIONAL := NAT ('/' NAT)?
examples: "d1*x1 - x1*d1 - z^2", "3/2 * z * x2", "(x1+d1)^2"
"""


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_positive_int, default=1, help="pair count (default 1)")
    p.add_argument(
        "--algebra",
        type=AlgebraKind.from_string,
        default="B",
        help="target algebra: B, A, C, B! or C! (default B)",
    )
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sample-stream seed")
    p.add_argument("--budget", type=_positive_int, default=DEFAULT_BUDGET, help="sample count per check")
    p.add_argument("--bless", action="store_true", help="write golden files before running")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weylkit",
        description="exact arithmetic in the homogenized Weyl algebra and friends",
        epilog=GRAMMAR_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("nf", help="normal form of an expression")
    _add_common(p)
    p.add_argument("expr", nargs=1)

    p = sub.add_parser("mul", help="product of two expressions")
    _add_common(p)
    p.add_argument("expr", nargs=2)

    p = sub.add_parser("comm", help="commutator of two expressions")
    _add_common(p)
    p.add_argument("expr", nargs=2)

    p = sub.add_parser("dims", help="graded dimensions")
    _add_common(p)

    p = sub.add_parser("center", help="centralizer bases in degrees 0..5")
    _add_common(p)

    p = sub.add_parser("dual", help="quadratic-dual presentation of B or C")
    _add_common(p)

    p = sub.add_parser("nakayama", help="Nakayama automorphism data")
    _add_common(p)

    p = sub.add_parser("homogenize", help="minimal homogenization of a Weyl-algebra element")
    _add_common(p)
    p.add_argument("expr", nargs=1)

    p = sub.add_parser("dehomogenize", help="send z to 1")
    _add_common(p)
    p.add_argument("expr", nargs=1)

    p = sub.add_parser("theta", help="degree-zero fraction to Weyl algebra (z power inferred)")
    _add_common(p)
    p.add_argument("expr", nargs=1)

    p = sub.add_parser("mu", help="degree-t localized image of a Weyl-algebra element")
    _add_common(p)
    p.add_argument("expr", nargs=1)
    p.add_argument("t", nargs="?", type=int, default=0, help="z-degree shift (default 0)")

    p = sub.add_parser("verify", help="run verification suites")
    _add_common(p)
    p.add_argument(
        "suite",
        nargs="?",
        default="all",
        help=f"suite name or 'all'; suites: {', '.join(SUITE_NAMES)}",
    )

    return parser


def _fmt(e, as_json: bool) -> str:
    return render(e, "json" if as_json else "text")


def _run_verb(args) -> int:
    kind = args.algebra
    out = sys.stdout

    if args.verb == "nf":
        expr = parse(args.expr[0], args.n, kind)
        e = reduce_expression(expr, kind) if kind.is_shriek else normal_form(expr, kind)
        print(_fmt(e, args.json), file=out)
        return 0

    if args.verb in ("mul", "comm"):
        ea = parse(args.expr[0], args.n, kind)
        eb = parse(args.expr[1], args.n, kind)
        if kind.is_shriek:
            a, b = reduce_expression(ea, kind), reduce_expression(eb, kind)
        else:
            a, b = normal_form(ea, kind), normal_form(eb, kind)
        result = a * b if args.verb == "mul" else a * b - b * a
        print(_fmt(result, args.json), file=out)
        return 0

    if args.verb == "dims":
        if kind.is_shriek:
            dims = degree_dimensions(args.n, kind)
        else:
            dims = [len(basis_of_degree(kind, args.n, d)) for d in range(0, 9)]
        if args.json:
            print(json.dumps({"algebra": kind.value, "n": args.n, "dims": dims}), file=out)
        else:
            print(" ".join(str(d) for d in dims), file=out)
        return 0

    if args.verb == "center":
        rows = []
        for d in range(0, 6):
            basis = centralizer_in_degree(AlgebraKind.B, args.n, d)
            rows.append((d, basis))
        if args.json:
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
            print(json.dumps(doc), file=out)
        else:
            for d, basis in rows:
                rendered = ", ".join(render(v, "text") for v in basis)
                print(f"degree {d}: dimension {len(basis)}: {rendered}", file=out)
        return 0

    if args.verb == "dual":
        base = kind if kind in (AlgebraKind.B, AlgebraKind.C) else AlgebraKind.B
        primal = relations_of(base, args.n)
        dual = dual_presentation(base, args.n)
        if args.json:
            doc = {
                "algebra": base.value,
                "n": args.n,
                "generators": list(dual.generators),
                "primal_relations": [relation_text(r, primal.generators) for r in primal.relations],
                "dual_relations": [relation_text(r, dual.generators) for r in dual.relations],
            }
            print(json.dumps(doc), file=out)
        else:
            print(f"{base.value}({args.n}): {len(primal.relations)} relations; dual has {len(dual.relations)}:", file=out)
            for r in dual.relations:
                print(f"  {relation_text(r, dual.generators)}", file=out)
        return 0

    if args.verb == "nakayama":
        if args.bless:
            path = bless_golden(args.n)
            print(f"golden file written: {path}", file=sys.stderr)
        data = compute_golden(args.n)
        if args.json:
            print(json.dumps(data, sort_keys=True), file=out)
        else:
            nm = nakayama(args.n)
            for name, img in sorted(nm.images.items()):
                print(f"sigma({name}) = {render(img, 'text')}", file=out)
            print(f"z scalar k = {nm.z_scalar}", file=out)
        return 0

    if args.verb == "homogenize":
        a = normal_form(parse(args.expr[0], args.n, AlgebraKind.A), AlgebraKind.A)
        print(render_localized(theta_inverse(a), "json" if args.json else "text"), file=out)
        return 0

    if args.verb == "dehomogenize":
        b = normal_form(parse(args.expr[0], args.n, AlgebraKind.B), AlgebraKind.B)
        print(_fmt(dehomogenize(b), args.json), file=out)
        return 0

    if args.verb == "theta":
        num = normal_form(parse(args.expr[0], args.n, AlgebraKind.B), AlgebraKind.B)
        from .pbw import graded_degree

        zpow = 0 if num.is_zero() else graded_degree(num)
        result = theta(make(num, zpow))
        print(_fmt(result, args.json), file=out)
        return 0

    if args.verb == "mu":
        a = normal_form(parse(args.expr[0], args.n, AlgebraKind.A), AlgebraKind.A)
        e = mu(a, args.t)
        print(render_localized(e, "json" if args.json else "text"), file=out)
        return 0

    if args.verb == "verify":
        if args.bless:
            for ni in range(1, min(args.n, 2) + 1):
                path = bless_golden(ni)
                print(f"golden file written: {path}", file=sys.stderr)
        names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
        reports = []
        for name in names:
            if args.suite == "all":
                capped = min(args.n, SUITE_MAX_N[name])
            else:
                capped = args.n
            reports.append(run_suite(name, capped, args.seed, args.budget))
        if args.json:
            print(json.dumps([r.to_json_dict() for r in reports]), file=out)
        else:
            for r in reports:
                for line in r.text_lines():
                    print(line, file=out)
        return 0 if all(r.passed for r in reports) else 1

    raise AssertionError(f"unhandled verb {args.verb}")


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _run_verb(args)
    except WeylkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
