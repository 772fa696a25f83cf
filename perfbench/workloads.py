"""The three seeded workloads: request generation, execution and oracles.

A workload is a stream of rounds.  Every round holds the same multiset of
request classes (its *shape*); the seed picks the operands and the order
inside the round.  Whole rounds are timed, so a run's mix does not depend
on how fast the program is.

Each request resolves the library function it calls through the module
object at call time (``pbw.multiply``, not a bound name), so the tracer's
rebinding reaches the call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Any, Callable

from weylkit import (
    cli,
    expressions,
    linalg,
    localization,
    pbw,
    quadratic,
    shriek,
    verify,
)
from weylkit.generators import AlgebraKind, FreeExpression

B, A, C = AlgebraKind.B, AlgebraKind.A, AlgebraKind.C
B_SHRIEK, C_SHRIEK = AlgebraKind.B_SHRIEK, AlgebraKind.C_SHRIEK

# Small coefficients keep the rewriting cost of one template nearly
# independent of the seed; 1/2 keeps the rational arithmetic honest.
_COEFFS = (1, 1, 2, 3, -1, -2, Fraction(1, 2))


@dataclass
class Request:
    """One request: ``cls`` names its shape class, ``key`` its exact input."""

    cls: str
    key: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]


def _lin_comb(rng: random.Random, words: list[str]) -> str:
    """Random-coefficient sum of ``words`` ('1' is the constant), first sign +."""
    parts = []
    for i, w in enumerate(words):
        c = rng.choice(_COEFFS)
        if i == 0:
            c = abs(c)
        mag = abs(c)
        if w == "1":
            body = str(mag)
        else:
            body = w if mag == 1 else f"{mag}*{w}"
        parts.append(body if i == 0 else (" - " if c < 0 else " + ") + body)
    return "".join(parts)


def _random_words(rng: random.Random, pool: list[str], length: int, count: int) -> list[str]:
    return ["*".join(rng.choice(pool) for _ in range(length)) for _ in range(count)]


def _pool(kind: AlgebraKind, n: int) -> list[str]:
    gens = [f"x{i}" for i in range(1, n + 1)] + [f"d{i}" for i in range(1, n + 1)]
    return gens + ["z"] if kind.has_z else gens


def canonical(obj: Any) -> str:
    """Deterministic text of a request's result (elapsed times excluded)."""
    if isinstance(obj, (pbw.AlgebraElement, shriek.ShriekElement)):
        return expressions.render(obj, "text")
    if isinstance(obj, localization.LocalizedElement):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(canonical(x) for x in obj) + "]"
    if isinstance(obj, dict):
        return json.dumps({str(k): canonical(v) for k, v in obj.items()}, sort_keys=True)
    if isinstance(obj, quadratic.QuadraticPresentation):
        return canonical([quadratic.relation_text(r, obj.generators) for r in obj.relations])
    if isinstance(obj, quadratic.DualRelationBasis):
        return canonical([sorted(rel.items()) for rel in obj.basis])
    if isinstance(obj, shriek.NakayamaMap):
        return canonical(dict(sorted(obj.images.items())))
    if isinstance(obj, verify.SuiteReport):
        return "\n".join(obj.text_lines())
    return str(obj)


# -- pbw-expand -----------------------------------------------------------------

def _cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.cli_main(argv)
    return rc, out.getvalue(), err.getvalue()


def _argv(verb: str, n: int, kind: AlgebraKind, *positional: str) -> list[str]:
    return [verb, "--n", str(n), "--algebra", kind.value, "--", *positional]


def _cli_text(expected: str) -> Callable[[Any], str | None]:
    def check(res) -> str | None:
        rc, out, err = res
        if rc != 0:
            return f"exit {rc}: {err.strip()}"
        if out != expected + "\n":
            return f"output {out.strip()!r} != oracle {expected!r}"
        return None

    return check


def _sympy_terms(text: str, n: int) -> dict[tuple[int, ...], Fraction]:
    import sympy

    gens = sympy.symbols(["z"] + [f"x{i}" for i in range(1, n + 1)] + [f"d{i}" for i in range(1, n + 1)])
    poly = sympy.Poly(sympy.expand(sympy.parse_expr(text.replace("^", "**"))), *gens)
    return {k: Fraction(int(v.p), int(v.q)) for k, v in poly.as_dict().items() if v != 0}


def _nf_request(rng: random.Random, kind: AlgebraKind, n: int, atoms: list[str], k: int) -> Request:
    inner = _lin_comb(rng, atoms)
    text = f"({inner})^{k}"
    argv = _argv("nf", n, kind, text)

    def check(res) -> str | None:
        base = pbw.normal_form(expressions.parse(inner, n, kind), kind)
        expected = base ** k  # closed-form route: repeated multiply
        bad = _cli_text(expressions.render(expected, "text"))(res)
        if bad or kind is not C:
            return bad
        got = {(m.zexp, *m.xexps, *m.dexps): c for m, c in expected.coeffs.items()}
        if got != _sympy_terms(text, n):
            return "closed form disagrees with sympy.expand"
        return None

    return Request(f"nf:{kind.value}:n{n}:t{len(atoms)}:k{k}", " ".join(argv), lambda: _cli(argv), check)


def _product_request(rng: random.Random, verb: str, kind: AlgebraKind, da: int, db: int) -> Request:
    n = 2
    pool = _pool(kind, n)
    a = _lin_comb(rng, _random_words(rng, pool, da, 3))
    b = _lin_comb(rng, _random_words(rng, pool, db, 3))
    argv = _argv(verb, n, kind, a, b)
    free = f"({a})*({b})" if verb == "mul" else f"({a})*({b}) - ({b})*({a})"

    def check(res) -> str | None:
        expected = pbw.normal_form(expressions.parse(free, n, kind), kind)
        return _cli_text(expressions.render(expected, "text"))(res)

    return Request(f"{verb}:{kind.value}:d{da}{db}", " ".join(argv), lambda: _cli(argv), check)


def _localization_request(rng: random.Random, verb: str) -> Request:
    n = 2
    if verb in ("homogenize", "mu"):
        # a Weyl-algebra element of mixed degree
        text = _lin_comb(rng, _random_words(rng, _pool(A, n), 3, 2) + _random_words(rng, _pool(A, n), 1, 1) + ["1"])
    elif verb == "dehomogenize":
        text = _lin_comb(rng, _random_words(rng, _pool(B, n), 3, 2) + _random_words(rng, _pool(B, n), 2, 2))
    else:  # theta needs a homogeneous numerator
        text = _lin_comb(rng, _random_words(rng, _pool(B, n), 3, 3))
    extra = [str(rng.randint(-2, 2))] if verb == "mu" else []
    argv = _argv(verb, n, B, text, *extra)

    def check(res) -> str | None:
        rc, out, err = res
        if rc != 0:
            return f"exit {rc}: {err.strip()}"
        if verb in ("dehomogenize", "theta"):
            # z -> 1 commutes with normal forms: reduce in the Weyl algebra directly
            expected = pbw.normal_form(expressions.parse(text.replace("z", "1"), n, A), A)
            got = localization.dehomogenize(pbw.normal_form(expressions.parse(text, n, B), B))
            if got != expected:
                return "dehomogenize disagrees with reduction at z = 1"
            if verb == "theta" and localization.theta(localization.theta_inverse(expected)) != expected:
                return "theta(theta_inverse(a)) != a"
            return _cli_text(expressions.render(expected, "text"))(res)
        a = pbw.normal_form(expressions.parse(text, n, A), A)
        b, k = localization.homogenize(a)
        if localization.dehomogenize(b) != a:
            return "dehomogenize(homogenize(a)[0]) != a"
        if localization.theta(localization.theta_inverse(a)) != a:
            return "theta(theta_inverse(a)) != a"
        e = localization.make(b, k) if verb == "homogenize" else localization.mu(a, int(extra[0]))
        if localization.dehomogenize(e.numerator) != a:
            return "numerator does not dehomogenize to a"
        return _cli_text(str(e))(res)

    return Request(f"{verb}:n{n}", " ".join(argv), lambda: _cli(argv), check)


def _verify_request(rng: random.Random, suite: str, n: int, budget: int) -> Request:
    argv = ["verify", suite, "--n", str(n), "--budget", str(budget), "--seed", str(rng.randrange(10**6))]

    def check(res) -> str | None:
        rc, out, err = res
        verdicts = [line for line in out.splitlines() if line.startswith(f"[{suite}] suite ")]
        if rc != 0 or not verdicts or any("suite PASS" not in v for v in verdicts):
            return f"suite {suite} did not pass (exit {rc})"
        return None

    return Request(f"verify:{suite}", " ".join(argv), lambda: _cli(argv), check)


# (kind, n, summands, exponents).  The seed picks only the coefficients:
# the order of the summands changes the rewriting cost of (x1+d1+z)^8 tenfold,
# so it is fixed, and a round's cost does not depend on the seed.  The second
# A^8 and C(n=2)^5 (about 100 ms each), like the eight B(n=1)^4 (about 5 ms),
# place the 90th and 50th percentiles of a round inside blocks of equal-cost
# requests rather than on a slope of rising costs.
_NF_TEMPLATES = (
    (B, 1, ["x1", "d1", "z"], (4, 4, 4, 4, 4, 4, 4, 4, 5, 6, 7, 8)),
    (B, 2, ["x1", "d1", "x2", "d2", "z"], (3, 4, 5)),
    (B, 2, ["x1", "d1", "x2", "z"], (4, 5)),
    (A, 1, ["x1", "d1", "1"], (4, 5, 6, 7, 8, 8)),
    (A, 2, ["x1", "d1", "x2", "d2", "1"], (3, 4, 5)),
    (C, 1, ["x1", "d1", "z"], (4, 5, 6, 7)),
    (C, 2, ["x1", "d1", "x2", "d2", "z"], (3, 4, 5, 5)),
)
_LOCALIZATION_COUNTS = (("homogenize", 3), ("dehomogenize", 4), ("theta", 4), ("mu", 3))
_PRODUCT_SLOTS = (
    ("mul", B, 3, 4), ("mul", B, 4, 4), ("mul", A, 3, 4), ("mul", C, 4, 4),
    ("comm", B, 3, 4), ("comm", B, 4, 4), ("comm", A, 4, 3), ("comm", C, 3, 3),
)
_VERIFY_SLOTS = (("pbw-laws", 2, 20), ("localization", 2, 20), ("roundtrip", 2, 40))


def pbw_expand_round(rng: random.Random) -> list[Request]:
    reqs = [
        _nf_request(rng, kind, n, atoms, k)
        for kind, n, atoms, ks in _NF_TEMPLATES
        for k in ks
    ]
    reqs += [_product_request(rng, *slot) for slot in _PRODUCT_SLOTS]
    reqs += [_localization_request(rng, verb) for verb, count in _LOCALIZATION_COUNTS for _ in range(count)]
    reqs += [_verify_request(rng, *slot) for slot in _VERIFY_SLOTS]
    rng.shuffle(reqs)
    return reqs


def pbw_expand_warm_up() -> None:
    _cli(["nf", "--n", "1", "(x1+d1)^2"])
    _cli(["mul", "--n", "2", "x1", "d2"])


# -- center-solve -----------------------------------------------------------------

def _centralizer_request(kind: AlgebraKind, n: int, d: int) -> Request:
    def check(basis) -> str | None:
        if kind is B:
            zd = pbw.AlgebraElement.monomial(B, n, pbw.PBWMonomial(d, (0,) * n, (0,) * n))
            return None if basis == [zd] else f"B center in degree {d} is not {{z^{d}}}"
        want = (1 if d == 0 else 0) if kind is A else comb(d + 2 * n, 2 * n)
        return None if len(basis) == want else f"dimension {len(basis)} != {want}"

    return Request(
        f"centralizer:{kind.value}:n{n}:d{d}",
        f"centralizer_in_degree({kind.value}, {n}, {d})",
        lambda: pbw.centralizer_in_degree(kind, n, d),
        check,
    )


def _dual_request(kind: AlgebraKind, n: int) -> Request:
    def check(p) -> str | None:
        want = (2 * n + 1) * (n + 1)
        return None if len(p.relations) == want else f"{len(p.relations)} dual relations != {want}"

    return Request(
        f"dual:{kind.value}:n{n}", f"dual_presentation({kind.value}, {n})",
        lambda: quadratic.dual_presentation(kind, n), check,
    )


def _complement_request(kind: AlgebraKind, n: int) -> Request:
    primal = quadratic.relations_of(kind, n)

    def check(basis) -> str | None:
        want = (2 * n + 1) * (n + 1)
        if len(basis.basis) != want:
            return f"complement dimension {len(basis.basis)} != {want}"
        if any(quadratic.pairing(r, s) != 0 for r in primal.relations for s in basis.basis):
            return "complement vector pairs nontrivially with a relation"
        return None

    return Request(
        f"complement:{kind.value}:n{n}", f"orthogonal_complement(relations_of({kind.value}, {n}))",
        lambda: quadratic.orthogonal_complement(primal), check,
    )


def _center_sizes() -> list[tuple[int, int, int]]:
    """(n, d, copies): small systems repeat, the largest appear once."""
    sizes = [(1, d, 2) for d in range(6)]
    sizes += [(2, d, 2) for d in range(4)] + [(2, 4, 1), (2, 5, 1)]
    sizes += [(3, d, 1) for d in range(6)]
    return sizes


def center_solve_round(rng: random.Random) -> list[Request]:
    reqs = [
        _centralizer_request(kind, n, d)
        for kind in (B, A, C)
        for n, d, copies in _center_sizes()
        for _ in range(copies)
    ]
    for kind in (B, C):
        for n in range(1, 5):
            reqs.append(_dual_request(kind, n))
            reqs.append(_complement_request(kind, n))
    # costs climb about 6% a rank around the median and 10% a rank around the
    # 90th percentile; more copies of (B, 1, 3) (about 2 ms) and (B, 3, 3)
    # (about 80 ms) put each inside a block of equal costs
    reqs += [_centralizer_request(B, 1, 3) for _ in range(15)]
    reqs += [_centralizer_request(B, 3, 3) for _ in range(8)]
    rng.shuffle(reqs)
    return reqs


def center_solve_warm_up() -> None:
    pbw.centralizer_in_degree(B, 1, 1)
    quadratic.dual_presentation(B, 1)


# -- shriek-frobenius ---------------------------------------------------------------

def _random_shriek(rng: random.Random, n: int, kind: AlgebraKind, terms: int) -> shriek.ShriekElement:
    coeffs = {w: Fraction(rng.choice(_COEFFS)) for w in rng.sample(shriek.shriek_basis(n), terms)}
    return shriek.ShriekElement(n, coeffs, kind)


def _free_product(a: shriek.ShriekElement, b: shriek.ShriekElement) -> FreeExpression:
    """The concatenated words of a*b, unreduced: bypasses the product table."""
    terms = []
    for u, cu in a.coeffs.items():
        for v, cv in b.coeffs.items():
            word = [shriek.rank_generator(r, a.n) for r in u.ranks(a.n) + v.ranks(a.n)]
            terms.append((cu * cv, word))
    return FreeExpression.from_terms(a.n, terms)


def _direct_product(a: shriek.ShriekElement, b: shriek.ShriekElement) -> shriek.ShriekElement:
    return shriek.reduce_expression(_free_product(a, b), a.kind)


def _elements_key(*es: shriek.ShriekElement) -> str:
    return " | ".join(f"{e.kind.value}(n={e.n}) {expressions.render(e, 'text')}" for e in es)


def _shriek_multiply_request(rng, n, kind, terms) -> Request:
    a, b = _random_shriek(rng, n, kind, terms), _random_shriek(rng, n, kind, terms)

    def check(res) -> str | None:
        return None if res == _direct_product(a, b) else "product disagrees with direct word reduction"

    return Request(f"multiply:{kind.value}:n{n}", "multiply " + _elements_key(a, b),
                   lambda: shriek.multiply(a, b), check)


def _bilinear_request(rng, n, terms) -> Request:
    a, b = _random_shriek(rng, n, B_SHRIEK, terms), _random_shriek(rng, n, B_SHRIEK, terms)

    def check(res) -> str | None:
        want = shriek.frobenius_functional(_direct_product(a, b))
        return None if res == want else f"beta = {res} != {want}"

    return Request(f"bilinear_form:n{n}", "bilinear_form " + _elements_key(a, b),
                   lambda: shriek.bilinear_form(a, b), check)


def _decompose_request(rng, n, kind, terms) -> Request:
    e = _random_shriek(rng, n, kind, terms)

    def check(res) -> str | None:
        cpart, zpart = res
        if cpart + zpart != e:
            return "parts do not sum back"
        if any(w.zflag for w in cpart.coeffs) or any(not w.zflag for w in zpart.coeffs):
            return "parts are not split by z"
        return None

    return Request(f"decompose:{kind.value}:n{n}", "decompose " + _elements_key(e),
                   lambda: shriek.decompose(e), check)


def _apply_request(rng, maps, n, kind, terms) -> Request:
    e = _random_shriek(rng, n, kind, terms)
    m = maps[n]

    def check(res) -> str | None:
        # the Nakayama automorphism of B! is the identity (z scalar 1)
        return None if res == e else "sigma(e) != e"

    return Request(f"apply_automorphism:{kind.value}:n{n}", "apply_automorphism " + _elements_key(e),
                   lambda: shriek.apply_automorphism(m, e), check)


def _reduce_request(rng, n, atoms, k) -> Request:
    text = f"({_lin_comb(rng, atoms)})^{k}"  # fixed summand order, as in pbw-expand

    def run():
        return shriek.reduce_expression(expressions.parse(text, n, B_SHRIEK), B_SHRIEK)

    def check(res) -> str | None:
        # confluence: a random redex order reaches the same normal form
        other = shriek.reduce_expression(expressions.parse(text, n, B_SHRIEK), B_SHRIEK, random.Random(text))
        return None if res == other else "reduction depends on the redex order"

    return Request(f"reduce_expression:n{n}:t{len(atoms)}:k{k}", f"reduce_expression({text}, n={n})", run, check)


def _nakayama_request(n: int) -> Request:
    def check(m) -> str | None:
        if m.z_scalar != 1:
            return f"z scalar {m.z_scalar} != 1"
        for r in range(2 * n + 1):
            g = shriek.rank_generator(r, n)
            if m.image_of(g) != shriek.ShriekElement.generator(n, g):
                return f"sigma({g}) is not {g}"
        return None

    return Request(f"nakayama:n{n}", f"nakayama({n})", lambda: shriek.nakayama(n), check)


def _gram_request(n: int, j: int) -> Request:
    def check(g) -> str | None:
        rows = shriek.shriek_basis_of_degree(n, j)
        cols = shriek.shriek_basis_of_degree(n, 2 * n + 1 - j)
        want = [
            [shriek.frobenius_functional(_direct_product(shriek.ShriekElement.word(n, u), shriek.ShriekElement.word(n, v)))
             for v in cols]
            for u in rows
        ]
        if g != want:
            return "Gram entries disagree with direct word reduction"
        return None if linalg.det(g) != 0 else "Gram matrix is singular"

    return Request(f"gram_matrix:n{n}:j{j}", f"gram_matrix({n}, {j})", lambda: shriek.gram_matrix(n, j), check)


def _golden_request(n: int) -> Request:
    def check(data) -> str | None:
        if n <= 2:
            return None if data == verify.load_golden(n) else "differs from the golden file"
        if data["nakayama_z_scalar"] != "1/1":
            return "z scalar != 1"
        if any(d.startswith("0/") for d in data["gram_determinants"]):
            return "a Gram determinant is zero"
        want = [comb(2 * n, j) + (comb(2 * n, j - 1) if j else 0) for j in range(2 * n + 2)]
        return None if data["degree_dimensions"] == want else "degree dimensions disagree"

    return Request(f"compute_golden:n{n}", f"compute_golden({n})", lambda: verify.compute_golden(n), check)


def _suite_request(rng: random.Random, name: str, n: int) -> Request:
    seed = rng.randrange(10**6)

    def check(report) -> str | None:
        return None if report.passed else f"suite {name} failed"

    return Request(f"run_suite:{name}", f"run_suite({name}, {n}, seed={seed})",
                   lambda: verify.run_suite(name, n, seed), check)


_REDUCE_TEMPLATES = ((1, ["x1", "d1", "z"], 6), (2, ["x1", "d1", "x2", "z"], 5), (3, ["x1", "d2", "x3", "z"], 5))


def shriek_frobenius_round(rng: random.Random, maps: dict[int, shriek.NakayamaMap]) -> list[Request]:
    reqs = [_nakayama_request(n) for n in (1, 2, 3)]
    # extra copies of the two largest Gram matrices put the 90th percentile,
    # and extra copies of gram_matrix(3, 0) and (3, 7) (about 1 ms) the median,
    # inside a block of equal-cost requests instead of between two classes
    reqs += [_gram_request(2, j) for j in range(6)] + [_gram_request(3, j) for j in (*range(8), 3, 4, 3, 4)]
    reqs += [_gram_request(3, j) for j in (0, 7, 0, 7, 0, 7)]
    for n, terms in ((1, 3), (2, 6), (3, 10), (3, 16)):
        for kind in (B_SHRIEK, C_SHRIEK):
            reqs.append(_shriek_multiply_request(rng, n, kind, terms))
            reqs.append(_decompose_request(rng, n, kind, terms))
        reqs.append(_bilinear_request(rng, n, terms))
        reqs.append(_apply_request(rng, maps, max(n, 2), B_SHRIEK, terms))
        reqs.append(_apply_request(rng, maps, max(n, 2), C_SHRIEK, terms))
    reqs += [_reduce_request(rng, *t) for t in _REDUCE_TEMPLATES]
    reqs += [_golden_request(n) for n in (1, 2, 3)]
    reqs += [_suite_request(rng, name, n) for name, n in
             (("frobenius", 2), ("nakayama", 2), ("decomposition", 2), ("shriek-dims", 3))]
    rng.shuffle(reqs)
    return reqs


def shriek_frobenius_warm_up() -> None:
    """Fill the word-pair product table for every (kind, n) the rounds use."""
    for kind in (B_SHRIEK, C_SHRIEK):
        for n in (1, 2, 3):
            full = shriek.ShriekElement(n, {w: 1 for w in shriek.shriek_basis(n)}, kind)
            shriek.multiply(full, full)


# -- registry ------------------------------------------------------------------------

@dataclass
class Workload:
    make_rounds: Callable[[int, int], list[list[Request]]]  # (seed, count) -> rounds
    warm_up: Callable[[], None]


def _rounds(name: str, build: Callable[[random.Random], list[Request]]):
    def make(seed: int, count: int) -> list[list[Request]]:
        return [build(random.Random(f"{name}:{seed}:{r}")) for r in range(count)]

    return make


def _shriek_rounds(seed: int, count: int) -> list[list[Request]]:
    maps = {n: shriek.nakayama(n) for n in (1, 2, 3)}
    return [
        shriek_frobenius_round(random.Random(f"shriek-frobenius:{seed}:{r}"), maps)
        for r in range(count)
    ]


WORKLOADS = {
    "pbw-expand": Workload(_rounds("pbw-expand", pbw_expand_round), pbw_expand_warm_up),
    "center-solve": Workload(_rounds("center-solve", center_solve_round), center_solve_warm_up),
    "shriek-frobenius": Workload(_shriek_rounds, shriek_frobenius_warm_up),
}
